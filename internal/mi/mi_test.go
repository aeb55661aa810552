package mi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bspline"
	"repro/internal/mat"
)

func gaussianPair(rng *rand.Rand, m int, rho float64) ([]float32, []float32) {
	xi := make([]float32, m)
	xj := make([]float32, m)
	c := math.Sqrt(1 - rho*rho)
	for s := 0; s < m; s++ {
		a := rng.NormFloat64()
		b := rng.NormFloat64()
		xi[s] = float32(a)
		xj[s] = float32(rho*a + c*b)
	}
	return xi, xj
}

// normalize returns the pair rank-normalized into (0,1) as the pipeline
// does before MI estimation.
func normalizePair(xi, xj []float32) ([]float32, []float32) {
	m := mat.FromRows([][]float32{xi, xj})
	m.RankNormalize()
	return m.Row(0), m.Row(1)
}

func buildEstimator(t testing.TB, rows [][]float32, order, bins int) (*Estimator, *Workspace) {
	t.Helper()
	expr := mat.FromRows(rows)
	expr.RankNormalize()
	wm := bspline.Precompute(bspline.MustNew(order, bins), expr)
	wm.BuildDense() // for PairVec
	e := NewEstimator(wm)
	return e, NewWorkspace(e)
}

func TestEntropy(t *testing.T) {
	if h := Entropy([]float64{0.5, 0.5}); math.Abs(h-1) > 1e-12 {
		t.Fatalf("H(fair coin) = %v, want 1", h)
	}
	if h := Entropy([]float64{1, 0, 0}); h != 0 {
		t.Fatalf("H(point mass) = %v, want 0", h)
	}
	if h := Entropy([]float64{0.25, 0.25, 0.25, 0.25}); math.Abs(h-2) > 1e-12 {
		t.Fatalf("H(uniform 4) = %v, want 2", h)
	}
}

func TestGaussianMI(t *testing.T) {
	if GaussianMI(0) != 0 {
		t.Fatal("MI at rho=0 should be 0")
	}
	if !math.IsInf(GaussianMI(1), 1) || !math.IsInf(GaussianMI(-1), 1) {
		t.Fatal("MI at |rho|=1 should be +Inf")
	}
	// rho=0.6: -0.5*log2(0.64) = 0.32192...
	want := -0.5 * math.Log2(1-0.36)
	if got := GaussianMI(0.6); math.Abs(got-want) > 1e-12 {
		t.Fatalf("GaussianMI(0.6) = %v, want %v", got, want)
	}
	if GaussianMI(0.5) != GaussianMI(-0.5) {
		t.Fatal("MI must be symmetric in sign of rho")
	}
}

func TestVecScalarReferenceAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, m := range []int{16, 100, 337} {
		xi, xj := gaussianPair(rng, m, 0.7)
		ni, nj := normalizePair(xi, xj)
		e, ws := buildEstimator(t, [][]float32{ni, nj}, 3, 10)
		vec := e.PairVec(0, 1, ws)
		scal := e.PairScalar(0, 1, ws)
		ref := PairReference(bspline.MustNew(3, 10), ni, nj)
		if math.Abs(vec-scal) > 1e-4 {
			t.Fatalf("m=%d: vec %v vs scalar %v", m, vec, scal)
		}
		if math.Abs(vec-ref) > 1e-3 {
			t.Fatalf("m=%d: vec %v vs reference %v", m, vec, ref)
		}
	}
}

func TestMISymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	xi, xj := gaussianPair(rng, 200, 0.5)
	ni, nj := normalizePair(xi, xj)
	e, ws := buildEstimator(t, [][]float32{ni, nj}, 3, 10)
	a := e.PairVec(0, 1, ws)
	b := e.PairVec(1, 0, ws)
	if math.Abs(a-b) > 1e-6 {
		t.Fatalf("MI not symmetric: %v vs %v", a, b)
	}
}

func TestSelfMIEqualsMarginalEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	xi, _ := gaussianPair(rng, 300, 0)
	ni, _ := normalizePair(xi, xi)
	e, ws := buildEstimator(t, [][]float32{ni}, 3, 10)
	// MI(X,X) should be close to H(X). The B-spline smearing makes the
	// joint slightly off-diagonal, so allow a modest tolerance.
	mi := e.PairVec(0, 0, ws)
	h := e.MarginalEntropy(0)
	if mi > h+1e-6 {
		t.Fatalf("MI(X,X)=%v exceeds H(X)=%v", mi, h)
	}
	// The spline smears the joint into a k-wide band, so MI(X,X) sits
	// well below H(X) but must remain a large fraction of it.
	if mi < 0.4*h {
		t.Fatalf("MI(X,X)=%v too far below H(X)=%v", mi, h)
	}
}

func TestIndependentPairsLowMI(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	xi, xj := gaussianPair(rng, 2000, 0)
	ni, nj := normalizePair(xi, xj)
	e, ws := buildEstimator(t, [][]float32{ni, nj}, 3, 10)
	mi := e.PairVec(0, 1, ws)
	if mi > 0.08 {
		t.Fatalf("independent MI = %v, expected near 0", mi)
	}
}

// Estimated MI should increase with |rho| and roughly track the analytic
// Gaussian MI (the estimator is biased upward for finite m but monotone).
func TestMIMonotoneInCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	m := 3000
	prev := -1.0
	for _, rho := range []float64{0, 0.3, 0.6, 0.9} {
		xi, xj := gaussianPair(rng, m, rho)
		ni, nj := normalizePair(xi, xj)
		e, ws := buildEstimator(t, [][]float32{ni, nj}, 3, 10)
		mi := e.PairVec(0, 1, ws)
		if mi <= prev {
			t.Fatalf("MI not monotone: rho=%v gives %v after %v", rho, mi, prev)
		}
		prev = mi
	}
}

func TestMITracksAnalyticGaussian(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	m := 5000
	for _, rho := range []float64{0.4, 0.6, 0.8} {
		xi, xj := gaussianPair(rng, m, rho)
		ni, nj := normalizePair(xi, xj)
		e, ws := buildEstimator(t, [][]float32{ni, nj}, 3, 10)
		got := e.PairVec(0, 1, ws)
		want := GaussianMI(rho)
		// B-spline estimator with b=10,k=3 at m=5000: expect within
		// ~35% relative + small absolute bias band.
		if math.Abs(got-want) > 0.35*want+0.05 {
			t.Fatalf("rho=%v: estimated %v, analytic %v", rho, got, want)
		}
	}
}

func TestPermutedKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	xi, xj := gaussianPair(rng, 150, 0.8)
	ni, nj := normalizePair(xi, xj)
	e, ws := buildEstimator(t, [][]float32{ni, nj}, 3, 10)
	perm := make([]int32, 150)
	for i := range perm {
		perm[i] = int32(i)
	}
	rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
	vec := e.PairPermutedVec(0, 1, perm, ws)
	scal := e.PairPermutedScalar(0, 1, perm, ws)
	if math.Abs(vec-scal) > 1e-4 {
		t.Fatalf("permuted vec %v vs scalar %v", vec, scal)
	}
}

func TestIdentityPermutationMatchesUnpermuted(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	xi, xj := gaussianPair(rng, 128, 0.6)
	ni, nj := normalizePair(xi, xj)
	e, ws := buildEstimator(t, [][]float32{ni, nj}, 3, 10)
	id := make([]int32, 128)
	for i := range id {
		id[i] = int32(i)
	}
	plain := e.PairVec(0, 1, ws)
	perm := e.PairPermutedVec(0, 1, id, ws)
	if math.Abs(plain-perm) > 1e-5 {
		t.Fatalf("identity permutation changed MI: %v vs %v", plain, perm)
	}
}

func TestPermutationDestroysMI(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	xi, xj := gaussianPair(rng, 1000, 0.9)
	ni, nj := normalizePair(xi, xj)
	e, ws := buildEstimator(t, [][]float32{ni, nj}, 3, 10)
	real := e.PairVec(0, 1, ws)
	perm := make([]int32, 1000)
	for i := range perm {
		perm[i] = int32(i)
	}
	rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
	shuffled := e.PairPermutedVec(0, 1, perm, ws)
	if shuffled > real/3 {
		t.Fatalf("permutation should destroy dependence: real %v, permuted %v", real, shuffled)
	}
}

func TestPairVecAgainstGathered(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	xi, xj := gaussianPair(rng, 96, 0.5)
	ni, nj := normalizePair(xi, xj)
	e, ws := buildEstimator(t, [][]float32{ni, nj}, 3, 10)
	perm := make([]int32, 96)
	for i := range perm {
		perm[i] = int32((i + 17) % 96)
	}
	direct := e.PairPermutedVec(0, 1, perm, ws)
	hoisted := e.PairVecAgainstGathered(0, 1, e.GatherPermuted(1, perm), ws)
	if math.Abs(direct-hoisted) > 1e-6 {
		t.Fatalf("hoisted gather mismatch: %v vs %v", direct, hoisted)
	}
}

func TestPermLengthMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	xi, xj := gaussianPair(rng, 50, 0)
	ni, nj := normalizePair(xi, xj)
	e, ws := buildEstimator(t, [][]float32{ni, nj}, 3, 10)
	for name, f := range map[string]func(){
		"scalar": func() { e.PairPermutedScalar(0, 1, make([]int32, 10), ws) },
		"gather": func() { e.GatherPermuted(0, make([]int32, 10)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBinningMI(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	// Perfectly dependent uniform data should approach log2(bins).
	m := 20000
	x := make([]float32, m)
	for s := range x {
		x[s] = rng.Float32()
	}
	mi := BinningMI(x, x, 8)
	if math.Abs(mi-3) > 0.05 {
		t.Fatalf("BinningMI(X,X) = %v, want ~3 bits", mi)
	}
	// Independent data near zero.
	y := make([]float32, m)
	for s := range y {
		y[s] = rng.Float32()
	}
	if indep := BinningMI(x, y, 8); indep > 0.05 {
		t.Fatalf("independent BinningMI = %v", indep)
	}
	if BinningMI(nil, nil, 4) != 0 {
		t.Fatal("empty input should give 0")
	}
}

func TestBinningMIPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BinningMI(make([]float32, 3), make([]float32, 4), 4)
}

func TestBinningMIBinsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BinningMI(make([]float32, 3), make([]float32, 3), 0)
}

// B-spline smoothing should reduce the estimator variance relative to
// hard binning on small samples (the motivation for the Daub estimator).
func TestSplineLowerVarianceThanBinning(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const trials = 40
	const m = 100
	varOf := func(f func(xi, xj []float32) float64) float64 {
		var vals []float64
		for tr := 0; tr < trials; tr++ {
			xi, xj := gaussianPair(rng, m, 0)
			ni, nj := normalizePair(xi, xj)
			vals = append(vals, f(ni, nj))
		}
		mean := 0.0
		for _, v := range vals {
			mean += v
		}
		mean /= trials
		var ss float64
		for _, v := range vals {
			ss += (v - mean) * (v - mean)
		}
		return ss / trials
	}
	basis := bspline.MustNew(3, 10)
	vSpline := varOf(func(xi, xj []float32) float64 { return PairReference(basis, xi, xj) })
	vBin := varOf(func(xi, xj []float32) float64 { return BinningMI(xi, xj, 10) })
	if vSpline >= vBin {
		t.Fatalf("spline variance %v should be below binning variance %v", vSpline, vBin)
	}
}

func BenchmarkPairVec337(b *testing.B)    { benchPair(b, 337, (*Estimator).PairVec) }
func BenchmarkPairScalar337(b *testing.B) { benchPair(b, 337, (*Estimator).PairScalar) }
func BenchmarkPairVec3137(b *testing.B)   { benchPair(b, 3137, (*Estimator).PairVec) }
func BenchmarkPairScalar3137(b *testing.B) {
	benchPair(b, 3137, (*Estimator).PairScalar)
}

func benchPair(b *testing.B, m int, f func(*Estimator, int, int, *Workspace) float64) {
	rng := rand.New(rand.NewSource(1))
	xi, xj := gaussianPair(rng, m, 0.5)
	ni, nj := normalizePair(xi, xj)
	e, ws := buildEstimator(b, [][]float32{ni, nj}, 3, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(e, 0, 1, ws)
	}
}

func BenchmarkPermutationReuse(b *testing.B) {
	// Permuting precomputed weights (gather) vs what a naive
	// implementation would do: recompute weights for permuted raw data.
	rng := rand.New(rand.NewSource(2))
	m := 1024
	xi, xj := gaussianPair(rng, m, 0.5)
	ni, nj := normalizePair(xi, xj)
	perm := make([]int32, m)
	for i := range perm {
		perm[i] = int32(i)
	}
	rng.Shuffle(m, func(a, c int) { perm[a], perm[c] = perm[c], perm[a] })
	b.Run("reuse-gather", func(b *testing.B) {
		e, ws := buildEstimator(b, [][]float32{ni, nj}, 3, 10)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.PairPermutedVec(0, 1, perm, ws)
		}
	})
	b.Run("recompute-weights", func(b *testing.B) {
		basis := bspline.MustNew(3, 10)
		permJ := make([]float32, m)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for s := range permJ {
				permJ[s] = nj[perm[s]]
			}
			PairReference(basis, ni, permJ)
		}
	})
}

func TestBucketedMatchesVecAndScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, cfg := range []struct{ k, b, m int }{{3, 10, 200}, {2, 8, 137}, {4, 12, 333}, {1, 6, 64}} {
		xi, xj := gaussianPair(rng, cfg.m, 0.6)
		ni, nj := normalizePair(xi, xj)
		e, ws := buildEstimator(t, [][]float32{ni, nj}, cfg.k, cfg.b)
		bk := e.PairBucketed(0, 1, ws)
		sc := e.PairScalar(0, 1, ws)
		if math.Abs(bk-sc) > 1e-4 {
			t.Fatalf("k=%d b=%d m=%d: bucketed %v vs scalar %v", cfg.k, cfg.b, cfg.m, bk, sc)
		}
	}
}

func TestBucketedPermutedMatchesScalarPermuted(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	xi, xj := gaussianPair(rng, 180, 0.7)
	ni, nj := normalizePair(xi, xj)
	e, ws := buildEstimator(t, [][]float32{ni, nj}, 3, 10)
	perm := make([]int32, 180)
	for i := range perm {
		perm[i] = int32(i)
	}
	rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
	bk := e.PairPermutedBucketed(0, 1, perm, ws)
	sc := e.PairPermutedScalar(0, 1, perm, ws)
	if math.Abs(bk-sc) > 1e-4 {
		t.Fatalf("permuted bucketed %v vs scalar %v", bk, sc)
	}
	// Identity permutation equals unpermuted.
	for i := range perm {
		perm[i] = int32(i)
	}
	if d := math.Abs(e.PairPermutedBucketed(0, 1, perm, ws) - e.PairBucketed(0, 1, ws)); d > 1e-9 {
		t.Fatalf("identity permutation drift %v", d)
	}
}

func TestBucketedPermLengthPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xi, xj := gaussianPair(rng, 50, 0)
	ni, nj := normalizePair(xi, xj)
	e, ws := buildEstimator(t, [][]float32{ni, nj}, 3, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.PairPermutedBucketed(0, 1, make([]int32, 7), ws)
}

func BenchmarkPairBucketed337(b *testing.B)  { benchPair(b, 337, (*Estimator).PairBucketed) }
func BenchmarkPairBlocked337(b *testing.B)   { benchPair(b, 337, (*Estimator).PairBlocked) }
func BenchmarkPairBucketed3137(b *testing.B) { benchPair(b, 3137, (*Estimator).PairBucketed) }
