package bspline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/perm"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 5); err == nil {
		t.Fatal("order 0 should fail")
	}
	if _, err := New(4, 3); err == nil {
		t.Fatal("bins < order should fail")
	}
	b, err := New(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if b.Order() != 3 || b.Bins() != 10 {
		t.Fatalf("order/bins = %d/%d", b.Order(), b.Bins())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(0, 1)
}

// Partition of unity: for any x in [0,1] the basis values sum to 1.
func TestPartitionOfUnityEval(t *testing.T) {
	for _, cfg := range []struct{ k, b int }{{1, 10}, {2, 10}, {3, 10}, {4, 12}, {3, 3}} {
		basis := MustNew(cfg.k, cfg.b)
		for _, x := range []float64{0, 1e-9, 0.1, 0.25, 0.5, 0.75, 0.999999, 1} {
			var sum float64
			for i := 0; i < cfg.b; i++ {
				v := basis.Eval(i, x)
				if v < -1e-12 {
					t.Fatalf("k=%d b=%d: Eval(%d,%v) = %v < 0", cfg.k, cfg.b, i, x, v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("k=%d b=%d x=%v: basis sum = %v, want 1", cfg.k, cfg.b, x, sum)
			}
		}
	}
}

func TestEvalIndexPanics(t *testing.T) {
	basis := MustNew(3, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	basis.Eval(10, 0.5)
}

// Weights must agree with the recursive Eval reference at the stencil
// positions and be zero elsewhere.
func TestWeightsMatchEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, cfg := range []struct{ k, b int }{{1, 8}, {2, 8}, {3, 10}, {4, 10}, {5, 16}} {
		basis := MustNew(cfg.k, cfg.b)
		dst := make([]float32, cfg.k)
		for trial := 0; trial < 200; trial++ {
			x := rng.Float64()
			if trial == 0 {
				x = 0
			}
			if trial == 1 {
				x = 1
			}
			first := basis.Weights(x, dst)
			if first < 0 || first+cfg.k > cfg.b {
				t.Fatalf("k=%d b=%d x=%v: stencil [%d,%d) out of range", cfg.k, cfg.b, x, first, first+cfg.k)
			}
			full := make([]float64, cfg.b)
			for u := 0; u < cfg.k; u++ {
				full[first+u] = float64(dst[u])
			}
			for i := 0; i < cfg.b; i++ {
				ref := basis.Eval(i, x)
				if math.Abs(full[i]-ref) > 1e-6 {
					t.Fatalf("k=%d b=%d x=%v: basis %d = %v, Eval = %v", cfg.k, cfg.b, x, i, full[i], ref)
				}
			}
		}
	}
}

func TestWeightsPartitionOfUnityProperty(t *testing.T) {
	basis := MustNew(3, 10)
	dst := make([]float32, 3)
	f := func(raw float64) bool {
		x := math.Abs(math.Mod(raw, 1))
		first := basis.Weights(x, dst)
		var sum float64
		for _, w := range dst {
			if w < -1e-6 {
				return false
			}
			sum += float64(w)
		}
		return first >= 0 && first+3 <= 10 && math.Abs(sum-1) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightsDstTooShortPanics(t *testing.T) {
	basis := MustNew(3, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	basis.Weights(0.5, make([]float32, 2))
}

func TestOrderOneIsPlainBinning(t *testing.T) {
	basis := MustNew(1, 10)
	dst := make([]float32, 1)
	for _, tc := range []struct {
		x    float64
		want int
	}{{0, 0}, {0.05, 0}, {0.15, 1}, {0.95, 9}, {1, 9}} {
		first := basis.Weights(tc.x, dst)
		if first != tc.want || dst[0] != 1 {
			t.Fatalf("x=%v: bin %d w %v, want bin %d w 1", tc.x, first, dst[0], tc.want)
		}
	}
}

func TestWeightsClampOutOfRange(t *testing.T) {
	basis := MustNew(3, 10)
	dst := make([]float32, 3)
	for _, x := range []float64{-0.5, 1.5} {
		first := basis.Weights(x, dst)
		var sum float64
		for _, w := range dst {
			sum += float64(w)
		}
		if first < 0 || first+3 > 10 || math.Abs(sum-1) > 1e-6 {
			t.Fatalf("x=%v: out-of-range input not clamped (first=%d sum=%v)", x, first, sum)
		}
	}
}

func buildExpr(rng *rand.Rand, n, m int) *mat.Dense {
	e := mat.NewDense(n, m)
	for i := 0; i < n; i++ {
		r := e.Row(i)
		for j := range r {
			r[j] = rng.Float32()
		}
	}
	return e
}

func TestPrecomputeSparseDenseConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	basis := MustNew(3, 10)
	expr := buildExpr(rng, 5, 40)
	wm := Precompute(basis, expr)
	if wm.Genes != 5 || wm.Samples != 40 {
		t.Fatalf("genes/samples = %d/%d", wm.Genes, wm.Samples)
	}
	wm.BuildDense()
	for g := 0; g < 5; g++ {
		rows := wm.GeneDenseRows(g)
		if len(rows) != 10 {
			t.Fatalf("gene %d: %d dense rows, want 10", g, len(rows))
		}
		for s := 0; s < 40; s++ {
			first, w := wm.Stencil(g, s)
			var sum float64
			for u, v := range w {
				sum += float64(v)
				if rows[int(first)+u][s] != v {
					t.Fatalf("gene %d sample %d: dense/sparse mismatch", g, s)
				}
			}
			if math.Abs(sum-1) > 1e-5 {
				t.Fatalf("gene %d sample %d: stencil sum %v", g, s, sum)
			}
			// Bins outside the stencil must be zero.
			for u := 0; u < 10; u++ {
				if u >= int(first) && u < int(first)+3 {
					continue
				}
				if rows[u][s] != 0 {
					t.Fatalf("gene %d sample %d bin %d: expected 0, got %v", g, s, u, rows[u][s])
				}
			}
		}
	}
}

func TestMarginalSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	basis := MustNew(3, 10)
	expr := buildExpr(rng, 3, 100)
	wm := Precompute(basis, expr)
	for g := 0; g < 3; g++ {
		p := wm.Marginal(g)
		var sum float64
		for _, v := range p {
			if v < 0 {
				t.Fatalf("gene %d: negative marginal %v", g, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("gene %d: marginal sum %v", g, sum)
		}
	}
}

func TestMarginalPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	basis := MustNew(3, 10)
	expr := buildExpr(rng, 1, 64)
	wm := Precompute(basis, expr)
	perm := make([]int32, 64)
	for i := range perm {
		perm[i] = int32(63 - i)
	}
	a := wm.Marginal(0)
	b := wm.MarginalPermuted(0, perm)
	for u := range a {
		if a[u] != b[u] {
			t.Fatal("marginal must be permutation invariant")
		}
	}
}

func TestUniformDataGivesFlatMarginal(t *testing.T) {
	// With exactly uniform samples at rank positions, the marginal
	// should be close to uniform across interior bins.
	basis := MustNew(3, 10)
	m := 10000
	expr := mat.NewDense(1, m)
	r := expr.Row(0)
	for s := 0; s < m; s++ {
		r[s] = (float32(s) + 0.5) / float32(m)
	}
	wm := Precompute(basis, expr)
	p := wm.Marginal(0)
	// Interior bins (away from the clamped boundary) should be ~1/8 of
	// the interior mass each; just check max/min ratio of interior bins.
	lo, hi := p[3], p[3]
	for _, v := range p[3:7] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi/lo > 1.05 {
		t.Fatalf("interior marginal not flat: min %v max %v", lo, hi)
	}
}

func BenchmarkWeightsOrder3(b *testing.B) {
	basis := MustNew(3, 10)
	dst := make([]float32, 3)
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		basis.Weights(xs[i&1023], dst)
	}
}

func BenchmarkPrecompute1000x337(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	basis := MustNew(3, 10)
	expr := buildExpr(rng, 1000, 337)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Precompute(basis, expr)
	}
}

func TestPrecomputeParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	basis := MustNew(3, 10)
	expr := buildExpr(rng, 37, 53)
	want := Precompute(basis, expr)
	want.BuildDense()
	for _, workers := range []int{2, 5, 16, 64} {
		got := PrecomputeParallel(basis, expr, workers)
		for x := range want.Offsets {
			if got.Offsets[x] != want.Offsets[x] {
				t.Fatalf("workers=%d Offsets[%d] differ", workers, x)
			}
		}
		for x := range want.Sparse {
			if got.Sparse[x] != want.Sparse[x] {
				t.Fatalf("workers=%d Sparse[%d] differ", workers, x)
			}
		}
		got.BuildDense()
		for r := 0; r < 37*10; r++ {
			gr, wr := got.Dense.Row(r), want.Dense.Row(r)
			for s := range wr {
				if gr[s] != wr[s] {
					t.Fatalf("workers=%d Dense row %d col %d differ", workers, r, s)
				}
			}
		}
	}
}

// TestWeightMatricesHoldOnlyStencils pins what a pipeline weight matrix
// costs: the resident precompute, a panel and its fills, and an
// ensemble view build only the stencils (an int32 offset and k float32
// weights per sample), and PanelBytes charges exactly that. The dense
// per-bin rows exist only after BuildDense.
func TestWeightMatricesHoldOnlyStencils(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, k := range []int{1, 3, 4} {
		basis := MustNew(k, 10)
		const n, m = 9, 70
		expr := buildExpr(rng, n, m)
		rows := make([][]float32, n)
		for g := range rows {
			rows[g] = expr.Row(g)
		}
		whole := PrecomputeParallel(basis, expr, 3)
		panel := NewPanelWeights(basis, n, m)
		for _, c := range []struct {
			name string
			wm   *WeightMatrix
			fill func()
		}{
			{"PrecomputeParallel", whole, func() {}},
			{"NewPanelWeights", panel, func() {}},
			{"FillPanel", panel, func() { panel.FillPanel(rows) }},
			{"FillView", panel, func() { panel.FillView(whole, perm.SubsampleIndices(1, 0, m, m)) }},
		} {
			c.fill()
			if c.wm.Dense != nil {
				t.Fatalf("k=%d %s: weight matrix holds dense rows", k, c.name)
			}
			if got := int64(len(c.wm.Offsets))*4 + int64(len(c.wm.Sparse))*4; got != PanelBytes(basis, n, m) {
				t.Fatalf("k=%d %s: %d bytes of stencils, PanelBytes %d", k, c.name, got, PanelBytes(basis, n, m))
			}
		}
		if want := int64(n * m * 4 * (1 + k)); PanelBytes(basis, n, m) != want {
			t.Fatalf("k=%d: PanelBytes %d, want g·m·4·(1+k) = %d", k, PanelBytes(basis, n, m), want)
		}
	}
}
