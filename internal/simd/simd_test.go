package simd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
	return s
}

// dot64 is the float64 reference dot product.
func dot64(a, b []float32) float64 {
	var sum float64
	for i := range a {
		sum += float64(a[i]) * float64(b[i])
	}
	return sum
}

func TestDotMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 100, 1000} {
		a, b := randSlice(rng, n), randSlice(rng, n)
		vec := float64(Dot(a, b))
		ref := dot64(a, b)
		if math.Abs(vec-ref) > 1e-3*(1+math.Abs(ref)) {
			t.Fatalf("n=%d: Dot = %v, ref = %v", n, vec, ref)
		}
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot(make([]float32, 3), make([]float32, 4))
}

func TestDotProperty(t *testing.T) {
	f := func(a []float32) bool {
		for i, v := range a {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				a[i] = 1
			}
			// Clamp to keep products finite.
			if a[i] > 1e3 {
				a[i] = 1e3
			}
			if a[i] < -1e3 {
				a[i] = -1e3
			}
		}
		// Dot(a, a) >= 0 and equals sum of squares.
		d := Dot(a, a)
		if d < 0 {
			return false
		}
		ref := dot64(a, a)
		return math.Abs(float64(d)-ref) <= 1e-2*(1+ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestFusedWeightedCountIsDot(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, b := randSlice(rng, 100), randSlice(rng, 100)
	if FusedWeightedCount(a, b) != Dot(a, b) {
		t.Fatal("FusedWeightedCount must equal Dot")
	}
}

// The vector-formulated joint histogram (FusedWeightedCount over bin rows)
// must produce the same joint distribution as the scalar scatter
// formulation (each sample's stencil outer product added into the
// joint). This is the central equivalence the paper's optimization
// relies on.
func TestHistogramFormulationsAgree(t *testing.T) {
	const (
		bins = 7
		k    = 3
		m    = 200
	)
	rng := rand.New(rand.NewSource(7))
	// Dense per-bin weight rows for two genes: w[bin][sample].
	denseA := make([][]float32, bins)
	denseB := make([][]float32, bins)
	for u := 0; u < bins; u++ {
		denseA[u] = make([]float32, m)
		denseB[u] = make([]float32, m)
	}
	// Sparse stencils per sample.
	offA := make([]int, m)
	offB := make([]int, m)
	wA := make([][]float32, m)
	wB := make([][]float32, m)
	for s := 0; s < m; s++ {
		offA[s] = rng.Intn(bins - k + 1)
		offB[s] = rng.Intn(bins - k + 1)
		wA[s] = make([]float32, k)
		wB[s] = make([]float32, k)
		var sa, sb float32
		for u := 0; u < k; u++ {
			wA[s][u] = rng.Float32()
			wB[s][u] = rng.Float32()
			sa += wA[s][u]
			sb += wB[s][u]
		}
		for u := 0; u < k; u++ {
			wA[s][u] /= sa
			wB[s][u] /= sb
			denseA[offA[s]+u][s] = wA[s][u]
			denseB[offB[s]+u][s] = wB[s][u]
		}
	}
	// Scatter formulation.
	scatter := make([]float32, bins*bins)
	for s := 0; s < m; s++ {
		for u, a := range wA[s] {
			for v, b := range wB[s] {
				scatter[(offA[s]+u)*bins+offB[s]+v] += a * b
			}
		}
	}
	// Dot formulation.
	for u := 0; u < bins; u++ {
		for v := 0; v < bins; v++ {
			dot := FusedWeightedCount(denseA[u], denseB[v])
			if math.Abs(float64(dot-scatter[u*bins+v])) > 1e-3 {
				t.Fatalf("joint[%d][%d]: dot %v vs scatter %v", u, v, dot, scatter[u*bins+v])
			}
		}
	}
}
