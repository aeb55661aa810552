package mi

import (
	"math"
	"math/rand"
	"testing"
)

// log2Edges are the inputs where a log2 replay most easily slips:
// Sqrt2/2 and its neighbours (archLog's f1 <= Sqrt2/2 test) at every
// binary exponent, exact powers of two (Frexp's frac == 0.5 case),
// 1 and its neighbours, the ends of the positive normals, and values
// outside them (subnormals, zeros, negatives, infinities and NaN),
// which go to math.Log2.
func log2Edges() []float64 {
	var v []float64
	h := math.Sqrt2 / 2
	for e := -1021; e <= 1024; e++ {
		x := math.Ldexp(h, e)
		v = append(v, x, math.Nextafter(x, 0), math.Nextafter(x, 2*x), math.Ldexp(1, e-1), math.Nextafter(math.Ldexp(1, e-1), 0))
	}
	v = append(v, 0.5, 1, math.Nextafter(1, 0), math.Nextafter(1, 2), 0x1p-1022, math.Nextafter(0x1p-1022, 1), math.MaxFloat64,
		0x1p-1074, math.Nextafter(0x1p-1022, 0), 0x1p-149, 0, math.Copysign(0, -1), -1, -0x1p-1022, math.Inf(1), math.Inf(-1), math.NaN())
	return v
}

// TestLog2SSEMatchesMathLog2 pins the SSE2 log2 to math.Log2 bit for
// bit: on log2Edges, in both lanes and at odd and even positions, and
// on 12M random values — uniform in (0, 1), and random bit patterns of
// positive normals, which span every binary exponent. log2SSE itself
// must take every pair of positive normals, not hand it to math.Log2.
func TestLog2SSEMatchesMathLog2(t *testing.T) {
	check := func(what string, src []float64) {
		t.Helper()
		dst := make([]float64, len(src))
		log2Cells(dst, src)
		for x, v := range src {
			if got, want := dst[x], math.Log2(v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: log2(%v = %#016x) = %v (%#016x), math.Log2 %v (%#016x)",
					what, v, math.Float64bits(v), got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	edges := log2Edges()
	check("edges", edges)
	check("edges shifted by one lane", append([]float64{0.75}, edges...))

	normal := func(x float64) bool { return x >= 0x1p-1022 && x <= math.MaxFloat64 }
	var pairs []float64
	for _, v := range edges {
		if normal(v) {
			pairs = append(pairs, v)
		}
	}
	pairs = pairs[:len(pairs)&^1]
	if n := log2SSE(make([]float64, len(pairs)), pairs); n != len(pairs) {
		t.Fatalf("log2SSE stopped at cell %d (%v) of %d positive normals", n, pairs[n], len(pairs))
	}

	rng := rand.New(rand.NewSource(1))
	const chunk, chunks = 1 << 16, 192
	src := make([]float64, chunk)
	for c := 0; c < chunks; c++ {
		for x := range src {
			if c%2 == 0 {
				v := rng.Float64()
				for v == 0 {
					v = rng.Float64()
				}
				src[x] = v
				continue
			}
			v := math.Float64frombits(rng.Uint64() >> 1)
			for !normal(v) {
				v = math.Float64frombits(rng.Uint64() >> 1)
			}
			src[x] = v
		}
		check("random", src)
	}
}

// BenchmarkLog2Cells times log2Cells on 100 probabilities like a
// 10-bin joint's; math.Log2 times the loop it replaces.
func BenchmarkLog2Cells(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	src, dst := make([]float64, 100), make([]float64, 100)
	for x := range src {
		src[x] = rng.Float64() / 10
	}
	b.Run("sse2", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			log2Cells(dst, src)
		}
	})
	b.Run("math.Log2", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			for x, v := range src {
				dst[x] = math.Log2(v)
			}
		}
	})
}
