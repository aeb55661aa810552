// Package simd provides the single-precision kernels that stand in for
// the Intel Xeon Phi's 512-bit vector unit (16 float32 lanes):
//
//   - Dot and FusedWeightedCount, the lane-blocked dot product of the
//     dot-product MI formulation (mi.PairVec);
//   - Log2 and EntropyDot, the single-precision log and the batched
//     entropy pass of the float32 compute path.
//
// Go has no portable intrinsics, so these are written as fixed-width
// unrolled loops over contiguous lanes — the shape the paper's IMCI
// code has — which modern Go compilers and CPUs execute with good
// instruction-level parallelism. Each has a plain-loop reference in its
// tests.
package simd

import "fmt"

// DefaultWidth is the lane width of the Xeon Phi VPU in float32 elements
// (512 bits / 32 bits).
const DefaultWidth = 16

// Dot returns the dot product of a and b computed with lane-blocked
// accumulation: w independent partial sums reduced at the end, the same
// dataflow a SIMD reduction uses. It panics if len(a) != len(b).
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("simd: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	const w = DefaultWidth
	var acc [w]float32
	n := len(a)
	i := 0
	for ; i+w <= n; i += w {
		for l := 0; l < w; l++ {
			acc[l] += a[i+l] * b[i+l]
		}
	}
	var sum float32
	for l := 0; l < w; l++ {
		sum += acc[l]
	}
	for ; i < n; i++ {
		sum += a[i] * b[i]
	}
	return sum
}

// FusedWeightedCount computes, for bin pair (u, v), the dot product over
// samples of the two dense weight rows — the vector-friendly
// reformulation of the joint histogram accumulation:
//
//	P(u,v) = sum_s wA[u][s] * wB[v][s]
//
// where wu and wv are the contiguous per-bin weight rows. Identical to
// Dot but named for its role in the MI kernel.
func FusedWeightedCount(wu, wv []float32) float32 { return Dot(wu, wv) }
