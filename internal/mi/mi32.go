// Single-precision MI — the float32 compute path.
//
// The data plane (expression matrix, B-spline weights, block
// accumulators) is float32 throughout the pipeline already; what the
// default path keeps in double precision is the joint-histogram
// accumulator, the marginal entropies, and every log evaluation. The
// paper's native-float build pays none of that: histograms, entropies,
// and the (vectorized) log are all single precision.
//
// There is one kernel per formulation, and the precision comes from
// the workspace it is passed: NewWorkspacePrec(e, Float32) allocates a
// float32 joint, and every kernel then accumulates into it, uses the
// float32 marginal entropies, and evaluates entropy terms with
// simd.Log2 instead of math.Log2 (miFromWorkspace). The pass structure
// and early-exit semantics are shared code, so they cannot differ
// between the precisions.
//
// The float32 MI of a pair differs from the float64 value only by
// accumulation roundoff (the products summed are identical float32
// values), so at the default order/bin settings the two paths agree to
// ~1e-5 bits — far below any edge-decision margin; the golden test in
// internal/core pins the edge sets identical.
package mi

import "repro/internal/simd"

// Precision selects the accumulator width and log implementation of the
// MI kernels: Float64 is the default double-precision path, Float32 the
// single-precision path matching the paper's native-float build.
type Precision uint8

const (
	Float64 Precision = iota // float64 joint + math.Log2 (default)
	Float32                  // float32 joint + simd.Log2
)

func (p Precision) String() string {
	switch p {
	case Float32:
		return "float32"
	default:
		return "float64"
	}
}

// Entropy32 returns the Shannon entropy in bits of the distribution p:
// single-precision probabilities and log evaluated four bins at a time
// (simd.EntropyDot), summed in float64. The wide accumulator removes
// the O(len(p)) float32 summation roundoff, leaving only the per-term
// log error (~1e-7 bits total) — what keeps float32 edge decisions
// aligned with float64 on large inputs, where thousands of pairs sit
// near the significance threshold. Zero entries are skipped; p is
// assumed non-negative and (approximately) normalized.
func Entropy32(p []float32) float32 {
	return float32(-simd.EntropyDot(p, 1))
}
