// Single-precision MI kernels — the float32 compute path.
//
// The data plane (expression matrix, B-spline weights, block
// accumulators) is float32 throughout the pipeline already; what the
// default path keeps in double precision is the joint-histogram
// accumulator, the marginal entropies, and every log evaluation. The
// paper's native-float build pays none of that: histograms, entropies,
// and the (vectorized) log are all single precision. This file is that
// path: each kernel below mirrors its float64 counterpart exactly —
// same pass structure, same early-exit semantics — but accumulates the
// joint in ws.joint32, uses the float32 marginal entropies, and
// evaluates entropy terms with simd.Log2 instead of math.Log2.
//
// The float32 MI of a pair differs from the float64 value only by
// accumulation roundoff (the products summed are identical float32
// values), so at the default order/bin settings the two paths agree to
// ~1e-5 bits — far below any edge-decision margin; the golden test in
// internal/core pins the edge sets identical.
package mi

import (
	"fmt"

	"repro/internal/simd"
)

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

// MarginalEntropy32 returns the float32-accumulated H(X_g) in bits.
func (e *Estimator) MarginalEntropy32(g int) float32 { return e.hMarginal32[g] }

// miFromJoint32 is miFromJoint on the float32 accumulator: one batched
// entropy pass over the joint (simd.EntropyDot — single-precision terms
// summed in float64, same rationale as Entropy32), MI = H(X)+H(Y)-H(X,Y)
// with the float32 marginals, clamped at zero.
func (e *Estimator) miFromJoint32(i, j int, joint []float32, total float32) float64 {
	hxy := -simd.EntropyDot(joint, 1/total)
	mi := float64(e.hMarginal32[i]) + float64(e.hMarginal32[j]) - hxy
	if mi < 0 {
		mi = 0
	}
	return mi
}

// PairVec32 is PairVec with the per-bin-pair dot products stored
// directly into the float32 joint — no widening on the store, no
// float64 in the entropy pass.
func (e *Estimator) PairVec32(i, j int, ws *Workspace) float64 {
	ws.jointClean = false
	bins := ws.bins
	rowsI := e.wm.GeneDenseRows(i)
	rowsJ := e.wm.GeneDenseRows(j)
	for u := 0; u < bins; u++ {
		ru := rowsI[u]
		out := ws.joint32[u*bins:]
		for v := 0; v < bins; v++ {
			out[v] = simd.FusedWeightedCount(ru, rowsJ[v])
		}
	}
	return e.miFromJoint32(i, j, ws.joint32, float32(e.wm.Samples))
}

// PairScalar32 is the scalar scatter kernel accumulating in float32.
func (e *Estimator) PairScalar32(i, j int, ws *Workspace) float64 {
	if !ws.jointClean {
		ws.resetJoint32()
	}
	ws.jointClean = false
	bins := ws.bins
	m := e.wm.Samples
	for s := 0; s < m; s++ {
		offI, wI := e.wm.Stencil(i, s)
		offJ, wJ := e.wm.Stencil(j, s)
		for u, a := range wI {
			row := ws.joint32[(int(offI)+u)*bins+int(offJ):]
			for v, b := range wJ {
				row[v] += a * b
			}
		}
	}
	return e.miFromJoint32(i, j, ws.joint32, float32(m))
}

// PairPermutedScalar32 is PairScalar32 with gene j's samples permuted
// through perm (weights reused, indices remapped).
func (e *Estimator) PairPermutedScalar32(i, j int, perm []int32, ws *Workspace) float64 {
	if len(perm) != e.wm.Samples {
		panic(fmt.Sprintf("mi: perm len %d != samples %d", len(perm), e.wm.Samples))
	}
	if !ws.jointClean {
		ws.resetJoint32()
	}
	ws.jointClean = false
	bins := ws.bins
	m := e.wm.Samples
	for s := 0; s < m; s++ {
		offI, wI := e.wm.Stencil(i, s)
		offJ, wJ := e.wm.Stencil(j, int(perm[s]))
		for u, a := range wI {
			row := ws.joint32[(int(offI)+u)*bins+int(offJ):]
			for v, b := range wJ {
				row[v] += a * b
			}
		}
	}
	return e.miFromJoint32(i, j, ws.joint32, float32(m))
}

// PairBlocked32 computes MI(gene i, gene j) with the single-pass
// block-scatter formulation on the float32 path. The scatter pass is
// shared verbatim with the float64 kernel (scatterBlocked); only the
// merge folds into the float32 joint — no float32→float64 widening per
// cell — and the entropy pass runs in single precision.
func (e *Estimator) PairBlocked32(i, j int, ws *Workspace) float64 {
	e.prepareRowKeys(i, ws)
	return e.pairBlocked(i, j, nil, Float32, ws)
}

// PairBlockedCut32 is PairBlockedCut on the float32 path: PairBlocked32's
// value and false, or (0, true) when the certificate proves the MI below
// cut.
func (e *Estimator) PairBlockedCut32(i, j int, cut float64, ws *Workspace) (v float64, below bool) {
	return e.pairBlockedCut(i, j, cut, Float32, ws)
}

// SweepBucketed32 is SweepBucketed on the float32 path: permutations in
// pool order, early exit on the first permuted MI >= obs, j-side rows
// streamed from a PermCache when provided.
func (e *Estimator) SweepBucketed32(i, j int, obs float64, perms [][]int32, poffs []int32, pw []float32, ws *Workspace) (evals int, survived bool) {
	return e.sweepBlocked(i, j, obs, perms, poffs, pw, nil, Float32, ws)
}

// NullBucketed32 is NullBucketed on the float32 path; each value is
// bit-identical to PairBlocked32's kernel under perms[p].
func (e *Estimator) NullBucketed32(i, j int, perms [][]int32, out []float64, ws *Workspace) {
	e.sweepBlocked(i, j, 0, perms, nil, nil, out, Float32, ws)
}

// SweepScalar32 is SweepScalar on the float32 path.
func (e *Estimator) SweepScalar32(i, j int, obs float64, perms [][]int32, ws *Workspace) (evals int, survived bool) {
	return e.sweepScalar(i, j, obs, perms, nil, Float32, ws)
}

// NullScalar32 is NullScalar on the float32 path.
func (e *Estimator) NullScalar32(i, j int, perms [][]int32, out []float64, ws *Workspace) {
	e.sweepScalar(i, j, 0, perms, out, Float32, ws)
}

// SweepVec32 is SweepVec on the float32 path: both genes' dense rows
// resolved once per sweep, per-permutation gather + dot products into
// the float32 joint, early exit on the first permuted MI >= obs.
func (e *Estimator) SweepVec32(i, j int, obs float64, perms [][]int32, ws *Workspace) (evals int, survived bool) {
	return e.sweepVec(i, j, obs, perms, nil, Float32, ws)
}

// NullVec32 is NullVec on the float32 path.
func (e *Estimator) NullVec32(i, j int, perms [][]int32, out []float64, ws *Workspace) {
	e.sweepVec(i, j, 0, perms, out, Float32, ws)
}
