package mi

import (
	"fmt"

	"repro/internal/simd"
)

// The per-permutation kernels below are the references the sweep and
// null tests compare against: each evaluates one permutation with its
// own setup and gather, the way the scan did before the sweeps batched
// them. No production path calls them.

// PairPermutedBucketed is PairBucketed with gene j's samples permuted
// through perm (weights reused, indices remapped).
func (e *Estimator) PairPermutedBucketed(i, j int, perm []int32, ws *Workspace) float64 {
	if len(perm) != e.wm.Samples {
		panic(fmt.Sprintf("mi: perm len %d != samples %d", len(perm), e.wm.Samples))
	}
	return e.pairBucketed(i, j, perm, ws)
}

// PairPermutedBlocked32 is PairBlocked32 with gene j's samples permuted
// through perm.
func (e *Estimator) PairPermutedBlocked32(i, j int, perm []int32, ws *Workspace) float64 {
	if len(perm) != e.wm.Samples {
		panic(fmt.Sprintf("mi: perm len %d != samples %d", len(perm), e.wm.Samples))
	}
	e.prepareRowKeys(i, ws)
	return e.pairBlocked(i, j, perm, Float32, ws)
}

// GatherPermuted fills ws.permuted with gene g's dense weight rows
// gathered through perm: permuted[u][s] = dense[u][perm[s]].
func (e *Estimator) GatherPermuted(g int, perm []int32, ws *Workspace) {
	if len(perm) != e.wm.Samples {
		panic(fmt.Sprintf("mi: perm len %d != samples %d", len(perm), e.wm.Samples))
	}
	rows := e.wm.GeneDenseRows(g)
	for u := range rows {
		src := rows[u]
		dst := ws.permuted[u]
		for s, p := range perm {
			dst[s] = src[p]
		}
	}
}

// PairPermutedVec computes MI(X_i, permuted X_j) with the vectorized
// kernel: one gather of gene j's rows through perm, then the
// dot-product formulation against gene i's unpermuted rows.
func (e *Estimator) PairPermutedVec(i, j int, perm []int32, ws *Workspace) float64 {
	e.GatherPermuted(j, perm, ws)
	return e.PairVecAgainstGathered(i, j, ws)
}

// PairVecAgainstGathered runs the vectorized kernel for gene i against
// whatever rows are currently gathered in ws.permuted (from a prior
// GatherPermuted call).
func (e *Estimator) PairVecAgainstGathered(i, j int, ws *Workspace) float64 {
	ws.jointClean = false
	bins := ws.bins
	rowsI := e.wm.GeneDenseRows(i)
	for u := 0; u < bins; u++ {
		ru := rowsI[u]
		out := ws.joint[u*bins:]
		for v := 0; v < bins; v++ {
			out[v] = float64(simd.FusedWeightedCount(ru, ws.permuted[v]))
		}
	}
	return e.miFromJoint(i, j, ws.joint, float64(e.wm.Samples))
}

// PairPermutedVec32 is PairPermutedVec on the float32 accumulator.
func (e *Estimator) PairPermutedVec32(i, j int, perm []int32, ws *Workspace) float64 {
	e.GatherPermuted(j, perm, ws)
	ws.jointClean = false
	bins := ws.bins
	rowsI := e.wm.GeneDenseRows(i)
	for u := 0; u < bins; u++ {
		ru := rowsI[u]
		out := ws.joint32[u*bins:]
		for v := 0; v < bins; v++ {
			out[v] = simd.FusedWeightedCount(ru, ws.permuted[v])
		}
	}
	return e.miFromJoint32(i, j, ws.joint32, float32(e.wm.Samples))
}
