package mi

import "fmt"

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

// GatherPermuted returns gene g's dense weight rows gathered through
// perm into fresh rows: rows[u][s] = dense[u][perm[s]].
func (e *Estimator) GatherPermuted(g int, perm []int32) [][]float32 {
	if len(perm) != e.wm.Samples {
		panic(fmt.Sprintf("mi: perm len %d != samples %d", len(perm), e.wm.Samples))
	}
	src := e.wm.GeneDenseRows(g)
	rows := make([][]float32, len(src))
	for u, from := range src {
		rows[u] = make([]float32, len(perm))
		for s, p := range perm {
			rows[u][s] = from[p]
		}
	}
	return rows
}

// PairPermutedVec computes MI(X_i, permuted X_j) with the vectorized
// kernel: one gather of gene j's rows through perm, then the
// dot-product formulation against gene i's unpermuted rows.
func (e *Estimator) PairPermutedVec(i, j int, perm []int32, ws *Workspace) float64 {
	return e.PairVecAgainstGathered(i, j, e.GatherPermuted(j, perm), ws)
}

// PairVecAgainstGathered runs the vectorized kernel for gene i against
// gene j's rows already gathered (by GatherPermuted).
func (e *Estimator) PairVecAgainstGathered(i, j int, rowsJ [][]float32, ws *Workspace) float64 {
	ws.fillDense(e.wm.GeneDenseRows(i), rowsJ)
	return e.miFromWorkspace(i, j, ws)
}
