// Amortized permutation-sweep kernels.
//
// The per-pair permutation test is the dominant cost of a whole-genome
// scan: every surviving pair pays up to q extra MI evaluations, and the
// seed implementation re-runs the full bucketed kernel for each one — a
// fresh three-pass counting sort per permutation, with every j-side
// access paying the double indirection offs[baseJ+perm[s]].
//
// This file removes that redundancy at two levels:
//
//   - PairBlocked is a single-pass reformulation of the bucketed
//     kernel: instead of counting-sorting samples and then accumulating
//     per-bucket blocks in registers, each sample scatters its k×k
//     stencil outer product directly into a small L1-resident array of
//     per-bucket accumulator blocks. Because the counting sort is
//     stable, both formulations add the same float32 products into the
//     same per-bucket partial sums in the same (ascending sample)
//     order; summing each joint cell's block entries in ascending
//     bucket order then matches the legacy bucket loop exactly (an
//     untouched all-zero block adds +0.0 to a sum that starts at +0.0,
//     which is exact) — the results are bit-identical.
//   - The i side of a pair is permutation-invariant: its bucket keys
//     offs[baseI+s]·nOff are loaded and scaled once per pair (and
//     reused across a tile row via the Workspace keyI cache), not once
//     per permutation.
//
// The j side is gathered through each permutation. A PermCache can
// materialize gene j's permuted rows once per tile instead, and
// SweepBucketed still streams them when given, but the scan does not
// use one: with the DPI test schedule a tile tests few pairs per
// column gene, so a miss (one gather per permutation, q·m rows) costs
// more than the hits save (EXPERIMENTS.md CT).
//
// SweepBucketed / SweepScalar / SweepVec batch the q permutations of
// one pair behind those reuses while preserving the strict early-exit
// semantics of the decision procedure: permutations are evaluated in
// pool order and the sweep stops at the first permuted MI >= observed.
package mi

import (
	"repro/internal/simd"
)

// prepareRowKeys fills ws.keyI with gene i's bucket keys: the index in
// the padded block grid (see Workspace.blockAcc) of bucket
// (offs[i·m+s], 0), to which the scatter adds gene j's offset. The rows
// are cached by gene so the row-major tile scan recomputes them only
// when the pair's i side changes.
func (e *Estimator) prepareRowKeys(i int, ws *Workspace) {
	if ws.keyIGene == i {
		return
	}
	m := e.wm.Samples
	pad := int32(e.wm.Basis.Order() - 1)
	stride := int32(ws.bins) + pad
	offs := e.wm.Offsets[i*m : (i+1)*m]
	for s, o := range offs {
		ws.keyI[s] = (o+pad)*stride + pad
	}
	ws.keyIGene = i
}

// PairBlocked computes MI(gene i, gene j) with the single-pass
// block-scatter formulation. It is bit-identical to PairBucketed (the
// partial-sum order per bucket and the bucket merge order match the
// stable counting sort exactly) while skipping the sort's two extra
// passes over the samples.
func (e *Estimator) PairBlocked(i, j int, ws *Workspace) float64 {
	e.prepareRowKeys(i, ws)
	return e.pairBlocked(i, j, nil, Float64, ws)
}

// PairBlockedCut is PairBlocked for a caller that needs the MI only
// when it reaches cut, such as the observe pass against I_α: when the
// certificate (certificate.go) proves MI(i, j) < cut, it returns
// (0, true) without the entropy pass; otherwise it returns PairBlocked's
// value and false. It certifies nothing when cut ≤ 0.
func (e *Estimator) PairBlockedCut(i, j int, cut float64, ws *Workspace) (v float64, below bool) {
	return e.pairBlockedCut(i, j, cut, Float64, ws)
}

// pairBlocked is the shared single-pass kernel of both precisions.
// ws.keyI must hold gene i's scaled bucket keys (prepareRowKeys). Gene
// j is gathered through perm, or unpermuted when perm is nil.
func (e *Estimator) pairBlocked(i, j int, perm []int32, prec Precision, ws *Workspace) float64 {
	e.fillBlocked(i, j, perm, nil, nil, prec, ws)
	return e.finishBlocked(i, j, prec, ws)
}

// pairBlockedCut is PairBlockedCut at either precision.
func (e *Estimator) pairBlockedCut(i, j int, cut float64, prec Precision, ws *Workspace) (float64, bool) {
	e.prepareRowKeys(i, ws)
	e.fillBlocked(i, j, nil, nil, nil, prec, ws)
	if c, ok := e.certCut(cut, prec); ok && e.certSum(i, j, prec, ws) < c {
		return 0, true
	}
	return e.finishBlocked(i, j, prec, ws), false
}

// fillBlocked is the fill half of the block-scatter kernels: the
// scatter pass, then the merge of the bucket blocks into the joint of
// precision prec, which it leaves filled for finishBlocked or the
// certificate. The j side comes from, in priority order:
//
//   - poffs+pw: cached permuted offset and stencil-weight rows for one
//     permutation (from PermCache) — fully sequential access;
//   - perm: gather offsets and weights through the permutation;
//   - neither: the unpermuted gene j.
//
// On entry ws.blockAcc is all-zero (the invariant every call
// re-establishes before returning). No occupancy is tracked: with
// m >> nOff² the bucket grid is dense, so the merge reads every block
// unconditionally — straight-line streaming code with no per-sample
// bookkeeping — and the cleanup is a single memclr.
func (e *Estimator) fillBlocked(i, j int, perm, poffs []int32, pw []float32, prec Precision, ws *Workspace) {
	k := e.wm.Basis.Order()
	e.scatterBlocked(i, j, perm, poffs, pw, ws)
	if prec == Float32 {
		mergeBlocks(ws.blockAcc, ws.joint32, ws.bins, k)
	} else {
		mergeBlocks(ws.blockAcc, ws.joint, ws.bins, k)
	}
	// Only the bucket rows can hold sums; the border rows stay zero.
	rowLen := (ws.bins + k - 1) * k * k
	clear(ws.blockAcc[(k-1)*rowLen : ws.bins*rowLen])
	ws.jointClean = false
}

// finishBlocked is the entropy half of the block-scatter kernels: the
// MI of the filled joint at precision prec.
func (e *Estimator) finishBlocked(i, j int, prec Precision, ws *Workspace) float64 {
	if prec == Float32 {
		return e.miFromJoint32(i, j, ws.joint32, float32(e.wm.Samples))
	}
	return e.miFromJoint(i, j, ws.joint, float64(e.wm.Samples))
}

// mergeBlocks assigns each cell of the bins×bins joint the sum of the
// k×k bucket-block entries that cover it, one joint row at a time, with
// each cell's sum held in a register and stored once. A cell's entries
// are added in ascending bucket order (block row, then block column)
// onto a zero start — the order and the start of the counting sort's
// bucket loop, which adds each block into a zeroed joint — so the
// result is bit-identical to PairBucketed's joint. The grid's zero
// border blocks let every cell add exactly k² entries: a zero entry
// before a cell's first real one keeps the sum at +0, and one after
// its last leaves the sum unchanged (no entry is −0, as every block
// accumulates nonnegative products onto +0).
func mergeBlocks[T float32 | float64](acc []float32, joint []T, bins, k int) {
	stride := bins + k - 1
	kk := k * k
	// In the padded grid, block (a, b) holds cell (a, b) at its entry
	// (k-1, k-1); each next block along a block row holds the cell one
	// column earlier (kk-1 entries on), and the next block row one row
	// earlier (stride·kk - k entries on from the previous row's first).
	rowStep := stride*kk - k
	if k == 3 {
		for a := 0; a < bins; a++ {
			row := joint[a*bins : (a+1)*bins]
			p := a*stride*9 + 8
			for b := range row {
				q, r := p+rowStep, p+2*rowStep
				s := T(acc[p]) + T(acc[p+8]) + T(acc[p+16])
				s += T(acc[q])
				s += T(acc[q+8])
				s += T(acc[q+16])
				s += T(acc[r])
				s += T(acc[r+8])
				s += T(acc[r+16])
				row[b] = s
				p += 9
			}
		}
		return
	}
	for a := 0; a < bins; a++ {
		row := joint[a*bins : (a+1)*bins]
		for b := range row {
			var s T
			p := (a*stride+b)*kk + kk - 1
			for u := 0; u < k; u++ {
				for v := 0; v < k; v++ {
					s += T(acc[p+v*(kk-1)])
				}
				p += rowStep
			}
			row[b] = s
		}
	}
}

// scatterBlocked is the scatter pass shared by the float64 and float32
// block-scatter kernels: every sample accumulates its k×k outer product
// into ws.blockAcc at the block of its (offI, offJ) bucket. The
// accumulator is float32 in both precisions, so the partial sums — and
// the float64 path's bit-identity to PairBucketed — are unaffected by
// which merge follows.
func (e *Estimator) scatterBlocked(i, j int, perm, poffs []int32, pw []float32, ws *Workspace) {
	k := e.wm.Basis.Order()
	m := e.wm.Samples
	offs := e.wm.Offsets
	sp := e.wm.Sparse
	baseI := i * m
	baseJ := j * m
	keyI := ws.keyI[:m]
	acc := ws.blockAcc
	if k == 3 {
		switch {
		case pw != nil:
			si := baseI * 3
			sj := 0
			for s, pj := range poffs[:m] {
				b := int(keyI[s] + pj)
				wi0, wi1, wi2 := sp[si], sp[si+1], sp[si+2]
				wj0, wj1, wj2 := pw[sj], pw[sj+1], pw[sj+2]
				si += 3
				sj += 3
				a := acc[b*9 : b*9+9 : b*9+9]
				a[0] += wi0 * wj0
				a[1] += wi0 * wj1
				a[2] += wi0 * wj2
				a[3] += wi1 * wj0
				a[4] += wi1 * wj1
				a[5] += wi1 * wj2
				a[6] += wi2 * wj0
				a[7] += wi2 * wj1
				a[8] += wi2 * wj2
			}
		case perm != nil:
			si := baseI * 3
			for s, idx := range perm[:m] {
				pj := baseJ + int(idx)
				b := int(keyI[s] + offs[pj])
				sj := pj * 3
				wi0, wi1, wi2 := sp[si], sp[si+1], sp[si+2]
				wj0, wj1, wj2 := sp[sj], sp[sj+1], sp[sj+2]
				si += 3
				a := acc[b*9 : b*9+9 : b*9+9]
				a[0] += wi0 * wj0
				a[1] += wi0 * wj1
				a[2] += wi0 * wj2
				a[3] += wi1 * wj0
				a[4] += wi1 * wj1
				a[5] += wi1 * wj2
				a[6] += wi2 * wj0
				a[7] += wi2 * wj1
				a[8] += wi2 * wj2
			}
		default:
			si := baseI * 3
			sj := baseJ * 3
			jo := offs[baseJ : baseJ+m]
			for s := range keyI {
				b := int(keyI[s] + jo[s])
				wi0, wi1, wi2 := sp[si], sp[si+1], sp[si+2]
				wj0, wj1, wj2 := sp[sj], sp[sj+1], sp[sj+2]
				si += 3
				sj += 3
				a := acc[b*9 : b*9+9 : b*9+9]
				a[0] += wi0 * wj0
				a[1] += wi0 * wj1
				a[2] += wi0 * wj2
				a[3] += wi1 * wj0
				a[4] += wi1 * wj1
				a[5] += wi1 * wj2
				a[6] += wi2 * wj0
				a[7] += wi2 * wj1
				a[8] += wi2 * wj2
			}
		}
	} else {
		kk := k * k
		for s := 0; s < m; s++ {
			var b, sj int
			src := sp
			switch {
			case pw != nil:
				b = int(keyI[s] + poffs[s])
				sj = s * k
				src = pw
			case perm != nil:
				pj := baseJ + int(perm[s])
				b = int(keyI[s] + offs[pj])
				sj = pj * k
			default:
				b = int(keyI[s] + offs[baseJ+s])
				sj = (baseJ + s) * k
			}
			a := acc[b*kk : b*kk+kk]
			for u := 0; u < k; u++ {
				wiu := sp[(baseI+s)*k+u]
				row := a[u*k:]
				for v := 0; v < k; v++ {
					row[v] += wiu * src[sj+v]
				}
			}
		}
	}
}

// SweepBucketed runs the permutation test for pair (i, j) with the
// bucketed (block-scatter) kernel: permutations are evaluated in pool
// order with early exit on the first permuted MI >= obs. poffs and pw,
// when non-nil, are gene j's cached permuted offset and stencil-weight
// rows from a PermCache (q rows of m and m·k respectively); otherwise
// each evaluation gathers through perms[p] directly. Every permuted MI
// it computes is bit-identical to the counting-sort kernel under
// perms[p]; a permutation the certificate proves below obs is decided
// without its entropy pass (certificate.go), so the result equals the
// per-permutation loop's.
//
// It returns the number of permutations evaluated and whether the pair
// survived (obs strictly exceeded every permuted value).
func (e *Estimator) SweepBucketed(i, j int, obs float64, perms [][]int32, poffs []int32, pw []float32, ws *Workspace) (evals int, survived bool) {
	return e.sweepBlocked(i, j, obs, perms, poffs, pw, nil, Float64, ws)
}

// NullBucketed is SweepBucketed without the early exit: out[p] receives
// the MI of (i, j) under perms[p] for every p — one pooled-null pair in
// a single sweep, with gene i's row keys prepared once and gene j
// gathered through each permutation. Each value is bit-identical to the
// counting-sort kernel under perms[p]. out must hold len(perms) values.
func (e *Estimator) NullBucketed(i, j int, perms [][]int32, out []float64, ws *Workspace) {
	e.sweepBlocked(i, j, 0, perms, nil, nil, out, Float64, ws)
}

// sweepBlocked is the block-scatter sweep loop behind SweepBucketed,
// NullBucketed, and their float32 counterparts. With out == nil it is
// the early-exit permutation test; with out != nil it records every
// permuted MI and never exits early (obs is then ignored).
//
// In early-exit mode each permutation's joint is filled, and the
// certificate (certificate.go) decides it when the bound proves the
// permuted MI < obs; the entropy pass runs only for the rest. The
// verdicts are those of the exact values, so evals and survived are
// unchanged; ws.certified counts the certified evaluations.
func (e *Estimator) sweepBlocked(i, j int, obs float64, perms [][]int32, poffs []int32, pw []float32, out []float64, prec Precision, ws *Workspace) (evals int, survived bool) {
	m := e.wm.Samples
	k := e.wm.Basis.Order()
	e.prepareRowKeys(i, ws)
	cached := poffs != nil && pw != nil
	cut, armed := e.certCut(obs, prec)
	armed = armed && out == nil // the null mode needs every value
	for p := range perms {
		evals++
		perm, po, pwp := perms[p], []int32(nil), []float32(nil)
		if cached {
			perm, po, pwp = nil, poffs[p*m:(p+1)*m], pw[p*m*k:(p+1)*m*k]
		}
		e.fillBlocked(i, j, perm, po, pwp, prec, ws)
		if armed && e.certSum(i, j, prec, ws) < cut {
			ws.certified++
			continue
		}
		v := e.finishBlocked(i, j, prec, ws)
		if out != nil {
			out[p] = v
		} else if v >= obs {
			return evals, false
		}
	}
	return evals, true
}

// SweepScalar is the scalar-kernel permutation sweep: PairPermutedScalar
// per permutation in pool order, with early exit on the first permuted
// MI >= obs.
func (e *Estimator) SweepScalar(i, j int, obs float64, perms [][]int32, ws *Workspace) (evals int, survived bool) {
	return e.sweepScalar(i, j, obs, perms, nil, Float64, ws)
}

// NullScalar is SweepScalar without the early exit (see NullBucketed);
// each value is bit-identical to PairPermutedScalar.
func (e *Estimator) NullScalar(i, j int, perms [][]int32, out []float64, ws *Workspace) {
	e.sweepScalar(i, j, 0, perms, out, Float64, ws)
}

// sweepScalar is the scalar sweep loop of both precisions; out has
// sweepBlocked's meaning.
func (e *Estimator) sweepScalar(i, j int, obs float64, perms [][]int32, out []float64, prec Precision, ws *Workspace) (evals int, survived bool) {
	for p := range perms {
		evals++
		var v float64
		if prec == Float32 {
			v = e.PairPermutedScalar32(i, j, perms[p], ws)
		} else {
			v = e.PairPermutedScalar(i, j, perms[p], ws)
		}
		if out != nil {
			out[p] = v
		} else if v >= obs {
			return evals, false
		}
	}
	return evals, true
}

// SweepVec is the vectorized-kernel permutation sweep. The dense row
// sets of both genes are resolved once for the whole sweep (the seed
// path re-built them for every permutation); each permutation then
// gathers gene j's rows and runs the dot-product formulation, with
// early exit on the first permuted MI >= obs. Values are bit-identical
// to PairPermutedVec.
func (e *Estimator) SweepVec(i, j int, obs float64, perms [][]int32, ws *Workspace) (evals int, survived bool) {
	return e.sweepVec(i, j, obs, perms, nil, Float64, ws)
}

// NullVec is SweepVec without the early exit (see NullBucketed); each
// value is bit-identical to PairPermutedVec.
func (e *Estimator) NullVec(i, j int, perms [][]int32, out []float64, ws *Workspace) {
	e.sweepVec(i, j, 0, perms, out, Float64, ws)
}

// sweepVec is the vectorized sweep loop of both precisions; out has
// sweepBlocked's meaning.
func (e *Estimator) sweepVec(i, j int, obs float64, perms [][]int32, out []float64, prec Precision, ws *Workspace) (evals int, survived bool) {
	bins := ws.bins
	m := e.wm.Samples
	rowsI := e.wm.GeneDenseRows(i)
	rowsJ := e.wm.GeneDenseRows(j)
	for p := range perms {
		evals++
		perm := perms[p]
		for u := range rowsJ {
			src := rowsJ[u]
			dst := ws.permuted[u]
			for s, idx := range perm {
				dst[s] = src[idx]
			}
		}
		ws.jointClean = false
		var v float64
		if prec == Float32 {
			for u := 0; u < bins; u++ {
				ru := rowsI[u]
				row := ws.joint32[u*bins:]
				for x := 0; x < bins; x++ {
					row[x] = simd.FusedWeightedCount(ru, ws.permuted[x])
				}
			}
			v = e.miFromJoint32(i, j, ws.joint32, float32(m))
		} else {
			for u := 0; u < bins; u++ {
				ru := rowsI[u]
				row := ws.joint[u*bins:]
				for x := 0; x < bins; x++ {
					row[x] = float64(simd.FusedWeightedCount(ru, ws.permuted[x]))
				}
			}
			v = e.miFromJoint(i, j, ws.joint, float64(m))
		}
		if out != nil {
			out[p] = v
		} else if v >= obs {
			return evals, false
		}
	}
	return evals, true
}
