// Amortized permutation-sweep kernels.
//
// The per-pair permutation test is the dominant cost of a whole-genome
// scan: every surviving pair pays up to q extra MI evaluations, and the
// seed implementation re-runs the full bucketed kernel for each one — a
// fresh three-pass counting sort per permutation, with every j-side
// access paying the double indirection offs[baseJ+perm[s]].
//
// This file removes that redundancy at three levels:
//
//   - PairBlocked is a single-pass reformulation of the bucketed
//     kernel: instead of counting-sorting samples and then accumulating
//     per-bucket blocks in registers, each sample scatters its k×k
//     stencil outer product directly into a small L1-resident array of
//     per-bucket accumulator blocks. Because the counting sort is
//     stable, both formulations add the same float32 products into the
//     same per-bucket partial sums in the same (ascending sample)
//     order; merging every bucket block into the joint histogram in
//     ascending bucket order then matches the legacy bucket loop
//     exactly (folding an untouched all-zero block adds +0.0 to cells
//     that start at +0.0, which is exact) — the results are
//     bit-identical.
//   - The i side of a pair is permutation-invariant: its bucket keys
//     offs[baseI+s]·nOff are loaded and scaled once per pair (and
//     reused across a tile row via the Workspace keyI cache), not once
//     per permutation.
//   - The j side's permuted offset and stencil-weight rows can be
//     materialized once per (gene, permutation) by a PermCache and then
//     streamed sequentially, turning the permuted evaluation's random
//     gather into a pure streaming pass shared by every row i of a
//     tile.
//
// SweepBucketed / SweepScalar / SweepVec batch the q permutations of
// one pair behind those reuses while preserving the strict early-exit
// semantics of the decision procedure: permutations are evaluated in
// pool order and the sweep stops at the first permuted MI >= observed.
package mi

import (
	"repro/internal/simd"
)

// prepareRowKeys fills ws.keyI with gene i's scaled bucket keys
// (offs[i·m+s]·nOff). The rows are cached by gene so the row-major tile
// scan recomputes them only when the pair's i side changes.
func (e *Estimator) prepareRowKeys(i int, ws *Workspace) {
	if ws.keyIGene == i {
		return
	}
	m := e.wm.Samples
	nOff := int32(ws.bins - e.wm.Basis.Order() + 1)
	offs := e.wm.Offsets[i*m : (i+1)*m]
	for s, o := range offs {
		ws.keyI[s] = o * nOff
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
	return e.pairBlocked(i, j, nil, nil, nil, ws)
}

// pairBlocked is the shared single-pass kernel. ws.keyI must hold gene
// i's scaled bucket keys (prepareRowKeys). The j side comes from, in
// priority order:
//
//   - poffs+pw: cached permuted offset and stencil-weight rows for one
//     permutation (from PermCache) — fully sequential access;
//   - perm: gather offsets and weights through the permutation;
//   - neither: the unpermuted gene j.
//
// On entry ws.blockAcc is all-zero (the invariant every call
// re-establishes before returning). No occupancy is tracked: with
// m >> nOff² the bucket grid is dense, so the merge folds every block
// unconditionally — straight-line streaming code with no per-sample
// bookkeeping — and the cleanup is a single memclr.
func (e *Estimator) pairBlocked(i, j int, perm, poffs []int32, pw []float32, ws *Workspace) float64 {
	e.fillBlocked(i, j, perm, poffs, pw, ws)
	return e.finishBlocked(i, j, ws)
}

// fillBlocked is the fill half of pairBlocked: the scatter pass, then
// the merge of every bucket block into ws.joint. It leaves the joint
// filled for finishBlocked or the certificate.
func (e *Estimator) fillBlocked(i, j int, perm, poffs []int32, pw []float32, ws *Workspace) {
	k := e.wm.Basis.Order()
	bins := ws.bins
	nOff := bins - k + 1
	acc := ws.blockAcc

	e.scatterBlocked(i, j, perm, poffs, pw, ws)

	// Merge pass: fold every bucket block into the float64 joint
	// histogram in ascending bucket order (identical to the counting
	// sort's bucket loop; untouched blocks add exact zeros), then wipe
	// the accumulator in one memclr.
	if !ws.jointClean {
		ws.resetJoint()
	}
	if k == 3 {
		for b := 0; b < nOff*nOff; b++ {
			oa := b / nOff
			ob := b % nOff
			blk := acc[b*9 : b*9+9 : b*9+9]
			row0 := ws.joint[oa*bins+ob:]
			row1 := ws.joint[(oa+1)*bins+ob:]
			row2 := ws.joint[(oa+2)*bins+ob:]
			row0[0] += float64(blk[0])
			row0[1] += float64(blk[1])
			row0[2] += float64(blk[2])
			row1[0] += float64(blk[3])
			row1[1] += float64(blk[4])
			row1[2] += float64(blk[5])
			row2[0] += float64(blk[6])
			row2[1] += float64(blk[7])
			row2[2] += float64(blk[8])
		}
	} else {
		kk := k * k
		for b := 0; b < nOff*nOff; b++ {
			oa := b / nOff
			ob := b % nOff
			blk := acc[b*kk:]
			for u := 0; u < k; u++ {
				row := ws.joint[(oa+u)*bins+ob:]
				for v := 0; v < k; v++ {
					row[v] += float64(blk[u*k+v])
				}
			}
		}
	}
	clear(acc)
	ws.jointClean = false
}

// finishBlocked is the entropy half of pairBlocked: the MI of the
// filled joint, which it then returns to all-zero.
func (e *Estimator) finishBlocked(i, j int, ws *Workspace) float64 {
	v := e.miFromJoint(i, j, ws.joint, float64(e.wm.Samples))
	ws.resetJoint()
	ws.jointClean = true
	return v
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
// it computes is bit-identical to PairPermutedBucketed(i, j, perms[p],
// ws); a permutation the Jensen certificate proves below obs is decided
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
// gathered through each permutation. Each value is bit-identical to
// PairPermutedBucketed(i, j, perms[p], ws). out must hold len(perms)
// values.
func (e *Estimator) NullBucketed(i, j int, perms [][]int32, out []float64, ws *Workspace) {
	e.sweepBlocked(i, j, 0, perms, nil, nil, out, Float64, ws)
}

// sweepBlocked is the block-scatter sweep loop behind SweepBucketed,
// NullBucketed, and their float32 counterparts. With out == nil it is
// the early-exit permutation test; with out != nil it records every
// permuted MI and never exits early (obs is then ignored).
//
// In early-exit mode each permutation's joint is filled, and the Jensen
// certificate (certificate.go) decides it when the bound proves the
// permuted MI < obs; the entropy pass runs only for the rest. The
// verdicts are those of the exact values, so evals and survived are
// unchanged; ws.certified counts the certified evaluations.
func (e *Estimator) sweepBlocked(i, j int, obs float64, perms [][]int32, poffs []int32, pw []float32, out []float64, prec Precision, ws *Workspace) (evals int, survived bool) {
	m := e.wm.Samples
	k := e.wm.Basis.Order()
	e.prepareRowKeys(i, ws)
	cached := poffs != nil && pw != nil
	var cut float64 // 0 certifies nothing: the null mode needs every value
	if out == nil {
		cut = e.certCut(obs, prec)
	}
	for p := range perms {
		evals++
		perm, po, pwp := perms[p], []int32(nil), []float32(nil)
		if cached {
			perm, po, pwp = nil, poffs[p*m:(p+1)*m], pw[p*m*k:(p+1)*m*k]
		}
		var v float64
		if prec == Float32 {
			e.fillBlocked32(i, j, perm, po, pwp, ws)
			if cut > 0 && e.jensenSum32(i, j, ws.joint32, ws.bins) < cut {
				ws.resetJoint32()
				ws.jointClean = true
				ws.certified++
				continue
			}
			v = e.finishBlocked32(i, j, ws)
		} else {
			e.fillBlocked(i, j, perm, po, pwp, ws)
			if cut > 0 && e.jensenSum(i, j, ws.joint, ws.bins) < cut {
				ws.resetJoint()
				ws.jointClean = true
				ws.certified++
				continue
			}
			v = e.finishBlocked(i, j, ws)
		}
		if out != nil {
			out[p] = v
		} else if v >= obs {
			return evals, false
		}
	}
	return evals, true
}

// SweepScalar is the scalar-kernel permutation sweep: the same
// scatter-histogram arithmetic as PairPermutedScalar, with the j-side
// stencils streamed from the cached permuted rows when available, and
// early exit on the first permuted MI >= obs.
func (e *Estimator) SweepScalar(i, j int, obs float64, perms [][]int32, poffs []int32, pw []float32, ws *Workspace) (evals int, survived bool) {
	return e.sweepScalar(i, j, obs, perms, poffs, pw, nil, Float64, ws)
}

// NullScalar is SweepScalar without the early exit (see NullBucketed);
// each value is bit-identical to PairPermutedScalar.
func (e *Estimator) NullScalar(i, j int, perms [][]int32, out []float64, ws *Workspace) {
	e.sweepScalar(i, j, 0, perms, nil, nil, out, Float64, ws)
}

// sweepScalar is the scalar sweep loop of both precisions; out has
// sweepBlocked's meaning.
func (e *Estimator) sweepScalar(i, j int, obs float64, perms [][]int32, poffs []int32, pw []float32, out []float64, prec Precision, ws *Workspace) (evals int, survived bool) {
	m := e.wm.Samples
	k := e.wm.Basis.Order()
	cached := poffs != nil && pw != nil
	for p := range perms {
		evals++
		var v float64
		switch {
		case cached && prec == Float32:
			v = e.pairScalarCached32(i, j, poffs[p*m:(p+1)*m], pw[p*m*k:(p+1)*m*k], ws)
		case cached:
			v = e.pairScalarCached(i, j, poffs[p*m:(p+1)*m], pw[p*m*k:(p+1)*m*k], ws)
		case prec == Float32:
			v = e.PairPermutedScalar32(i, j, perms[p], ws)
		default:
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

// pairScalarCached is PairPermutedScalar with the j side read from
// cached permuted offset/weight rows (identical values, sequential
// access), so the results are bit-identical.
func (e *Estimator) pairScalarCached(i, j int, poffs []int32, pw []float32, ws *Workspace) float64 {
	if !ws.jointClean {
		ws.resetJoint()
	}
	ws.jointClean = false
	bins := ws.bins
	k := e.wm.Basis.Order()
	m := e.wm.Samples
	for s := 0; s < m; s++ {
		offI, wI := e.wm.Stencil(i, s)
		offJ := poffs[s]
		wJ := pw[s*k : (s+1)*k]
		for u, a := range wI {
			row := ws.joint[(int(offI)+u)*bins+int(offJ):]
			au := float64(a)
			for v, b := range wJ {
				row[v] += au * float64(b)
			}
		}
	}
	return e.miFromJoint(i, j, ws.joint, float64(m))
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
