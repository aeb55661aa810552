// Amortized permutation-sweep kernels.
//
// The per-pair permutation test is the dominant cost of a whole-genome
// scan: every surviving pair pays up to q extra MI evaluations, and the
// seed implementation re-runs the full bucketed kernel for each one — a
// fresh three-pass counting sort per permutation, with every j-side
// access paying the double indirection offs[baseJ+perm[s]].
//
// This file removes that redundancy and vectorizes what remains:
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
//   - At order 3, the default and the paper's, the scatter runs on the
//     vector unit: each block row is four float32 lanes, so on amd64 a
//     sample adds its stencil with three 4-lane SSE2 multiplies and
//     adds of gene i's weights, broadcast once per row gene beside its
//     keys, by gene j's three weights (scatter_amd64.s). Other orders,
//     other architectures and PermCache rows run the portable
//     scatterGo, which rounds every product and sum as the vector
//     lanes do, so the blocks are bit-identical whichever kernel fills
//     them.
//
// The j side is gathered through each permutation. A PermCache can
// materialize gene j's permuted rows once per tile instead, and
// SweepBucketed still streams them when given, but the scan does not
// use one: with the DPI test schedule a tile tests few pairs per
// column gene, so a miss (one gather per permutation, q·m rows) costs
// more than the hits save (EXPERIMENTS.md CT).
//
// SweepBucketed batches the q permutations of one pair behind those
// reuses while preserving the strict early-exit semantics of the
// decision procedure: permutations are evaluated in pool order and the
// sweep stops at the first permuted MI >= observed. NullBucketed is the
// same sweep without the early exit, for the pooled null. These and
// PairBlocked(Cut) are the only kernels a scan runs.
package mi

// prepareRowKeys fills ws.keyI with gene i's bucket keys: the index in
// the padded block grid (see Workspace.blockAcc) of bucket
// (offs[i·m+s], 0), to which the scatter adds gene j's offset. Where
// the vector scatter runs it also fills ws.wiBcast, gene i's weights
// broadcast across lanes. The rows are cached by gene so the row-major
// tile scan recomputes them only when the pair's i side changes.
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
	if len(ws.wiBcast) > 0 {
		for x, w := range e.wm.Sparse[3*i*m : 3*(i+1)*m] {
			r := ws.wiBcast[4*x : 4*x+4]
			r[0], r[1], r[2], r[3] = w, w, w, w
		}
	}
	ws.keyIGene = i
}

// PairBlocked computes MI(gene i, gene j) with the single-pass
// block-scatter formulation. On a float64 workspace it is
// bit-identical to PairBucketed (the partial-sum order per bucket and
// the bucket merge order match the stable counting sort exactly) while
// skipping the sort's two extra passes over the samples.
func (e *Estimator) PairBlocked(i, j int, ws *Workspace) float64 {
	e.prepareRowKeys(i, ws)
	return e.pairBlocked(i, j, nil, ws)
}

// PairBlockedCut is PairBlocked for a caller that needs the MI only
// when it reaches cut, such as the observe pass against I_α: when the
// certificate (certificate.go) proves MI(i, j) < cut, it returns
// (0, true) without the entropy pass; otherwise it returns PairBlocked's
// value and false. It certifies nothing when cut ≤ 0.
func (e *Estimator) PairBlockedCut(i, j int, cut float64, ws *Workspace) (v float64, below bool) {
	e.prepareRowKeys(i, ws)
	e.fillBlocked(i, j, nil, nil, nil, ws)
	if c, ok := e.certCut(cut, ws.prec); ok && e.certSum(i, j, ws) < c {
		return 0, true
	}
	return e.miFromWorkspace(i, j, ws), false
}

// pairBlocked is the single-pass kernel. ws.keyI must hold gene i's
// scaled bucket keys (prepareRowKeys). Gene j is gathered through perm,
// or unpermuted when perm is nil.
func (e *Estimator) pairBlocked(i, j int, perm []int32, ws *Workspace) float64 {
	e.fillBlocked(i, j, perm, nil, nil, ws)
	return e.miFromWorkspace(i, j, ws)
}

// fillBlocked is the fill half of the block-scatter kernels: the
// scatter pass, then the merge of the bucket blocks into the
// workspace's joint, which it leaves filled for miFromWorkspace or the
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
func (e *Estimator) fillBlocked(i, j int, perm, poffs []int32, pw []float32, ws *Workspace) {
	e.scatterBlocked(i, j, perm, poffs, pw, ws)
	ws.mergeBlockAcc(e.wm.Basis.Order())
}

// mergeBlockAcc merges ws.blockAcc into the joint of the workspace's
// precision and clears the blocks.
func (ws *Workspace) mergeBlockAcc(k int) {
	if ws.prec == Float32 {
		mergeBlocks(ws.blockAcc, ws.joint32, ws.bins, k)
	} else {
		mergeBlocks(ws.blockAcc, ws.joint, ws.bins, k)
	}
	// Only the bucket rows can hold sums; the border rows stay zero.
	rowLen := (ws.bins + k - 1) * k * blockLanes(k)
	clear(ws.blockAcc[(k-1)*rowLen : ws.bins*rowLen])
	ws.jointClean = false
}

// blockLanes is the lane stride of a bucket-block row: the order
// rounded up to a multiple of four float32 lanes, so that at order 3
// each row is one 128-bit vector and the scatter adds it with one
// vector multiply and one vector add (scatter_amd64.s).
func blockLanes(k int) int { return (k + 3) &^ 3 }

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
	lanes := blockLanes(k)
	size := k * lanes // floats per block
	// In the padded grid, block (a, b) holds cell (a, b) at its entry
	// (k-1, k-1); each next block along a block row holds the cell one
	// column earlier (size-1 floats on), and the next block row one row
	// earlier (stride·size - lanes floats on from the previous row's
	// first).
	rowStep := stride*size - lanes
	if k == 3 {
		for a := 0; a < bins; a++ {
			row := joint[a*bins : (a+1)*bins]
			p := a*stride*12 + 10
			for b := range row {
				q, r := p+rowStep, p+2*rowStep
				s := T(acc[p]) + T(acc[p+11]) + T(acc[p+22])
				s += T(acc[q])
				s += T(acc[q+11])
				s += T(acc[q+22])
				s += T(acc[r])
				s += T(acc[r+11])
				s += T(acc[r+22])
				row[b] = s
				p += 12
			}
		}
		return
	}
	for a := 0; a < bins; a++ {
		row := joint[a*bins : (a+1)*bins]
		for b := range row {
			var s T
			p := (a*stride+b)*size + (k-1)*lanes + k - 1
			for u := 0; u < k; u++ {
				for v := 0; v < k; v++ {
					s += T(acc[p+v*(size-1)])
				}
				p += rowStep
			}
			row[b] = s
		}
	}
}

// scatterBlocked is the scatter pass of the block-scatter kernels:
// every sample accumulates its k×k outer product into ws.blockAcc at
// the block of its (offI, offJ) bucket. The accumulator is float32 at
// both precisions, so the partial sums — and the float64 path's
// bit-identity to PairBucketed — are unaffected by which merge follows.
// Order 3 without cached rows runs the architecture's vector kernel
// when it has one (scatter_amd64.go); everything else runs the
// portable scatterGo, which computes the same sums.
func (e *Estimator) scatterBlocked(i, j int, perm, poffs []int32, pw []float32, ws *Workspace) {
	if pw == nil && e.scatterVec3(i, j, perm, ws) {
		return
	}
	e.scatterGo(i, j, perm, poffs, pw, ws)
}

// scatterGo is the portable scatter pass. Each product is rounded to
// float32 before it is added (the explicit conversions forbid a fused
// multiply-add, which the arm64 compiler would otherwise emit), so
// every block entry is the same sequence of float32 roundings on every
// architecture and in the vector kernel.
func (e *Estimator) scatterGo(i, j int, perm, poffs []int32, pw []float32, ws *Workspace) {
	k := e.wm.Basis.Order()
	m := e.wm.Samples
	wi := e.wm.Sparse[i*m*k : (i+1)*m*k]
	// Gene j's offsets and weights, read at sample perm[s] (or s), or
	// a PermCache's rows, already in permuted order.
	jo := e.wm.Offsets[j*m : (j+1)*m]
	wj := e.wm.Sparse[j*m*k : (j+1)*m*k]
	if pw != nil {
		jo, wj, perm = poffs[:m], pw[:m*k], nil
	}
	keyI := ws.keyI[:m]
	acc := ws.blockAcc
	if k == 3 {
		for s, key := range keyI {
			t := s
			if perm != nil {
				t = int(perm[s])
			}
			b := int(key+jo[t]) * 12
			x0, x1, x2 := wi[3*s], wi[3*s+1], wi[3*s+2]
			y0, y1, y2 := wj[3*t], wj[3*t+1], wj[3*t+2]
			a := acc[b : b+11 : b+11]
			a[0] += float32(x0 * y0)
			a[1] += float32(x0 * y1)
			a[2] += float32(x0 * y2)
			a[4] += float32(x1 * y0)
			a[5] += float32(x1 * y1)
			a[6] += float32(x1 * y2)
			a[8] += float32(x2 * y0)
			a[9] += float32(x2 * y1)
			a[10] += float32(x2 * y2)
		}
		return
	}
	lanes := blockLanes(k)
	size := k * lanes
	for s, key := range keyI {
		t := s
		if perm != nil {
			t = int(perm[s])
		}
		b := int(key+jo[t]) * size
		a := acc[b : b+size]
		y := wj[t*k : t*k+k]
		for u, x := range wi[s*k : s*k+k] {
			row := a[u*lanes : u*lanes+k]
			for v, yv := range y {
				row[v] += float32(x * yv)
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
// it computes is bit-identical to the block-scatter kernel under
// perms[p] (on a float64 workspace, to the counting-sort kernel); a
// permutation the certificate proves below obs is decided without its
// entropy pass (certificate.go), so the result equals the
// per-permutation loop's.
//
// It returns the number of permutations evaluated and whether the pair
// survived (obs strictly exceeded every permuted value).
func (e *Estimator) SweepBucketed(i, j int, obs float64, perms [][]int32, poffs []int32, pw []float32, ws *Workspace) (evals int, survived bool) {
	return e.sweepBlocked(i, j, obs, perms, poffs, pw, nil, ws)
}

// NullBucketed is SweepBucketed without the early exit: out[p] receives
// the MI of (i, j) under perms[p] for every p — one pooled-null pair in
// a single sweep, with gene i's row keys prepared once and gene j
// gathered through each permutation. Each value is bit-identical to the
// block-scatter kernel under perms[p]. out must hold len(perms) values.
func (e *Estimator) NullBucketed(i, j int, perms [][]int32, out []float64, ws *Workspace) {
	e.sweepBlocked(i, j, 0, perms, nil, nil, out, ws)
}

// sweepBlocked is the block-scatter sweep loop behind SweepBucketed and
// NullBucketed. With out == nil it is the early-exit permutation test;
// with out != nil it records every permuted MI and never exits early
// (obs is then ignored).
//
// In early-exit mode each permutation's joint is filled, and the
// certificate (certificate.go) decides it when the bound proves the
// permuted MI < obs; the entropy pass runs only for the rest. The
// verdicts are those of the exact values, so evals and survived are
// unchanged; ws.certified counts the certified evaluations.
func (e *Estimator) sweepBlocked(i, j int, obs float64, perms [][]int32, poffs []int32, pw []float32, out []float64, ws *Workspace) (evals int, survived bool) {
	m := e.wm.Samples
	k := e.wm.Basis.Order()
	e.prepareRowKeys(i, ws)
	cached := poffs != nil && pw != nil
	cut, armed := e.certCut(obs, ws.prec)
	armed = armed && out == nil // the null mode needs every value
	for p := range perms {
		evals++
		perm, po, pwp := perms[p], []int32(nil), []float32(nil)
		if cached {
			perm, po, pwp = nil, poffs[p*m:(p+1)*m], pw[p*m*k:(p+1)*m*k]
		}
		e.fillBlocked(i, j, perm, po, pwp, ws)
		if armed && e.certSum(i, j, ws) < cut {
			ws.certified++
			continue
		}
		v := e.miFromWorkspace(i, j, ws)
		if out != nil {
			out[p] = v
		} else if v >= obs {
			return evals, false
		}
	}
	return evals, true
}
