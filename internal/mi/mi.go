// Package mi implements the mutual-information estimators at the heart
// of the pipeline:
//
//   - the B-spline estimator of Daub et al. (2004). Every scan runs the
//     block-scatter kernel (PairBlocked and its sweeps, sweep.go). The
//     two formulations the paper contrasts — the scalar per-sample
//     scatter-histogram kernel and the vectorized per-bin-pair
//     dot-product kernel (the Xeon Phi optimization) — stay as per-pair
//     kernels for the kernel study and as test references, beside the
//     counting-sort PairBucketed the block scatter is pinned to;
//   - permuted-pair variants that reuse the precomputed weights,
//     permuting only the sample index mapping (the paper's permutation
//     testing optimization);
//   - a plain equal-width-binning MI baseline; and
//   - the analytic MI of a bivariate Gaussian, used to validate the
//     estimators.
//
// All entropies and MI values are in bits (log base 2).
package mi

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/bspline"
	"repro/internal/simd"
)

// Entropy returns the Shannon entropy in bits of the distribution p.
// Zero entries are skipped; p is assumed non-negative and (approximately)
// normalized.
func Entropy(p []float64) float64 {
	var h float64
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log2(v)
		}
	}
	return h
}

// GaussianMI returns the exact mutual information in bits between the
// components of a bivariate Gaussian with correlation rho:
// I = -1/2 * log2(1 - rho^2).
func GaussianMI(rho float64) float64 {
	if rho <= -1 || rho >= 1 {
		return math.Inf(1)
	}
	v := -0.5 * math.Log2(1-rho*rho)
	if v == 0 {
		return 0 // normalize -0 from rho == 0
	}
	return v
}

// Estimator computes pairwise B-spline MI over a precomputed weight
// matrix. Marginal entropies are computed once at construction: the
// paper notes they are shared by all pairs and — because a marginal is a
// sum over samples — invariant under sample permutation, so permutation
// tests only recompute the joint entropy.
//
// The Estimator itself is immutable after construction and safe for
// concurrent use; per-goroutine scratch lives in Workspace.
type Estimator struct {
	wm *bspline.WeightMatrix
	// hMarginal[g] is H(X_g) in bits.
	hMarginal []float64
	// rinv[g·bins+a] is 1/p_g(a) for the float64 marginal p_g (0 where
	// p_g(a) is 0): the reciprocal marginals of the certificate
	// (certificate.go).
	rinv []float64
	// slack is the certificate slack in bits.
	slack float64
}

// NewEstimator precomputes marginal entropies for every gene.
func NewEstimator(wm *bspline.WeightMatrix) *Estimator {
	return NewEstimatorParallel(wm, 1)
}

// NewEstimatorParallel is NewEstimator with the marginal-entropy loop
// sharded over workers goroutines. Each gene's entropy is an
// independent computation into a private slot, so the result is
// identical to the serial construction for any worker count.
func NewEstimatorParallel(wm *bspline.WeightMatrix, workers int) *Estimator {
	e := &Estimator{
		wm:        wm,
		hMarginal: make([]float64, wm.Genes),
		rinv:      make([]float64, wm.Genes*wm.Basis.Bins()),
	}
	e.setSlack()
	n := wm.Genes
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		e.marginalRange(0, n)
		return e
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			e.marginalRange(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return e
}

// marginalRange fills the marginal entropies and certificate
// reciprocals of genes [lo, hi).
func (e *Estimator) marginalRange(lo, hi int) {
	for g := lo; g < hi; g++ {
		p := e.wm.Marginal(g)
		e.hMarginal[g] = Entropy(p)
		e.setReciprocals(g, p)
	}
}

// setSlack derives the certificate slack from the weight matrix's
// sample count, bins, and order.
func (e *Estimator) setSlack() {
	e.slack = certSlack(e.wm.Samples, e.wm.Basis.Bins(), e.wm.Basis.Order())
}

// WM returns the underlying weight matrix.
func (e *Estimator) WM() *bspline.WeightMatrix { return e.wm }

// Reset re-points the estimator at a (re-filled) weight matrix and
// recomputes the marginal entropies and certificate reciprocals in
// place, reusing the slices when capacity allows. The out-of-core scan
// calls it once per tile after bspline.WeightMatrix.FillPanel: the
// marginal of a gene depends only on that gene's own weights, so the
// values match the whole-genome construction bit for bit. The new
// matrix must share the old one's basis and sample count (worker
// scratch is sized to both).
func (e *Estimator) Reset(wm *bspline.WeightMatrix) {
	if e.wm != nil && (wm.Samples != e.wm.Samples || wm.Basis.Bins() != e.wm.Basis.Bins() || wm.Basis.Order() != e.wm.Basis.Order()) {
		panic("mi: Reset with incompatible weight matrix")
	}
	e.wm = wm
	n := wm.Genes
	if cap(e.hMarginal) < n {
		e.hMarginal = make([]float64, n)
	}
	if nb := n * wm.Basis.Bins(); cap(e.rinv) < nb {
		e.rinv = make([]float64, nb)
	}
	e.hMarginal = e.hMarginal[:n]
	e.rinv = e.rinv[:n*wm.Basis.Bins()]
	e.setSlack()
	e.marginalRange(0, n)
}

// MarginalEntropy returns the precomputed H(X_g) in bits.
func (e *Estimator) MarginalEntropy(g int) float64 { return e.hMarginal[g] }

// Workspace holds per-goroutine scratch buffers so the hot pair loop
// allocates nothing. A Workspace must not be shared between goroutines.
type Workspace struct {
	bins int
	// joint is the bins×bins joint distribution accumulator.
	joint []float64
	// Bucketing scratch for PairBucketed: counting-sort work arrays
	// over (b-k+1)² stencil-offset buckets. No scan runs PairBucketed,
	// so its first call allocates them.
	counts []int32
	starts []int32
	order  []int32
	// cells is the float64 entropy pass's scratch (jointEntropy): the
	// compacted nonzero cells' probabilities and their logs, 2·bins²
	// on amd64 and empty on other architectures.
	cells []float64
	// jointClean tracks the invariant "joint is all zeros". The
	// counting-sort kernel restores it before returning by clearing only
	// the blocks it touched, so consecutive calls skip the full b²
	// reset; kernels that leave residue mark the joint dirty instead
	// (the blocked and vectorized ones assign every cell, so they never
	// need it clean).
	jointClean bool
	// Sweep-kernel scratch: keyI caches gene i's bucket keys for the
	// row gene keyIGene, and blockAcc holds one float32 accumulator
	// block per (offI, offJ) bucket, in a grid padded with k-1 rows and
	// columns of blocks on every side that stay zero, so every joint
	// cell is covered by exactly k×k blocks (mergeBlocks). Bucket
	// (offI, offJ) is block (offI+k-1, offJ+k-1) of the
	// (bins+k-1)×(bins+k-1) grid. A block is k rows of blockLanes(k)
	// lanes: entry (u, v) is lane v of row u, and the lanes past k are
	// padding that the merge never reads. blockAcc is all-zero between
	// calls (same style of invariant as jointClean).
	keyI     []int32
	keyIGene int
	blockAcc []float32
	// wiBcast holds, beside keyI and under the same keyIGene, gene i's
	// stencil weights for the architecture's vector scatter, each
	// broadcast across four lanes (12 floats per sample at order 3;
	// see vecBcastLen). It is empty where no vector kernel runs.
	wiBcast []float32

	certified int64 // see Certified
}

// Certified returns the number of permutation evaluations this
// workspace's early-exit sweeps decided by the certificate
// (certificate.go), without an entropy pass. The count only grows;
// scans read it as a per-tile delta.
func (ws *Workspace) Certified() int64 { return ws.certified }

// InvalidateRowKeys drops the cached row-key gene so the next sweep
// call re-derives ws.keyI. The out-of-core scan must call it whenever
// gene indices are remapped (each tile re-fills the panel weight
// matrix with local indices, so a stale keyIGene would alias a
// different gene's keys).
func (ws *Workspace) InvalidateRowKeys() { ws.keyIGene = -1 }

// NewWorkspace allocates scratch sized for the estimator's basis and
// sample count: the float64 joint, the entropy pass's cells, and the
// block scatter's float32 accumulators.
func NewWorkspace(e *Estimator) *Workspace {
	bins := e.wm.Basis.Bins()
	k := e.wm.Basis.Order()
	m := e.wm.Samples
	return &Workspace{
		bins:       bins,
		joint:      make([]float64, bins*bins),
		cells:      make([]float64, entropyScratchLen(bins)),
		jointClean: true,
		keyI:       make([]int32, m),
		keyIGene:   -1,
		blockAcc:   make([]float32, (bins+k-1)*(bins+k-1)*k*blockLanes(k)),
		wiBcast:    make([]float32, vecBcastLen(k, m)),
	}
}

// Bytes reports the workspace's scratch footprint: the float64 joint
// and entropy cells, and the float32/int32 buffers. It is the
// per-worker term of the engines' peak-tile-bytes gauge.
func (ws *Workspace) Bytes() int {
	b := (len(ws.joint) + len(ws.cells)) * 8
	b += (len(ws.counts) + len(ws.starts) + len(ws.order) + len(ws.keyI)) * 4
	b += (len(ws.blockAcc) + len(ws.wiBcast)) * 4
	return b
}

// miFromWorkspace converts the workspace's filled (unnormalized,
// weighted-count) joint into MI = H(X) + H(Y) - H(X,Y), normalized by
// the sample count and clamped at zero: the float64 cells with
// math.Log2's values (jointEntropy, two logs per SSE2 instruction on
// amd64) and the float64 marginals.
func (e *Estimator) miFromWorkspace(i, j int, ws *Workspace) float64 {
	mi := e.hMarginal[i] + e.hMarginal[j] - ws.jointEntropy(1/float64(e.wm.Samples))
	if mi < 0 {
		// Clamp tiny negative values arising from float roundoff.
		mi = 0
	}
	return mi
}

// PairVec computes MI(gene i, gene j) with the vectorized dot-product
// formulation: for every bin pair (u,v) the joint weighted count is the
// dot product over samples of the two dense per-bin weight rows. This is
// the kernel the paper maps onto the Phi's 16-lane VPU: contiguous
// streaming loads, no scatter. No scan runs it; it reads the dense
// rows, which the weight matrix holds only after
// bspline.WeightMatrix.BuildDense (it panics otherwise).
func (e *Estimator) PairVec(i, j int, ws *Workspace) float64 {
	ws.fillDense(e.wm.GeneDenseRows(i), e.wm.GeneDenseRows(j))
	return e.miFromWorkspace(i, j, ws)
}

// fillDense assigns the joint cell (u, v) the float32 dot product of
// rowsI[u] and rowsJ[v], widened once on the store.
func (ws *Workspace) fillDense(rowsI, rowsJ [][]float32) {
	ws.jointClean = false
	bins := len(rowsJ)
	for u, ru := range rowsI {
		out := ws.joint[u*bins : (u+1)*bins]
		for v := range out {
			out[v] = float64(simd.FusedWeightedCount(ru, rowsJ[v]))
		}
	}
}

// PairScalar computes the same MI with the scalar scatter formulation:
// walk the samples once and scatter each sample's k×k outer-product
// stencil into the joint histogram. This is the paper's unvectorized
// baseline kernel (data-dependent scatter defeats SIMD); no scan runs
// it.
func (e *Estimator) PairScalar(i, j int, ws *Workspace) float64 {
	return e.PairPermutedScalar(i, j, nil, ws)
}

// PairPermutedScalar computes MI(X_i, permuted X_j) where perm maps
// sample s of gene i to sample perm[s] of gene j (nil: unpermuted).
// Weights are reused — only the pairing of stencils changes, which is
// the paper's "permute indices, not data" optimization.
func (e *Estimator) PairPermutedScalar(i, j int, perm []int32, ws *Workspace) float64 {
	if perm != nil && len(perm) != e.wm.Samples {
		panic(fmt.Sprintf("mi: perm len %d != samples %d", len(perm), e.wm.Samples))
	}
	if !ws.jointClean {
		clear(ws.joint)
	}
	ws.jointClean = false
	scatterScalar(e.wm, i, j, perm, ws.joint)
	return e.miFromWorkspace(i, j, ws)
}

// scatterScalar adds every sample's k×k stencil outer product into the
// zeroed joint, gene j's sample taken through perm when it is non-nil.
// Each product is formed in float64 from the widened float32 weights.
func scatterScalar(wm *bspline.WeightMatrix, i, j int, perm []int32, joint []float64) {
	bins := wm.Basis.Bins()
	for s := 0; s < wm.Samples; s++ {
		sj := s
		if perm != nil {
			sj = int(perm[s])
		}
		offI, wI := wm.Stencil(i, s)
		offJ, wJ := wm.Stencil(j, sj)
		for u, a := range wI {
			row := joint[(int(offI)+u)*bins+int(offJ):]
			au := float64(a)
			for v, b := range wJ {
				row[v] += au * float64(b)
			}
		}
	}
}

// PairBucketed computes MI(gene i, gene j) with the sample-bucketing
// formulation — the restructuring that makes the joint-histogram update
// vector-friendly without inflating the flop count. Samples are
// counting-sorted by their stencil-offset pair (offI, offJ); within a
// bucket every sample updates the SAME k×k histogram block, so the
// accumulators live in registers, there is no data-dependent scatter,
// and the per-sample work is a dense k×k outer-product accumulate —
// exactly the access pattern a SIMD unit (or a superscalar host core)
// executes at full rate. Total work is m·k² fused multiply-adds plus an
// O(m) bucketing pass, versus the scalar kernel's m·k² scattered
// updates. It is the counting-sort reference the block-scatter kernels
// are pinned to.
func (e *Estimator) PairBucketed(i, j int, ws *Workspace) float64 {
	return e.pairBucketed(i, j, nil, ws)
}

func (e *Estimator) pairBucketed(i, j int, perm []int32, ws *Workspace) float64 {
	k := e.wm.Basis.Order()
	bins := ws.bins
	m := e.wm.Samples
	nOff := bins - k + 1
	offs := e.wm.Offsets
	baseI := i * m
	baseJ := j * m

	// Counting sort of samples by (offI, offJ) bucket.
	if ws.order == nil {
		ws.counts = make([]int32, nOff*nOff)
		ws.starts = make([]int32, nOff*nOff+1)
		ws.order = make([]int32, m)
	}
	counts := ws.counts
	for b := range counts {
		counts[b] = 0
	}
	if perm == nil {
		for s := 0; s < m; s++ {
			counts[int(offs[baseI+s])*nOff+int(offs[baseJ+s])]++
		}
	} else {
		for s := 0; s < m; s++ {
			counts[int(offs[baseI+s])*nOff+int(offs[baseJ+int(perm[s])])]++
		}
	}
	starts := ws.starts
	var acc32 int32
	for b := range counts {
		starts[b] = acc32
		acc32 += counts[b]
	}
	starts[len(counts)] = acc32
	// Reuse counts as fill cursors.
	copy(counts, starts[:len(counts)])
	order := ws.order
	if perm == nil {
		for s := 0; s < m; s++ {
			b := int(offs[baseI+s])*nOff + int(offs[baseJ+s])
			order[counts[b]] = int32(s)
			counts[b]++
		}
	} else {
		for s := 0; s < m; s++ {
			b := int(offs[baseI+s])*nOff + int(offs[baseJ+int(perm[s])])
			order[counts[b]] = int32(s)
			counts[b]++
		}
	}

	// Per-bucket dense accumulation into a register-resident k×k block.
	// Only the occupied k×k blocks are written, so when the previous
	// call left the joint all-zero the full b² reset is skipped and the
	// blocks are re-zeroed after the entropy pass instead.
	if !ws.jointClean {
		clear(ws.joint)
	}
	occupied := 0
	sp := e.wm.Sparse
	for b := 0; b < nOff*nOff; b++ {
		lo, hi := starts[b], starts[b+1]
		if lo == hi {
			continue
		}
		occupied++
		oa := b / nOff
		ob := b % nOff
		if k == 3 {
			// The paper's configuration: fully unrolled 3×3 block.
			var a00, a01, a02, a10, a11, a12, a20, a21, a22 float32
			for _, s := range order[lo:hi] {
				si := (baseI + int(s)) * 3
				sj := baseJ + int(s)
				if perm != nil {
					sj = baseJ + int(perm[s])
				}
				sj *= 3
				wi0, wi1, wi2 := sp[si], sp[si+1], sp[si+2]
				wj0, wj1, wj2 := sp[sj], sp[sj+1], sp[sj+2]
				// Each product is rounded before its add (no fused
				// multiply-add), as in the block scatter.
				a00 += float32(wi0 * wj0)
				a01 += float32(wi0 * wj1)
				a02 += float32(wi0 * wj2)
				a10 += float32(wi1 * wj0)
				a11 += float32(wi1 * wj1)
				a12 += float32(wi1 * wj2)
				a20 += float32(wi2 * wj0)
				a21 += float32(wi2 * wj1)
				a22 += float32(wi2 * wj2)
			}
			row0 := ws.joint[oa*bins+ob:]
			row1 := ws.joint[(oa+1)*bins+ob:]
			row2 := ws.joint[(oa+2)*bins+ob:]
			row0[0] += float64(a00)
			row0[1] += float64(a01)
			row0[2] += float64(a02)
			row1[0] += float64(a10)
			row1[1] += float64(a11)
			row1[2] += float64(a12)
			row2[0] += float64(a20)
			row2[1] += float64(a21)
			row2[2] += float64(a22)
			continue
		}
		// Generic order: small k×k block on the stack.
		var block [64]float32
		kb := block[:k*k]
		for x := range kb {
			kb[x] = 0
		}
		for _, s := range order[lo:hi] {
			si := (baseI + int(s)) * k
			sj := baseJ + int(s)
			if perm != nil {
				sj = baseJ + int(perm[s])
			}
			sj *= k
			for u := 0; u < k; u++ {
				wiu := sp[si+u]
				for v := 0; v < k; v++ {
					kb[u*k+v] += float32(wiu * sp[sj+v])
				}
			}
		}
		for u := 0; u < k; u++ {
			row := ws.joint[(oa+u)*bins+ob:]
			for v := 0; v < k; v++ {
				row[v] += float64(kb[u*k+v])
			}
		}
	}
	v := e.miFromWorkspace(i, j, ws)
	// Restore the all-zero invariant: clear just the occupied blocks
	// when that beats the full b² wipe.
	if occupied*k*k < len(ws.joint) {
		for b := 0; b < nOff*nOff; b++ {
			if starts[b] == starts[b+1] {
				continue
			}
			oa := b / nOff
			ob := b % nOff
			for u := 0; u < k; u++ {
				row := ws.joint[(oa+u)*bins+ob:]
				for x := 0; x < k; x++ {
					row[x] = 0
				}
			}
		}
	} else {
		clear(ws.joint)
	}
	ws.jointClean = true
	return v
}

// PairReference is a slow float64 implementation used only in tests: it
// rebuilds stencils from the basis directly and accumulates everything
// in double precision.
func PairReference(basis *bspline.Basis, xi, xj []float32) float64 {
	if len(xi) != len(xj) {
		panic(fmt.Sprintf("mi: reference length mismatch %d vs %d", len(xi), len(xj)))
	}
	m := len(xi)
	bins, k := basis.Bins(), basis.Order()
	joint := make([]float64, bins*bins)
	pi := make([]float64, bins)
	pj := make([]float64, bins)
	wi := make([]float32, k)
	wj := make([]float32, k)
	for s := 0; s < m; s++ {
		fi := basis.Weights(float64(xi[s]), wi)
		fj := basis.Weights(float64(xj[s]), wj)
		for u := 0; u < k; u++ {
			pi[fi+u] += float64(wi[u])
			pj[fj+u] += float64(wj[u])
			for v := 0; v < k; v++ {
				joint[(fi+u)*bins+fj+v] += float64(wi[u]) * float64(wj[v])
			}
		}
	}
	inv := 1 / float64(m)
	var hx, hy, hxy float64
	for u := 0; u < bins; u++ {
		if p := pi[u] * inv; p > 0 {
			hx -= p * math.Log2(p)
		}
		if p := pj[u] * inv; p > 0 {
			hy -= p * math.Log2(p)
		}
	}
	for _, c := range joint {
		if p := c * inv; p > 0 {
			hxy -= p * math.Log2(p)
		}
	}
	mi := hx + hy - hxy
	if mi < 0 {
		mi = 0
	}
	return mi
}

// BinningMI is the plain equal-width histogram MI baseline (no spline
// smoothing): values in [0,1] are hard-assigned to bins. It is what the
// B-spline estimator degenerates to at order 1 and what naive
// implementations use. Allocates per call — hot loops should hold a
// CMIWorkspace and use BinningMIWS.
func BinningMI(xi, xj []float32, bins int) float64 {
	if bins <= 0 {
		panic("mi: BinningMI non-positive bins")
	}
	return BinningMIWS(xi, xj, NewCMIWorkspace(bins))
}
