// Package bspline implements the B-spline basis functions used by the
// Daub et al. (2004) mutual-information estimator that TINGe — and the
// IPDPS'14 Xeon Phi paper built on it — employ.
//
// A Basis of order k over b bins defines b basis functions B_{0..b-1} on
// [0,1] via the Cox–de Boor recursion on a clamped uniform knot vector.
// For any x in [0,1] at most k consecutive basis functions are non-zero,
// they are non-negative, and they sum to exactly 1 (partition of unity).
// Evaluating a sample therefore yields a stencil of k weights plus the
// index of the first non-zero basis function — the "smeared" bin
// assignment from which weighted marginal and joint histograms are built.
//
// The paper's key reuse: weights are computed once per gene
// (O(n·m·k) total) and shared across all O(n²) pair computations and all
// permutations.
package bspline

import (
	"fmt"
	"sync"

	"repro/internal/mat"
)

// Basis is a clamped uniform B-spline basis of a given order over a
// given number of bins. It is immutable after construction and safe for
// concurrent use.
type Basis struct {
	order int // spline order k (degree k-1); k=1 is plain binning
	bins  int // number of basis functions b
	knots []float64
}

// New constructs a Basis with the given spline order and bin count.
// order must be >= 1 and bins >= order. order 1 degenerates to plain
// equal-width histogram binning; the paper uses order 3 (quadratic).
func New(order, bins int) (*Basis, error) {
	if order < 1 {
		return nil, fmt.Errorf("bspline: order %d < 1", order)
	}
	if bins < order {
		return nil, fmt.Errorf("bspline: bins %d < order %d", bins, order)
	}
	// Clamped knot vector: order copies of 0, interior knots, order
	// copies of the maximum. With b basis functions of order k we need
	// b + k knots. Interior knots are uniformly spaced so that the
	// domain [0, b-k+1] divides into b-k+1 unit spans; we evaluate on
	// [0,1] by scaling x by (b-k+1).
	nKnots := bins + order
	knots := make([]float64, nKnots)
	for i := range knots {
		switch {
		case i < order:
			knots[i] = 0
		case i >= bins:
			knots[i] = float64(bins - order + 1)
		default:
			knots[i] = float64(i - order + 1)
		}
	}
	return &Basis{order: order, bins: bins, knots: knots}, nil
}

// MustNew is New but panics on error; for use with constant parameters.
func MustNew(order, bins int) *Basis {
	b, err := New(order, bins)
	if err != nil {
		panic(err)
	}
	return b
}

// Order returns the spline order k.
func (b *Basis) Order() int { return b.order }

// Bins returns the number of basis functions.
func (b *Basis) Bins() int { return b.bins }

// scale maps x in [0,1] onto the knot domain [0, bins-order+1].
func (b *Basis) scale(x float64) float64 {
	t := x * float64(b.bins-b.order+1)
	max := float64(b.bins - b.order + 1)
	if t < 0 {
		t = 0
	}
	if t >= max {
		// Clamp just inside so the last span is used.
		t = max - 1e-9
		if t < 0 {
			t = 0
		}
	}
	return t
}

// Eval evaluates basis function i at x in [0,1] using the Cox–de Boor
// recursion directly. It is the slow reference implementation used for
// validation; hot paths use Weights.
func (b *Basis) Eval(i int, x float64) float64 {
	if i < 0 || i >= b.bins {
		panic(fmt.Sprintf("bspline: basis index %d out of range %d", i, b.bins))
	}
	return b.coxDeBoor(i, b.order, b.scale(x))
}

func (b *Basis) coxDeBoor(i, k int, t float64) float64 {
	if k == 1 {
		// Half-open spans; the final span is closed at the top via the
		// clamp in scale.
		if b.knots[i] <= t && t < b.knots[i+1] {
			return 1
		}
		// Degenerate (zero-width) spans at the clamped ends contribute 0.
		return 0
	}
	var left, right float64
	if d := b.knots[i+k-1] - b.knots[i]; d > 0 {
		left = (t - b.knots[i]) / d * b.coxDeBoor(i, k-1, t)
	}
	if d := b.knots[i+k] - b.knots[i+1]; d > 0 {
		right = (b.knots[i+k] - t) / d * b.coxDeBoor(i+1, k-1, t)
	}
	return left + right
}

// Weights computes the k non-zero basis weights at x in [0,1] using the
// iterative de Boor triangle (no recursion, no allocation beyond dst).
// It returns the index of the first non-zero basis function; dst must
// have length >= order and receives the weights for basis functions
// first..first+order-1. The weights are non-negative and sum to 1.
func (b *Basis) Weights(x float64, dst []float32) (first int) {
	if len(dst) < b.order {
		panic(fmt.Sprintf("bspline: dst len %d < order %d", len(dst), b.order))
	}
	t := b.scale(x)
	k := b.order
	// Find the knot span: the last span index j (order-1 <= j <= bins-1)
	// with knots[j] <= t < knots[j+1]. With our uniform interior knots
	// this is a direct computation.
	span := int(t) + k - 1
	if span > b.bins-1 {
		span = b.bins - 1
	}
	// de Boor's algorithm for basis function values (The NURBS Book
	// A2.2): N[0..k-1] are the values of basis functions
	// span-k+1 .. span at t.
	var n [8]float64 // order <= 8 supported without allocation
	var leftBuf, rightBuf [8]float64
	if k > 8 {
		panic(fmt.Sprintf("bspline: order %d > 8 unsupported", k))
	}
	left, right, nv := leftBuf[:k], rightBuf[:k], n[:k]
	nv[0] = 1
	for j := 1; j < k; j++ {
		left[j] = t - b.knots[span+1-j]
		right[j] = b.knots[span+j] - t
		var saved float64
		for r := 0; r < j; r++ {
			den := right[r+1] + left[j-r]
			var temp float64
			if den != 0 {
				temp = nv[r] / den
			}
			nv[r] = saved + right[r+1]*temp
			saved = left[j-r] * temp
		}
		nv[j] = saved
	}
	first = span - k + 1
	for i := 0; i < k; i++ {
		dst[i] = float32(nv[i])
	}
	return first
}

// WeightMatrix holds the precomputed B-spline weights for every gene and
// sample — the paper's central data structure. Every constructor and
// fill builds the sparse stencils: per (gene, sample), the stencil
// offset and k weights, which every MI kernel and the marginal entropy
// read. The dense per-bin layout of the dot-product kernel (mi.PairVec)
// is built only on request, by BuildDense.
type WeightMatrix struct {
	Basis   *Basis
	Genes   int
	Samples int
	// Offsets[g*Samples+s] is the first non-zero basis index for gene g,
	// sample s.
	Offsets []int32
	// Sparse[(g*Samples+s)*k + u] is weight u of the stencil.
	Sparse []float32
	// Dense is nil until BuildDense; then it is (Genes*Bins) × Samples,
	// lane-padded: row g*Bins+u holds basis u's weight for each sample
	// of gene g.
	Dense *mat.Dense
}

// Precompute evaluates the basis at every element of the expression
// matrix (values must already be normalized into [0,1]) and returns the
// packed weights. This is the O(n·m·k) precompute phase.
func Precompute(basis *Basis, expr *mat.Dense) *WeightMatrix {
	return PrecomputeParallel(basis, expr, 1)
}

// PrecomputeParallel is Precompute sharded over workers goroutines.
// Gene g only writes Offsets[g·m..] and Sparse[g·m·k..], so the gene
// ranges are disjoint and the packed weights are identical to the
// serial result for any worker count.
func PrecomputeParallel(basis *Basis, expr *mat.Dense, workers int) *WeightMatrix {
	n, m := expr.Rows(), expr.Cols()
	k := basis.Order()
	wm := &WeightMatrix{
		Basis:   basis,
		Genes:   n,
		Samples: m,
		Offsets: make([]int32, n*m),
		Sparse:  make([]float32, n*m*k),
	}
	if workers > n {
		workers = n
	}
	precomputeRange := func(lo, hi int) {
		stencil := make([]float32, k)
		for g := lo; g < hi; g++ {
			row := expr.Row(g)
			for s := 0; s < m; s++ {
				first := basis.Weights(float64(row[s]), stencil)
				wm.Offsets[g*m+s] = int32(first)
				copy(wm.Sparse[(g*m+s)*k:], stencil)
			}
		}
	}
	if workers <= 1 {
		precomputeRange(0, n)
		return wm
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			precomputeRange(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return wm
}

// NewPanelWeights allocates a WeightMatrix sized for up to maxGenes
// genes of samples samples each, for repeated reuse by FillPanel. The
// out-of-core scan keeps one per worker: every tile re-fills it with
// the tile's gene rows instead of allocating a whole-genome weight
// matrix, so the precompute footprint is O(tile), not O(n).
func NewPanelWeights(basis *Basis, maxGenes, samples int) *WeightMatrix {
	return &WeightMatrix{
		Basis:   basis,
		Genes:   0,
		Samples: samples,
		Offsets: make([]int32, maxGenes*samples),
		Sparse:  make([]float32, maxGenes*samples*basis.Order()),
	}
}

// FillPanel recomputes the weight matrix in place for the given
// normalized gene rows (local gene g is rows[g]). The arithmetic is
// exactly Precompute's — same basis.Weights stencils written to the
// same layout — so a kernel running against a filled panel with local
// indices produces bit-identical values to the resident path with
// global indices. rows must fit the capacity NewPanelWeights reserved.
func (wm *WeightMatrix) FillPanel(rows [][]float32) {
	n, m := len(rows), wm.Samples
	k := wm.Basis.Order()
	if n*m > len(wm.Offsets) {
		panic(fmt.Sprintf("bspline: panel of %d genes exceeds capacity %d", n, len(wm.Offsets)/m))
	}
	wm.Genes = n
	var stencil [8]float32
	for g := 0; g < n; g++ {
		row := rows[g]
		if len(row) != m {
			panic(fmt.Sprintf("bspline: panel row %d has %d samples, want %d", g, len(row), m))
		}
		for s := 0; s < m; s++ {
			first := wm.Basis.Weights(float64(row[s]), stencil[:k])
			wm.Offsets[g*m+s] = int32(first)
			copy(wm.Sparse[(g*m+s)*k:], stencil[:k])
		}
	}
}

// FillView recomputes the weight matrix in place as a sample-index
// view of src: view sample t is src sample idx[t], for every gene. No
// basis evaluation happens — stencil offsets and weights are
// column-gathered from src's precompute, which is what lets an
// ensemble run share one whole-genome precompute across all bootstrap
// subsamples. Gathered weights are bitwise the weights a fresh
// Precompute over the gathered normalized values would produce
// (basis.Weights is a pure function of the sample value), so kernels on
// the view are bit-identical to kernels on a from-scratch subsample
// matrix. idx must be sorted ascending with in-range entries, len(idx)
// must equal the view's Samples, and src must share the receiver's
// basis geometry; src.Genes must fit the capacity NewPanelWeights
// reserved.
func (wm *WeightMatrix) FillView(src *WeightMatrix, idx []int32) {
	n, m := src.Genes, wm.Samples
	k, bins := wm.Basis.Order(), wm.Basis.Bins()
	if len(idx) != m {
		panic(fmt.Sprintf("bspline: view of %d indices into a %d-sample matrix", len(idx), m))
	}
	if src.Basis.Order() != k || src.Basis.Bins() != bins {
		panic("bspline: FillView across basis geometries")
	}
	if n*m > len(wm.Offsets) {
		panic(fmt.Sprintf("bspline: view of %d genes exceeds capacity %d", n, len(wm.Offsets)/m))
	}
	wm.Genes = n
	mSrc := src.Samples
	for g := 0; g < n; g++ {
		for t, s := range idx {
			i, j := g*m+t, g*mSrc+int(s)
			wm.Offsets[i] = src.Offsets[j]
			copy(wm.Sparse[i*k:(i+1)*k], src.Sparse[j*k:(j+1)*k])
		}
	}
}

// PanelBytes returns the weight-matrix footprint NewPanelWeights
// allocates for maxGenes genes — the per-worker precompute term of the
// out-of-core memory budget: an int32 offset and k float32 weights per
// sample.
func PanelBytes(basis *Basis, maxGenes, samples int) int64 {
	return int64(maxGenes*samples) * 4 * int64(1+basis.Order())
}

// BuildDense builds wm.Dense from the stencils: row g·bins+u holds
// basis u's weight for every sample of gene g, zero outside the
// sample's stencil, with rows padded to 16 float32 lanes. Only the
// dot-product kernel (mi.PairVec) reads it, so no pipeline path calls
// this; a caller of PairVec calls it once before. A later FillPanel or
// FillView leaves it stale.
func (wm *WeightMatrix) BuildDense() {
	n, m := wm.Genes, wm.Samples
	k, bins := wm.Basis.Order(), wm.Basis.Bins()
	wm.Dense = mat.NewDensePadded(n*bins, m, 16)
	for g := 0; g < n; g++ {
		for s := 0; s < m; s++ {
			first, w := wm.Stencil(g, s)
			for u := 0; u < k; u++ {
				wm.Dense.Row(g*bins + int(first) + u)[s] = w[u]
			}
		}
	}
}

// GeneDenseRows returns the bins dense weight rows for gene g; row u is
// the per-sample weight of basis function u. It panics unless
// BuildDense has run.
func (wm *WeightMatrix) GeneDenseRows(g int) []([]float32) {
	if wm.Dense == nil {
		panic("bspline: dense rows not built (call BuildDense)")
	}
	bins := wm.Basis.Bins()
	rows := make([][]float32, bins)
	for u := 0; u < bins; u++ {
		rows[u] = wm.Dense.Row(g*bins + u)
	}
	return rows
}

// Stencil returns the offset and weights for gene g, sample s without
// copying.
func (wm *WeightMatrix) Stencil(g, s int) (first int32, w []float32) {
	k := wm.Basis.Order()
	i := g*wm.Samples + s
	return wm.Offsets[i], wm.Sparse[i*k : (i+1)*k]
}

// Marginal computes the weighted marginal histogram (length Bins) for
// gene g: P(u) = (1/m) * sum_s w_u(x_s). The result sums to 1.
func (wm *WeightMatrix) Marginal(g int) []float64 {
	bins := wm.Basis.Bins()
	k := wm.Basis.Order()
	m := wm.Samples
	p := make([]float64, bins)
	for s := 0; s < m; s++ {
		i := g*m + s
		off := int(wm.Offsets[i])
		w := wm.Sparse[i*k : (i+1)*k]
		for u, v := range w {
			p[off+u] += float64(v)
		}
	}
	inv := 1 / float64(m)
	for u := range p {
		p[u] *= inv
	}
	return p
}

// MarginalPermuted computes the marginal of gene g under a permutation
// of samples. Because the marginal is a sum over samples, it is
// invariant under permutation; this method exists to document and test
// that invariance cheaply.
func (wm *WeightMatrix) MarginalPermuted(g int, perm []int32) []float64 {
	// Permutation does not change a sum; delegate.
	_ = perm
	return wm.Marginal(g)
}
