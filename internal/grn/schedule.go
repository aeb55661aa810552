package grn

// This file is the DPI test schedule: which threshold survivors the
// permutation test must decide so that DPI over the tested edges that
// pass equals DPI over every survivor that would pass. ARACNE removes
// an edge once one triangle of two stronger passing edges explains it,
// so the test of an edge such a triangle already removes cannot change
// the network.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Verdict is the permutation-test outcome of one threshold survivor.
type Verdict uint8

// Verdicts.
const (
	// Untested: the survivor's permutation test has not run.
	Untested Verdict = iota
	// Passed: the observed MI strictly exceeded every permuted MI.
	Passed
	// Failed: some permuted MI reached the observed MI.
	Failed
	// requested marks a survivor requested earlier in the current
	// schedule round; it never leaves TestSchedule.Next.
	requested
)

// dpiLoser is the DPI rule for one triangle with vertices a < b < c:
// the edge that loses — 0 for (a,b), 1 for (a,c), 2 for (b,c), -1 for
// none. An edge loses when it is weaker than both others by the
// tolerance factor scale = 1-tol. For non-negative weights at most one
// case holds; the fixed order decides the rest.
func dpiLoser(wab, wac, wbc, scale float64) int {
	switch {
	case wab < wac*scale && wab < wbc*scale:
		return 0
	case wac < wab*scale && wac < wbc*scale:
		return 1
	case wbc < wab*scale && wbc < wac*scale:
		return 2
	}
	return -1
}

// TestSchedule decides which threshold survivors of an n-gene scan
// (edge id = position in the survivor list) need their permutation
// test, one round at a time: Next takes every survivor's verdict so
// far and returns the untested survivors to test next, each at most
// once over all rounds; an empty round is the fixpoint. Without DPI
// the first round requests every survivor.
//
// With DPI, a candidate of survivor e is a triangle of survivors in
// which the DPI rule at tolerance tol removes e. A round walks the
// survivors that have not failed by descending weight, ties broken by
// (I, J), and requests for each survivor e:
//
//   - nothing, if a candidate holds only passed or requested edges;
//   - otherwise the untested edges of the candidate with the fewest of
//     them and no failed edge (the first by ascending third vertex);
//   - otherwise, when every candidate holds a failed edge, e itself.
//
// At the fixpoint every survivor that has not failed either has a
// candidate of two passed edges, or was tested and every candidate
// holds a failed edge. DPI over the passed edges then equals DPI over
// every survivor that would pass: an edge the full set keeps cannot
// have a candidate of passing edges, so it was tested and passed, and
// an edge that passed and survives DPI over the passed edges has no
// candidate without a failed edge, so the full set keeps it too. The
// walk order only decides how many survivors are tested.
//
// The first DPI round builds the walk state (scheduleWalk), later
// rounds reuse it, and the fixpoint drops it: every survivor sorted
// once into the walk order (28 B per survivor), a table of the
// survivor id of each gene pair (4 B per pair of genes), and two
// bitsets of n rows of ⌈n/64⌉ words. At n = 1,000 genes the table is
// 2.0 MB and the bitsets 0.26 MB; the table is smaller than a 32 B
// per survivor adjacency once more than one pair in eight survives the
// threshold. It is always resident, whatever budget the scan runs
// under: the walk visits survivors by MI, not by gene, so a spilled
// table would be re-read on nearly every step, and the survivor list
// it indexes is resident anyway. Between rounds the schedule also
// keeps one flag per survivor, set once the survivor's outcome can no
// longer change (a candidate of two passed edges, or every candidate
// holding a failed edge), and later rounds skip those survivors. Every
// requested survivor must be decided before the next round.
type TestSchedule struct {
	n       int
	edges   []Edge
	dpi     bool
	tol     float64
	settled []bool
	walk    *scheduleWalk
}

// NewTestSchedule starts the schedule over survivors edges, with DPI
// at tolerance tol (ignored without DPI).
func NewTestSchedule(n int, edges []Edge, dpi bool, tol float64) (*TestSchedule, error) {
	if dpi && (tol < 0 || tol >= 1) {
		return nil, fmt.Errorf("grn: DPI tolerance %v out of [0,1)", tol)
	}
	return &TestSchedule{n: n, edges: edges, dpi: dpi, tol: tol, settled: make([]bool, len(edges))}, nil
}

// scheduleWalk is the DPI walk state of a TestSchedule.
//
// A round activates survivors in walk order ahead of the survivor it
// visits: before visiting x of weight w it activates every survivor f
// not yet activated with w < f.Weight·scale, scale = 1-tol. Products
// with scale keep the walk's weight order, so the activated survivors
// are a prefix of it, and at x's visit they are exactly those with
// w < f.Weight·scale. The two bitsets hold one row of n bits per gene:
// bit k of row i is set in act when the survivor joining genes i and k
// is activated and has not failed, and in known when it is activated
// and has passed or been requested.
//
// When every weight is ≥ 0, the triangle (i, j, k) removes survivor
// x = (i, j) exactly when both (i, k) and (j, k) are activated. The
// DPI rule removes x when its weight w is below both other weights
// times scale and no earlier case of dpiLoser's fixed order fires
// first. An earlier case would remove an edge q of weight w_q ≥ 0 for
// which w_q < fl(w·scale) and w < fl(w_q·scale), where fl rounds to
// float64. Rounding is monotone and scale ≤ 1, so fl(v·scale) ≤ v for
// every v ≥ 0, and then w_q < fl(w·scale) ≤ w < fl(w_q·scale) ≤ w_q,
// which cannot hold. So a round reads every candidate of x off the
// bitsets, in ascending k: the first k in known[i] & known[j] is a
// candidate of only passed or requested edges (x is settled when both
// passed); the first in known[i]&act[j] | act[i]&known[j] holds one
// untested edge; and the first in act[i] & act[j] holds two. A weight
// below zero or NaN breaks the argument, so a walk over such weights
// confirms each bit with dpiLoser before taking it. Every candidate is
// still among the bits: dpiLoser removes x only when w is below both
// other weights times scale.
type scheduleWalk struct {
	n int
	// order holds every survivor, failed ones included, by descending
	// weight, ties broken by (I, J); rank[x] is survivor x's position.
	order []walkEntry
	rank  []int32
	// pair[pairIndex(n, a, b)] is the survivor joining genes a < b, or
	// -1 for none.
	pair []int32
	// words is ⌈n/64⌉, the length of a bitset row.
	words      int
	act, known []uint64
	// confirm is set when a weight is negative or NaN.
	confirm bool
}

// walkEntry is one survivor in walk order: its id and endpoints and
// weight, beside it so the walk reads memory in sequence.
type walkEntry struct {
	id, i, j int32
	w        float64
}

// pairIndex is the position of genes a < b in the row-major strict
// upper triangle of an n-gene matrix.
func pairIndex(n, a, b int) int { return a*(2*n-a-1)/2 + b - a - 1 }

// newScheduleWalk builds the walk state of survivors edges over n
// genes. A survivor that is not a gene pair i < j of the n genes, or a
// pair that two survivors join, is an error.
func newScheduleWalk(n int, edges []Edge) (*scheduleWalk, error) {
	if len(edges) > math.MaxInt32 {
		return nil, fmt.Errorf("grn: %d survivors exceed the schedule's int32 id space", len(edges))
	}
	words := (n + 63) / 64
	wk := &scheduleWalk{
		n:     n,
		order: make([]walkEntry, len(edges)),
		rank:  make([]int32, len(edges)),
		pair:  make([]int32, n*(n-1)/2),
		words: words,
		act:   make([]uint64, n*words),
		known: make([]uint64, n*words),
	}
	for p := range wk.pair {
		wk.pair[p] = -1
	}
	for x, e := range edges {
		if e.I < 0 || e.I >= e.J || e.J >= n {
			return nil, fmt.Errorf("grn: survivor %d joins genes (%d, %d), not a pair i < j of %d genes", x, e.I, e.J, n)
		}
		p := pairIndex(n, e.I, e.J)
		if y := wk.pair[p]; y >= 0 {
			return nil, fmt.Errorf("grn: survivors %d and %d both join genes (%d, %d)", y, x, e.I, e.J)
		}
		wk.pair[p] = int32(x)
		if !(e.Weight >= 0) {
			wk.confirm = true
		}
	}
	// The pair table lists the survivors in (I, J) order; a stable sort
	// by descending weight then breaks ties by (I, J).
	p := 0
	for _, x := range wk.pair {
		if x >= 0 {
			e := edges[x]
			wk.order[p] = walkEntry{id: x, i: int32(e.I), j: int32(e.J), w: e.Weight}
			p++
		}
	}
	sortByWeight(wk.order)
	for p, f := range wk.order {
		wk.rank[f.id] = int32(p)
	}
	return wk, nil
}

// weightKey maps weights to keys whose ascending order is cmp.Compare's
// descending order: ±0 share a key, and every NaN takes the largest.
func weightKey(w float64) uint64 {
	switch {
	case w != w:
		return math.MaxUint64
	case w == 0:
		w = 0
	}
	b := math.Float64bits(w)
	if b>>63 != 0 {
		return b
	}
	return ^(b | 1<<63)
}

// sortByWeight sorts the walk entries stably by weightKey: a
// least-significant-digit radix sort, one byte of the key per pass.
func sortByWeight(order []walkEntry) {
	if len(order) < 2 {
		return
	}
	src, dst := order, make([]walkEntry, len(order))
	for shift := 0; shift < 64; shift += 8 {
		var start [257]int
		for _, f := range src {
			start[int(byte(weightKey(f.w)>>shift))+1]++
		}
		if start[int(byte(weightKey(src[0].w)>>shift))+1] == len(src) {
			continue // every key has this byte: the pass keeps the order
		}
		for b := 1; b < len(start); b++ {
			start[b] += start[b-1]
		}
		for _, f := range src {
			d := byte(weightKey(f.w) >> shift)
			dst[start[d]] = f
			start[d]++
		}
		src, dst = dst, src
	}
	copy(order, src)
}

// survivor returns the id of the survivor joining genes a != b.
func (wk *scheduleWalk) survivor(a, b int) int32 {
	if a > b {
		a, b = b, a
	}
	return wk.pair[pairIndex(wk.n, a, b)]
}

// set sets the bits of survivor f's gene pair in the bitset rows.
func (wk *scheduleWalk) set(rows []uint64, f walkEntry) {
	i, j := int(f.i), int(f.j)
	rows[i*wk.words+j>>6] |= 1 << (j & 63)
	rows[j*wk.words+i>>6] |= 1 << (i & 63)
}

// activate sets the bits of survivor f, whose status is v.
func (wk *scheduleWalk) activate(f walkEntry, v Verdict) {
	if v == Failed {
		return
	}
	wk.set(wk.act, f)
	if v != Untested {
		wk.set(wk.known, f)
	}
}

// loses reports whether the triangle (i, j, k) removes survivor
// x = (i, j) of weight w under the DPI rule, given that both other
// edges are survivors.
func (wk *scheduleWalk) loses(edges []Edge, i, j, k int, w, scale float64) bool {
	wik, wjk := edges[wk.survivor(i, k)].Weight, edges[wk.survivor(j, k)].Weight
	switch {
	case k < i:
		return dpiLoser(wik, wjk, w, scale) == 2
	case k < j:
		return dpiLoser(wik, w, wjk, scale) == 1
	}
	return dpiLoser(w, wik, wjk, scale) == 0
}

// candidate returns the first third vertex k, by ascending k, of the
// candidates of survivor x = (i, j) of weight w with the fewest
// untested edges, and that count; k is -1 when no candidate is free
// of failed edges.
func (wk *scheduleWalk) candidate(edges []Edge, i, j int, w, scale float64) (k, unknown int) {
	ai, aj := wk.act[i*wk.words:(i+1)*wk.words], wk.act[j*wk.words:(j+1)*wk.words]
	ki, kj := wk.known[i*wk.words:(i+1)*wk.words], wk.known[j*wk.words:(j+1)*wk.words]
	// first is the lowest k of mask in word b that is a candidate.
	first := func(b int, mask uint64) int {
		for ; mask != 0; mask &= mask - 1 {
			k := b<<6 | bits.TrailingZeros64(mask)
			if !wk.confirm || wk.loses(edges, i, j, k, w, scale) {
				return k
			}
		}
		return -1
	}
	k, unknown = -1, 3
	for b := range ai {
		if m := ki[b] & kj[b]; m != 0 {
			if c := first(b, m); c >= 0 {
				return c, 0
			}
		}
		if m := ki[b]&aj[b] | ai[b]&kj[b]; unknown > 1 && m != 0 {
			if c := first(b, m); c >= 0 {
				k, unknown = c, 1
				continue
			}
		}
		if m := ai[b] & aj[b]; unknown > 2 && m != 0 {
			if c := first(b, m); c >= 0 {
				k, unknown = c, 2
			}
		}
	}
	return k, unknown
}

// Next runs one round over the survivors' verdicts so far.
func (s *TestSchedule) Next(verdicts []Verdict) (out []int32, err error) {
	edges := s.edges
	if len(verdicts) != len(edges) {
		return nil, fmt.Errorf("grn: %d verdicts for %d survivors", len(verdicts), len(edges))
	}
	if !s.dpi {
		for x, v := range verdicts {
			if v == Untested {
				out = append(out, int32(x))
			}
		}
		return out, nil
	}
	open := false
	for x, v := range verdicts {
		if v != Failed && !s.settled[x] {
			open = true
			break
		}
	}
	if !open {
		s.walk = nil
		return nil, nil
	}
	if s.walk == nil {
		if s.walk, err = newScheduleWalk(s.n, edges); err != nil {
			return nil, err
		}
	}
	wk := s.walk
	clear(wk.act)
	clear(wk.known)
	status := slices.Clone(verdicts)
	scale := 1 - s.tol
	next := 0 // wk.order[:next] is activated

	request := func(x int32) {
		if status[x] == Untested {
			status[x] = requested
			out = append(out, x)
			if p := wk.rank[x]; int(p) < next {
				wk.set(wk.known, wk.order[p])
			}
		}
	}
	for _, x := range wk.order {
		if status[x.id] == Failed || s.settled[x.id] {
			continue
		}
		for next < len(wk.order) && x.w < wk.order[next].w*scale {
			f := wk.order[next]
			wk.activate(f, status[f.id])
			next++
		}
		i, j := int(x.i), int(x.j)
		switch k, unknown := wk.candidate(edges, i, j, x.w, scale); {
		case unknown == 0:
			s.settled[x.id] = status[wk.survivor(i, k)] == Passed && status[wk.survivor(j, k)] == Passed
		case k >= 0:
			request(wk.survivor(i, k))
			request(wk.survivor(j, k))
		default:
			request(x.id)
			s.settled[x.id] = true
		}
	}
	if len(out) == 0 {
		s.walk = nil // the fixpoint: no later round reads it
	}
	return out, nil
}
