package grn

// This file is the DPI test schedule: which threshold survivors the
// permutation test must decide so that DPI over the tested edges that
// pass equals DPI over every survivor that would pass. ARACNE removes
// an edge once one triangle of two stronger passing edges explains it,
// so the test of an edge such a triangle already removes cannot change
// the network.

import (
	"cmp"
	"fmt"
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
// The first DPI round builds a CSR adjacency of the survivors with the
// filter's buildAdjStore (32 B per survivor), later rounds reuse it,
// and the fixpoint drops it. It is always resident, whatever budget
// the scan runs under: the walk visits survivors by MI, not by gene,
// so a spilled adjacency would be re-read on nearly every step, and
// the survivor list it indexes is resident anyway. Between rounds the
// schedule also keeps one flag per survivor, set once the survivor's
// outcome can no longer change (a candidate of two passed edges, or
// every candidate holding a failed edge), and later rounds skip those
// survivors. Every requested survivor must be decided before the next
// round.
type TestSchedule struct {
	n       int
	edges   []Edge
	dpi     bool
	tol     float64
	settled []bool
	adj     *adjStore
}

// NewTestSchedule starts the schedule over survivors edges, with DPI
// at tolerance tol (ignored without DPI).
func NewTestSchedule(n int, edges []Edge, dpi bool, tol float64) (*TestSchedule, error) {
	if dpi && (tol < 0 || tol >= 1) {
		return nil, fmt.Errorf("grn: DPI tolerance %v out of [0,1)", tol)
	}
	return &TestSchedule{n: n, edges: edges, dpi: dpi, tol: tol, settled: make([]bool, len(edges))}, nil
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
	var order []int32
	for x, v := range verdicts {
		if v != Failed && !s.settled[x] {
			order = append(order, int32(x))
		}
	}
	if len(order) == 0 {
		s.adj = nil
		return nil, nil
	}
	if s.adj == nil {
		if s.adj, err = buildAdjStore(s.n, edges, FilterOpts{}, 1); err != nil {
			return nil, err
		}
	}
	st := s.adj
	slices.SortFunc(order, func(a, b int32) int {
		ea, eb := edges[a], edges[b]
		if c := cmp.Compare(eb.Weight, ea.Weight); c != 0 {
			return c
		}
		if c := cmp.Compare(ea.I, eb.I); c != 0 {
			return c
		}
		return cmp.Compare(ea.J, eb.J)
	})
	status := slices.Clone(verdicts)
	scale := 1 - s.tol

	request := func(x int32) {
		if status[x] == Untested {
			status[x] = requested
			out = append(out, x)
		}
	}
	for _, x := range order {
		e := edges[x]
		i, j, w := e.I, e.J, e.Weight
		si, sj := st.shards[i/st.rows], st.shards[j/st.rows]
		a, az := si.row(i)
		b, bz := sj.row(j)
		covered := false
		best, bestUnknown := [2]int32{-1, -1}, 3
		for a < az && b < bz && !covered {
			k := int(si.nbr[a])
			if kj := int(sj.nbr[b]); k != kj {
				if k < kj {
					a++
				} else {
					b++
				}
				continue
			}
			wik, wjk := si.wt[a], sj.wt[b]
			var loses bool
			switch {
			case k < i:
				loses = dpiLoser(wik, wjk, w, scale) == 2
			case k < j:
				loses = dpiLoser(wik, w, wjk, scale) == 1
			default:
				loses = dpiLoser(w, wik, wjk, scale) == 0
			}
			if loses {
				ik, jk := si.eid[a], sj.eid[b]
				if status[ik] != Failed && status[jk] != Failed {
					unknown := 0
					if status[ik] == Untested {
						unknown++
					}
					if status[jk] == Untested {
						unknown++
					}
					covered = unknown == 0
					if unknown < bestUnknown {
						best, bestUnknown = [2]int32{ik, jk}, unknown
					}
				}
			}
			a++
			b++
		}
		switch {
		case covered:
			s.settled[x] = status[best[0]] == Passed && status[best[1]] == Passed
		case best[0] >= 0:
			request(best[0])
			request(best[1])
		default:
			request(x)
			s.settled[x] = true
		}
	}
	if len(out) == 0 {
		s.adj = nil // the fixpoint: no later round reads it
	}
	return out, nil
}
