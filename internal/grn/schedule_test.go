package grn

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// scheduleCase decodes a fuzz input into a survivor graph over n <= 16
// genes, a DPI tolerance and a verdict oracle. Each graph byte decides
// one pair in (i, j) order: absent, or present with a weight from a
// small set with many ties, zero, and tiny negative values.
func scheduleCase(nb, tolMode uint8, tolRaw float64, failRate uint8, seed uint64, graph []byte) (n int, edges []Edge, tol float64, pass func(x int) bool) {
	n = 2 + int(nb%15)
	p := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if p >= len(graph) {
				break
			}
			b := graph[p]
			p++
			if b%4 == 0 {
				continue
			}
			var w float64
			switch v := b >> 2; v {
			case 0:
				w = 0
			case 1:
				w = -1e-15
			case 2:
				w = -3e-16
			default:
				w = float64(v%16)/8 + float64(v/16)*1e-9
			}
			edges = append(edges, Edge{I: i, J: j, Weight: w})
		}
	}
	switch tolMode % 3 {
	case 1:
		tol = 0.1
	case 2:
		tol = math.Abs(tolRaw)
		if math.IsNaN(tol) || math.IsInf(tol, 0) {
			tol = 0.5
		}
		tol -= math.Floor(tol)
	}
	pass = func(x int) bool {
		h := seed ^ uint64(x+1)*0x9E3779B97F4A7C15
		h ^= h >> 31
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 29
		return uint8(h) >= failRate
	}
	return n, edges, tol, pass
}

// FuzzDPITestSchedule pins the test schedule to ARACNE's rule over the
// full tested set: for random survivor graphs, tolerances and verdict
// oracles, the rounds reach a fixpoint within |R| requests, never
// request a survivor twice or request a decided one, build the walk
// state once and drop it at the fixpoint, and DPIParallel over the
// passed requested edges equals Network.DPI over every survivor that
// passes, edge for edge and in weight bits.
func FuzzDPITestSchedule(f *testing.F) {
	f.Add(uint8(4), uint8(0), 0.0, uint8(0), uint64(1), []byte{0xF1, 0x21, 0x11, 0xE1, 0x31, 0x41})
	f.Add(uint8(6), uint8(1), 0.0, uint8(128), uint64(2), []byte{0xFD, 0xF1, 0xE5, 0x05, 0x09, 0xC1, 0x81, 0x41, 0x45, 0x49, 0x4D, 0x51, 0x55, 0x59, 0x5D})
	f.Add(uint8(14), uint8(2), 0.37, uint8(40), uint64(3), []byte("survivors of the pooled null threshold, with ties"))
	f.Add(uint8(8), uint8(0), 0.0, uint8(255), uint64(4), []byte{5, 5, 5, 5, 5, 5, 5, 5, 9, 9, 9, 9, 9, 9, 9, 9, 13, 13, 13})
	f.Add(uint8(9), uint8(2), -2.75, uint8(200), uint64(5), []byte{7, 6, 5, 255, 254, 253, 7, 6, 5, 255, 254, 253, 1, 2, 3})
	// A survivor that passed its own test still needs a candidate
	// triangle of passing edges: a schedule that skipped tested survivors
	// keeps an edge here that DPI over every passing survivor removes.
	f.Add(uint8('e'), uint8(0), 0.0, uint8('#'), uint64(31), []byte("011111111111A01\v1110110101A1Y"))
	f.Fuzz(func(t *testing.T, nb, tolMode uint8, tolRaw float64, failRate uint8, seed uint64, graph []byte) {
		n, edges, tol, pass := scheduleCase(nb, tolMode, tolRaw, failRate, seed, graph)
		verdicts := make([]Verdict, len(edges))

		plain, err := NewTestSchedule(n, edges, false, tol)
		if err != nil {
			t.Fatal(err)
		}
		if all, err := plain.Next(verdicts); err != nil || len(all) != len(edges) {
			t.Fatalf("without DPI: %d of %d survivors requested, err %v", len(all), len(edges), err)
		}

		sched, err := NewTestSchedule(n, edges, true, tol)
		if err != nil {
			t.Fatal(err)
		}
		requests := 0
		var walk *scheduleWalk
		for round := 1; ; round++ {
			req, err := sched.Next(verdicts)
			if err != nil {
				t.Fatal(err)
			}
			// The flags a schedule keeps between rounds only skip work: a
			// fresh schedule requests the same survivors.
			fresh, _ := NewTestSchedule(n, edges, true, tol)
			if again, _ := fresh.Next(verdicts); !slices.Equal(again, req) {
				t.Fatalf("round %d requested %v, a fresh schedule %v", round, req, again)
			}
			if len(req) == 0 {
				if sched.walk != nil {
					t.Fatalf("round %d: the fixpoint kept the walk state", round)
				}
				break
			}
			if sched.walk == nil || walk != nil && sched.walk != walk {
				t.Fatalf("round %d: walk state %p after round %d's %p; want one built once per scan", round, sched.walk, round-1, walk)
			}
			walk = sched.walk
			for _, x := range req {
				if verdicts[x] != Untested {
					t.Fatalf("round %d requested survivor %d again (verdict %d)", round, x, verdicts[x])
				}
				verdicts[x] = Failed
				if pass(int(x)) {
					verdicts[x] = Passed
				}
			}
			if requests += len(req); requests > len(edges) {
				t.Fatalf("%d requests for %d survivors", requests, len(edges))
			}
		}

		tested, full := New(n), New(n)
		for x, e := range edges {
			if verdicts[x] == Passed {
				tested.AddEdge(e.I, e.J, e.Weight)
			}
			if pass(x) {
				full.AddEdge(e.I, e.J, e.Weight)
			}
		}
		got, _, err := tested.DPIParallel(FilterOpts{Tolerance: tol, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		want := full.DPI(tol)
		ge, we := got.Edges(), want.Edges()
		if len(ge) != len(we) {
			t.Fatalf("tol %v: %d edges from %d tested, full DPI keeps %d of %d", tol, len(ge), requests, len(we), full.Len())
		}
		for x := range ge {
			if ge[x].I != we[x].I || ge[x].J != we[x].J || math.Float64bits(ge[x].Weight) != math.Float64bits(we[x].Weight) {
				t.Fatalf("tol %v: edge %d = %+v, full DPI %+v", tol, x, ge[x], we[x])
			}
		}
	})
}

// TestScheduleSkipsExplainedEdges: in a triangle with two strong
// edges, the weak edge is never tested once the strong ones pass, and
// it is tested when one of them fails.
func TestScheduleSkipsExplainedEdges(t *testing.T) {
	edges := []Edge{{0, 1, 1.0}, {0, 2, 1.0}, {1, 2, 0.2}}
	round := func(verdicts ...Verdict) []int32 {
		t.Helper()
		s, err := NewTestSchedule(3, edges, true, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		req, err := s.Next(verdicts)
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	if req := round(Untested, Untested, Untested); !slices.Equal(req, []int32{0, 1}) {
		t.Fatalf("first round requested %v, want the two strong edges [0 1]", req)
	}
	if req := round(Passed, Passed, Untested); len(req) != 0 {
		t.Fatalf("explained edge requested: %v", req)
	}
	if req := round(Passed, Failed, Untested); !slices.Equal(req, []int32{2}) {
		t.Fatalf("after a strong edge failed, requested %v, want [2]", req)
	}
	s, _ := NewTestSchedule(3, edges, true, 0.1)
	if _, err := s.Next(make([]Verdict, 2)); err == nil {
		t.Fatal("verdict length mismatch accepted")
	}
	if _, err := NewTestSchedule(3, edges, true, 1); err == nil {
		t.Fatal("tolerance 1 accepted")
	}
}

// referenceSchedule is the walk TestSchedule ran before its bitset walk
// state: for each survivor it merges the CSR adjacency rows
// (buildAdjStore) of the survivor's two genes and tests each common
// neighbor with dpiLoser. It is the reference
// FuzzScheduleMatchesReference holds TestSchedule.Next to.
type referenceSchedule struct {
	n       int
	edges   []Edge
	tol     float64
	settled []bool
	adj     *adjStore
}

// next is one DPI round of the reference walk.
func (s *referenceSchedule) next(verdicts []Verdict) (out []int32, err error) {
	edges := s.edges
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
		s.adj = nil
	}
	return out, nil
}

// walkCase draws a survivor graph for FuzzScheduleMatchesReference:
// n genes (sizes on both sides of the 64-gene bitset word, or small),
// each pair a survivor with probability about density/256, and weights
// from one of four families — few values with many ties and zeros;
// those plus tiny negative weights; continuous values; and continuous
// values with zeros, negative values and NaN.
func walkCase(size, density, weights uint8, seed uint64) (n int, edges []Edge) {
	sizes := [...]int{63, 64, 65, 128, 200}
	n = 2 + int(size%31)
	if int(size%8) < len(sizes) {
		n = sizes[size%8]
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(256) > int(density) {
				continue
			}
			var w float64
			switch weights % 4 {
			case 0:
				w = float64(rng.Intn(8)) / 4
			case 1:
				w = [...]float64{0, -1e-15, -3e-16, 0.5, 0.75, 1, 1 + 1e-9}[rng.Intn(7)]
			case 2:
				w = rng.Float64()
			default:
				switch r := rng.Intn(16); r {
				case 0:
					w = math.NaN()
				case 1, 2:
					w = -rng.Float64()
				case 3:
					w = 0
				default:
					w = rng.Float64()
				}
			}
			edges = append(edges, Edge{I: i, J: j, Weight: w})
		}
	}
	return n, edges
}

// FuzzScheduleMatchesReference holds TestSchedule.Next to the CSR
// adjacency walk it replaced (referenceSchedule): on random survivor
// graphs across the 64-gene bitset word, with zero, negative, NaN and
// tied weights, tolerances 0, 0.1 and random ones, and random verdict
// oracles, every round requests the same survivors in the same order
// and leaves the same settled flags.
func FuzzScheduleMatchesReference(f *testing.F) {
	for x, size := range []uint8{0, 1, 2, 3, 4, 5, 14} {
		for weights := uint8(0); weights < 4; weights++ {
			f.Add(size, uint8(40+30*x), weights, uint8(x+int(weights))%3, 0.37, uint8(60*weights), uint64(10*x)+uint64(weights))
		}
	}
	f.Fuzz(func(t *testing.T, size, density, weights, tolMode uint8, tolRaw float64, failRate uint8, seed uint64) {
		n, edges := walkCase(size, density, weights, seed)
		_, _, tol, pass := scheduleCase(0, tolMode, tolRaw, failRate, seed, nil)
		sched, err := NewTestSchedule(n, edges, true, tol)
		if err != nil {
			t.Fatal(err)
		}
		ref := &referenceSchedule{n: n, edges: edges, tol: tol, settled: make([]bool, len(edges))}
		verdicts := make([]Verdict, len(edges))
		for round := 1; ; round++ {
			got, err := sched.Next(verdicts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.next(verdicts)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("n %d, %d survivors, tol %v, round %d: requested %v, reference %v", n, len(edges), tol, round, got, want)
			}
			if x := slices.IndexFunc(sched.settled, func(b bool) bool { return b }); !slices.Equal(sched.settled, ref.settled) {
				t.Fatalf("n %d, tol %v, round %d: settled flags differ from the reference (first set: %d)", n, tol, round, x)
			}
			if len(got) == 0 {
				break
			}
			for _, x := range got {
				verdicts[x] = Failed
				if pass(int(x)) {
					verdicts[x] = Passed
				}
			}
		}
	})
}

// TestScheduleRejectsBadSurvivors: the walk state refuses a survivor
// that is not a gene pair i < j of the scan's genes, and a pair that
// two survivors join.
func TestScheduleRejectsBadSurvivors(t *testing.T) {
	for _, edges := range [][]Edge{
		{{0, 1, 1}, {1, 3, 1}},
		{{0, 1, 1}, {-1, 2, 1}},
		{{0, 1, 1}, {2, 2, 1}},
		{{0, 1, 1}, {2, 1, 1}},
		{{0, 1, 1}, {1, 2, 1}, {0, 1, 0.5}},
	} {
		s, err := NewTestSchedule(3, edges, true, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if req, err := s.Next(make([]Verdict, len(edges))); err == nil {
			t.Fatalf("survivors %v accepted, requested %v", edges, req)
		}
	}
}
