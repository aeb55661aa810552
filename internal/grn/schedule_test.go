package grn

import (
	"math"
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
// request a survivor twice or request a decided one, build the
// adjacency once and drop it at the fixpoint, and DPIParallel over the
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
		var adj *adjStore
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
				if sched.adj != nil {
					t.Fatalf("round %d: the fixpoint kept the adjacency", round)
				}
				break
			}
			if sched.adj == nil || adj != nil && sched.adj != adj {
				t.Fatalf("round %d: adjacency %p after round %d's %p; want one built once per scan", round, sched.adj, round-1, adj)
			}
			adj = sched.adj
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
