package grn

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// compactFixture builds the same random network every call: distinct
// weights, edges appended in shuffled (unsorted) order, and a few
// isolated genes.
func compactFixture() *Network {
	rng := rand.New(rand.NewSource(3))
	const n = 40
	var es []Edge
	for i := 0; i < n-4; i++ {
		for j := i + 1; j < n-4; j++ {
			if rng.Float64() < 0.2 {
				es = append(es, Edge{I: i, J: j, Weight: rng.Float64()})
			}
		}
	}
	rng.Shuffle(len(es), func(a, b int) { es[a], es[b] = es[b], es[a] })
	g := New(n)
	for _, e := range es {
		g.AddEdge(e.J, e.I, e.Weight)
	}
	return g
}

// readAll snapshots every reader of g. Edges goes first: it sorts the
// list in place, so the order-sensitive float sums below (Modularity,
// Summary) see the same order on both sides.
func readAll(t *testing.T, g *Network) []any {
	t.Helper()
	out := []any{append([]Edge(nil), g.Edges()...), g.N(), g.Len()}
	for i := -1; i <= g.N(); i++ {
		out = append(out, g.Neighbors(i), g.Degree(i))
		for j := -1; j <= g.N(); j++ {
			w, ok := g.Weight(i, j)
			out = append(out, w, ok)
		}
	}
	dpiPar, _, err := g.DPIParallel(FilterOpts{Tolerance: 0.1, Workers: 2})
	if err != nil {
		t.Error(err)
	}
	labels := g.Communities(20, 7)
	alpha, used := g.PowerLawAlpha(1)
	truth := map[int64]bool{int64(0)*int64(g.N()) + 1: true, int64(2)*int64(g.N()) + 9: true}
	var tsv, dot bytes.Buffer
	if err := g.WriteTSV(&tsv, nil); err != nil {
		t.Error(err)
	}
	if err := g.WriteDOT(&dot, nil); err != nil {
		t.Error(err)
	}
	out = append(out,
		g.MaxDegree(), g.DegreeHistogram(),
		g.DPI(0.1).Edges(), g.DPI(0).Edges(), dpiPar.Edges(),
		labels, g.Modularity(labels), g.Components(),
		g.ClusteringCoefficient(3), g.MeanClustering(), g.Hubs(5),
		g.Ego(0, 2).Edges(), alpha, used, g.Betweenness(), g.Summary(),
		g.TopK(10).Edges(), g.ScoreAgainst(truth), tsv.String(), dot.String())
	return out
}

// TestCompactReadersUnchanged pins Network.Compact: after the adjacency
// index is released, every reader returns exactly what it returned on
// the uncompacted network, including from many goroutines at once
// racing the lazy rebuild (run with -race).
func TestCompactReadersUnchanged(t *testing.T) {
	want := readAll(t, compactFixture())

	g := compactFixture()
	g.Compact()
	if g.adjReady.Load() || g.adj != nil {
		t.Fatal("Compact kept the adjacency index")
	}
	const readers = 6
	got := make([][]any, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			got[r] = readAll(t, g)
		}(r)
	}
	wg.Wait()
	for r := range got {
		for x := range want {
			if !reflect.DeepEqual(got[r][x], want[x]) {
				t.Fatalf("reader %d, value %d: compacted %v != original %v",
					r, x, fmt.Sprint(got[r][x]), fmt.Sprint(want[x]))
			}
		}
	}
}

// TestCompactThenAddEdge checks construction still works on a
// compacted network: the rebuilt index catches duplicates (in either
// orientation) and self-loops with the usual panics, and new edges are
// visible to every reader.
func TestCompactThenAddEdge(t *testing.T) {
	g := compactFixture()
	e := g.Edges()[0]
	g.Compact()
	for name, add := range map[string]func(){
		"duplicate":          func() { g.AddEdge(e.I, e.J, 1) },
		"reversed duplicate": func() { g.AddEdge(e.J, e.I, 1) },
		"self-loop":          func() { g.AddEdge(5, 5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on a compacted network did not panic", name)
				}
			}()
			add()
		}()
	}
	n := g.Len()
	g.AddEdge(g.N()-1, g.N()-2, 0.5)
	if w, ok := g.Weight(g.N()-2, g.N()-1); !ok || w != 0.5 || g.Len() != n+1 || g.Degree(g.N()-1) != 1 {
		t.Fatalf("edge added after Compact not visible: w=%v ok=%v len=%d", w, ok, g.Len())
	}
}
