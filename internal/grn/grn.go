// Package grn represents inferred gene regulatory networks: MI-weighted
// undirected edge lists with adjacency indexing, the ARACNE-style
// data-processing-inequality (DPI) filter TINGe applies to prune
// indirect interactions, accuracy scoring against a ground-truth edge
// set, and simple text I/O.
package grn

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Edge is an undirected weighted edge between genes I < J.
type Edge struct {
	I, J   int
	Weight float64 // mutual information in bits
}

// Network is an undirected MI network over a fixed gene universe.
// Construction (AddEdge) is single-goroutine; once built, all read
// methods — including Edges, which sorts lazily under an internal
// lock, and the adjacency readers, which rebuild a compacted index
// under the same lock — are safe for concurrent use.
type Network struct {
	n     int
	edges []Edge
	// adj[i] maps neighbor j -> weight for quick lookup. Compact drops
	// it and index rebuilds it from edges on first use; adjReady
	// publishes a rebuild to lock-free readers.
	adj      []map[int]float64
	adjReady atomic.Bool
	// mu guards the lazy sort in Edges and the lazy rebuild in index;
	// sorted records whether g.edges is already in (I, J) order, so
	// concurrent readers never mutate the slice.
	mu     sync.Mutex
	sorted bool
}

// New creates an empty network over n genes. It panics if n < 0.
func New(n int) *Network {
	if n < 0 {
		panic(fmt.Sprintf("grn: negative gene count %d", n))
	}
	g := &Network{n: n, adj: make([]map[int]float64, n), sorted: true}
	g.adjReady.Store(true)
	return g
}

// Compact sorts the edge list, trims its spare capacity, and releases
// the per-gene adjacency index, which is about two thirds of a
// network's memory. It is the form a server retains finished results
// in: serving them reads only Edges and Len. Readers that need the
// adjacency (Weight, Neighbors, Degree, DPI, Communities, ...) rebuild
// it on first use. Compact itself must not race with other methods —
// call it before sharing the network.
func (g *Network) Compact() {
	g.Edges()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.edges = append(make([]Edge, 0, len(g.edges)), g.edges...)
	g.adj = nil
	g.adjReady.Store(false)
}

// index returns the adjacency index, rebuilding it after Compact.
func (g *Network) index() []map[int]float64 {
	if g.adjReady.Load() {
		return g.adj
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.adjReady.Load() {
		adj := make([]map[int]float64, g.n)
		for _, e := range g.edges {
			if adj[e.I] == nil {
				adj[e.I] = make(map[int]float64)
			}
			if adj[e.J] == nil {
				adj[e.J] = make(map[int]float64)
			}
			adj[e.I][e.J] = e.Weight
			adj[e.J][e.I] = e.Weight
		}
		g.adj = adj
		g.adjReady.Store(true)
	}
	return g.adj
}

// N returns the gene-universe size.
func (g *Network) N() int { return g.n }

// Len returns the number of edges.
func (g *Network) Len() int { return len(g.edges) }

// AddEdge inserts the undirected edge (i, j) with weight w. Self-loops
// and duplicate edges are rejected with a panic (the pair enumeration
// visits each pair once; a duplicate indicates a scheduling bug).
func (g *Network) AddEdge(i, j int, w float64) {
	if i == j {
		panic(fmt.Sprintf("grn: self-loop on %d", i))
	}
	if i > j {
		i, j = j, i
	}
	if i < 0 || j >= g.n {
		panic(fmt.Sprintf("grn: edge (%d,%d) out of range %d", i, j, g.n))
	}
	adj := g.index()
	if adj[i] != nil {
		if _, dup := adj[i][j]; dup {
			panic(fmt.Sprintf("grn: duplicate edge (%d,%d)", i, j))
		}
	}
	g.edges = append(g.edges, Edge{I: i, J: j, Weight: w})
	if g.sorted && len(g.edges) > 1 {
		// Cheap incremental check: appends that arrive in (I, J) order —
		// the tile scan's usual case — keep the list pre-sorted, so
		// Edges never has to touch it.
		p := g.edges[len(g.edges)-2]
		if i < p.I || (i == p.I && j < p.J) {
			g.sorted = false
		}
	}
	if adj[i] == nil {
		adj[i] = make(map[int]float64)
	}
	if adj[j] == nil {
		adj[j] = make(map[int]float64)
	}
	adj[i][j] = w
	adj[j][i] = w
}

// Weight returns the weight of edge (i, j) and whether it exists.
func (g *Network) Weight(i, j int) (float64, bool) {
	if i < 0 || i >= g.n {
		return 0, false
	}
	w, ok := g.index()[i][j]
	return w, ok
}

// Edges returns the edge list sorted by (I, J). The caller must not
// modify the returned slice. The sort happens at most once, under an
// internal lock, so Edges is safe for concurrent readers (a completed
// job's network served to parallel HTTP handlers, scored while being
// written, ...); only AddEdge may not race with it.
func (g *Network) Edges() []Edge {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.sorted {
		sort.Slice(g.edges, func(a, b int) bool {
			if g.edges[a].I != g.edges[b].I {
				return g.edges[a].I < g.edges[b].I
			}
			return g.edges[a].J < g.edges[b].J
		})
		g.sorted = true
	}
	return g.edges
}

// Neighbors returns gene i's neighbors in ascending order.
func (g *Network) Neighbors(i int) []int {
	if i < 0 || i >= g.n {
		return nil
	}
	row := g.index()[i]
	if row == nil {
		return nil
	}
	out := make([]int, 0, len(row))
	for j := range row {
		out = append(out, j)
	}
	sort.Ints(out)
	return out
}

// Degree returns the degree of gene i.
func (g *Network) Degree(i int) int {
	if i < 0 || i >= g.n {
		return 0
	}
	return len(g.index()[i])
}

// MaxDegree returns the largest degree in the network (0 when empty).
func (g *Network) MaxDegree() int {
	max := 0
	for i := 0; i < g.n; i++ {
		if d := g.Degree(i); d > max {
			max = d
		}
	}
	return max
}

// DPI applies the data-processing-inequality filter: for every triangle
// (i, j, k), the weakest of the three edges is marked for removal if it
// is weaker than both others by more than the tolerance factor —
// an edge (i,j) is removed when there exists k with
//
//	w(i,j) < w(i,k)*(1-tol)  and  w(i,j) < w(j,k)*(1-tol)
//
// because the information between i and j can then be explained by the
// indirect path through k. The returned network contains the surviving
// edges; the receiver is unmodified. tol must be in [0,1).
func (g *Network) DPI(tol float64) *Network {
	if tol < 0 || tol >= 1 {
		panic(fmt.Sprintf("grn: DPI tolerance %v out of [0,1)", tol))
	}
	remove := make(map[[2]int]bool)
	scale := 1 - tol
	adj := g.index()
	for i := 0; i < g.n; i++ {
		if adj[i] == nil {
			continue
		}
		neigh := g.Neighbors(i)
		// Examine triangles with i as the apex: pairs (j,k) of i's
		// neighbors that are themselves connected.
		for a := 0; a < len(neigh); a++ {
			j := neigh[a]
			if j < i {
				continue // handle each triangle from its smallest vertex
			}
			for b := a + 1; b < len(neigh); b++ {
				k := neigh[b]
				wjk, ok := g.Weight(j, k)
				if !ok {
					continue
				}
				wij := adj[i][j]
				wik := adj[i][k]
				// Weakest edge of the triangle loses (with tolerance).
				switch {
				case wij < wik*scale && wij < wjk*scale:
					remove[key(i, j)] = true
				case wik < wij*scale && wik < wjk*scale:
					remove[key(i, k)] = true
				case wjk < wij*scale && wjk < wik*scale:
					remove[key(j, k)] = true
				}
			}
		}
	}
	out := New(g.n)
	for _, e := range g.edges {
		if !remove[key(e.I, e.J)] {
			out.AddEdge(e.I, e.J, e.Weight)
		}
	}
	return out
}

func key(i, j int) [2]int {
	if i > j {
		i, j = j, i
	}
	return [2]int{i, j}
}

// Score is precision/recall/F1 of an inferred edge set against truth.
type Score struct {
	TP, FP, FN            int
	Precision, Recall, F1 float64
}

// ScoreAgainst compares the network's edges with the ground-truth edge
// set (keys i*n+j, i<j, as produced by expr.Dataset.TrueEdgeSet).
func (g *Network) ScoreAgainst(truth map[int64]bool) Score {
	var s Score
	n := int64(g.n)
	for _, e := range g.edges {
		if truth[int64(e.I)*n+int64(e.J)] {
			s.TP++
		} else {
			s.FP++
		}
	}
	s.FN = len(truth) - s.TP
	if s.TP+s.FP > 0 {
		s.Precision = float64(s.TP) / float64(s.TP+s.FP)
	}
	if s.TP+s.FN > 0 {
		s.Recall = float64(s.TP) / float64(s.TP+s.FN)
	}
	if s.Precision+s.Recall > 0 {
		s.F1 = 2 * s.Precision * s.Recall / (s.Precision + s.Recall)
	}
	return s
}

// TopK returns a new network keeping only the k highest-weight edges
// (all edges if k >= Len). Ties are broken by (I, J) order for
// determinism.
func (g *Network) TopK(k int) *Network {
	if k < 0 {
		panic(fmt.Sprintf("grn: negative k %d", k))
	}
	es := append([]Edge(nil), g.edges...)
	sort.Slice(es, func(a, b int) bool {
		if es[a].Weight != es[b].Weight {
			return es[a].Weight > es[b].Weight
		}
		if es[a].I != es[b].I {
			return es[a].I < es[b].I
		}
		return es[a].J < es[b].J
	})
	if k > len(es) {
		k = len(es)
	}
	out := New(g.n)
	for _, e := range es[:k] {
		out.AddEdge(e.I, e.J, e.Weight)
	}
	return out
}

// WriteTSV emits "i<TAB>j<TAB>weight" lines in sorted edge order, with
// gene names substituted when names is non-nil (len must then be >= N).
func (g *Network) WriteTSV(w io.Writer, names []string) error {
	bw := bufio.NewWriter(w)
	for _, e := range g.Edges() {
		var err error
		if names != nil {
			_, err = fmt.Fprintf(bw, "%s\t%s\t%.6g\n", names[e.I], names[e.J], e.Weight)
		} else {
			_, err = fmt.Fprintf(bw, "%d\t%d\t%.6g\n", e.I, e.J, e.Weight)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTSV parses numeric "i<TAB>j<TAB>weight" lines into a network over
// n genes.
func ReadTSV(r io.Reader, n int) (*Network, error) {
	g := New(n)
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, "\t")
		if len(fields) != 3 {
			return nil, fmt.Errorf("grn: line %d: %d fields, want 3", line, len(fields))
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("grn: line %d: %w", line, err)
		}
		j, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("grn: line %d: %w", line, err)
		}
		w, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("grn: line %d: %w", line, err)
		}
		if i == j || i < 0 || j < 0 || i >= n || j >= n {
			return nil, fmt.Errorf("grn: line %d: invalid edge (%d,%d) for n=%d", line, i, j, n)
		}
		if _, dup := g.Weight(i, j); dup {
			return nil, fmt.Errorf("grn: line %d: duplicate edge (%d,%d)", line, i, j)
		}
		g.AddEdge(i, j, w)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, nil
}

// WriteDOT emits the network in Graphviz DOT format for visualization
// (e.g. `neato -Tsvg net.dot`). Edge thickness encodes MI weight;
// names substitutes gene labels when non-nil. Isolated genes are
// omitted to keep whole-genome renders tractable.
func (g *Network) WriteDOT(w io.Writer, names []string) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "graph tinge {"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(bw, "  node [shape=circle, fontsize=10];"); err != nil {
		return err
	}
	label := func(i int) string {
		if names != nil {
			return names[i]
		}
		return strconv.Itoa(i)
	}
	maxW := 0.0
	for _, e := range g.edges {
		if e.Weight > maxW {
			maxW = e.Weight
		}
	}
	if maxW == 0 {
		maxW = 1
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "  %q -- %q [penwidth=%.2f, tooltip=\"MI=%.3f\"];\n",
			label(e.I), label(e.J), 0.5+2.5*e.Weight/maxW, e.Weight); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw, "}"); err != nil {
		return err
	}
	return bw.Flush()
}

// DegreeHistogram returns counts[d] = number of genes with degree d,
// up to the maximum degree.
func (g *Network) DegreeHistogram() []int {
	h := make([]int, g.MaxDegree()+1)
	for i := 0; i < g.n; i++ {
		h[g.Degree(i)]++
	}
	return h
}
