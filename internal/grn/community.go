package grn

import (
	"fmt"
	"sort"

	"repro/internal/perm"
)

// Communities partitions the network into modules by weighted label
// propagation: every gene repeatedly adopts the label carrying the
// largest total edge weight among its neighbors, until no label
// changes or maxIter sweeps elapse. Gene-visit order is shuffled each
// sweep from the seed, and weight ties break toward the smallest
// label, so results are deterministic for a given seed.
//
// The returned slice maps gene → community id, with ids compacted to
// 0..k-1 in order of first appearance (isolated genes get their own
// singleton communities). Label propagation is the standard cheap
// module detector for large biological networks; whole-genome MI
// networks are exactly its use case.
func (g *Network) Communities(maxIter int, seed uint64) []int {
	if maxIter < 1 {
		panic(fmt.Sprintf("grn: non-positive maxIter %d", maxIter))
	}
	labels := make([]int, g.n)
	for i := range labels {
		labels[i] = i
	}
	order := make([]int32, g.n)
	rng := perm.NewRNG(seed)
	votes := map[int]float64{}
	adj := g.index()
	for iter := 0; iter < maxIter; iter++ {
		perm.FisherYates(rng, order)
		changed := false
		for _, gi := range order {
			i := int(gi)
			if g.Degree(i) == 0 {
				continue
			}
			for k := range votes {
				delete(votes, k)
			}
			for j, w := range adj[i] {
				votes[labels[j]] += w
			}
			best, bestW := labels[i], votes[labels[i]]
			for lbl, w := range votes {
				if w > bestW || (w == bestW && lbl < best) {
					best, bestW = lbl, w
				}
			}
			if best != labels[i] {
				labels[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Compact ids in order of first appearance.
	compact := map[int]int{}
	out := make([]int, g.n)
	for i, lbl := range labels {
		id, ok := compact[lbl]
		if !ok {
			id = len(compact)
			compact[lbl] = id
		}
		out[i] = id
	}
	return out
}

// CommunitySizes returns the member count of each community id in a
// labels slice (as returned by Communities), sorted descending.
func CommunitySizes(labels []int) []int {
	counts := map[int]int{}
	for _, l := range labels {
		counts[l]++
	}
	sizes := make([]int, 0, len(counts))
	for _, c := range counts {
		sizes = append(sizes, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}

// Modularity computes Newman's weighted modularity Q of a labeling:
// the weight fraction of intra-community edges minus the expectation
// under the configuration model. Q near 0 means no structure; well-
// modular networks score 0.3–0.7.
func (g *Network) Modularity(labels []int) float64 {
	if len(labels) != g.n {
		panic(fmt.Sprintf("grn: labels length %d != genes %d", len(labels), g.n))
	}
	var total float64 // 2m (total weight counted from both endpoints)
	strength := make([]float64, g.n)
	for _, e := range g.edges {
		strength[e.I] += e.Weight
		strength[e.J] += e.Weight
		total += 2 * e.Weight
	}
	if total == 0 {
		return 0
	}
	var q float64
	for _, e := range g.edges {
		if labels[e.I] == labels[e.J] {
			q += 2 * e.Weight / total
		}
	}
	// Subtract expected intra-community weight.
	commStrength := map[int]float64{}
	for i, l := range labels {
		commStrength[l] += strength[i]
	}
	for _, s := range commStrength {
		q -= (s / total) * (s / total)
	}
	return q
}
