package main

// This file is the benchmark's only use of internal packages: the MI
// kernels and the checkpoint writer have no public entry point. Every
// other layer is timed through the tinge facade or the servers' HTTP API.

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"repro/internal/bspline"
	"repro/internal/checkpoint"
	"repro/internal/mi"
	"repro/internal/perm"
	"repro/tinge"
)

const (
	kernelPairs  = 4000 // observed pairs per repetition
	kernelSweeps = 200  // emitted edges swept per repetition
	kernelReps   = 5
)

// kernelSink keeps the timed kernel results live.
var kernelSink float64

// kernelTimings micro-times, on the workload's own rank-normalized
// float64 weights, the observed-pair kernel PairBlocked per call and the
// permutation sweep SweepBucketed per permutation evaluation (j side
// streamed from a PermCache as in the scan). Observed pairs are drawn
// uniformly. Sweep pairs are drawn from the run's emitted edges, which
// beat all q permutations, so each sweep pays all q — which is checked.
// Both samples are visited row by row, as the tile scan visits pairs.
func kernelTimings(m *tinge.Matrix, edges []tinge.Edge, permSeed, sampleSeed uint64, workers int) (pairNs, permNs float64, err error) {
	if len(edges) == 0 {
		return 0, 0, fmt.Errorf("kernel timings: no emitted edges to sweep")
	}
	norm := m.Clone()
	norm.RankNormalize()
	basis, err := bspline.New(3, 10) // Config defaults: order 3, 10 bins
	if err != nil {
		return 0, 0, err
	}
	wm := bspline.PrecomputeParallel(basis, norm, workers)
	est := mi.NewEstimatorParallel(wm, workers)
	ws := mi.NewWorkspace(est)
	perms := perm.MustNewPool(permSeed, wm.Samples, permutations).Perms()
	cache := mi.NewPermCache(est, perms, tileSize)
	pair, sweep := est.PairBlocked, est.SweepBucketed

	rng := rand.New(rand.NewPCG(sampleSeed, 0x6b65726e656c73))
	n := wm.Genes
	observed := make([][2]int, kernelPairs)
	for k := range observed {
		i, j := rng.IntN(n), rng.IntN(n-1)
		if j >= i {
			j++
		}
		observed[k] = [2]int{min(i, j), max(i, j)}
	}
	slices.SortFunc(observed, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	swept := make([]tinge.Edge, kernelSweeps)
	for k := range swept {
		swept[k] = edges[rng.IntN(len(edges))]
	}
	slices.SortFunc(swept, func(a, b tinge.Edge) int {
		return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J))
	})

	var pairTimes, permTimes []float64
	for range kernelReps {
		start := time.Now()
		for _, p := range observed {
			kernelSink += pair(p[0], p[1], ws)
		}
		pairTimes = append(pairTimes, float64(time.Since(start).Nanoseconds())/float64(len(observed)))

		var busy time.Duration
		evals := 0
		for _, e := range swept {
			obs := pair(e.I, e.J, ws)
			offs, w := cache.Gene(e.J)
			start := time.Now()
			k, survived := sweep(e.I, e.J, obs, perms, offs, w, ws)
			busy += time.Since(start)
			if k != permutations || !survived {
				return 0, 0, fmt.Errorf("emitted edge (%d,%d) did not beat all %d permutations (%d evaluated)", e.I, e.J, permutations, k)
			}
			evals += k
		}
		permTimes = append(permTimes, float64(busy.Nanoseconds())/float64(evals))
	}
	return median(pairTimes), median(permTimes), nil
}

// checkpointSaveSeconds times checkpoint.SaveFile of the final state in
// path, written to scratch; the median of kernelReps saves.
func checkpointSaveSeconds(path, scratch string) (float64, error) {
	state, err := checkpoint.LoadFile(path)
	if err != nil {
		return 0, err
	}
	var times []float64
	for range kernelReps {
		start := time.Now()
		if err := checkpoint.SaveFile(scratch, state); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}
