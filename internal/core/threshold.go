package core

import (
	"context"
	"sync"

	"repro/internal/perm"
	"repro/internal/stats"
)

// PooledNull is the outcome of phase 3: the significance threshold
// I_alpha — the (1-alpha) quantile of the pooled permutation null — and
// the number of null values it was drawn from.
type PooledNull struct {
	Threshold float64
	Size      int
}

// nullPhase is how one engine maps phase 3 onto its hardware;
// estimateThreshold does everything else.
type nullPhase struct {
	// evals holds one evaluator per goroutine. An evaluator computes the
	// q permuted MIs of sampled pair (i, j) into out and owns its
	// scratch, so evaluators run concurrently.
	evals []func(i, j int, out []float64) error
	// rank and ranks, on a cluster rank (ranks > 1), restrict the call
	// to that rank's block of the pair sample; allgather then exchanges
	// the blocks' values so every rank pools the identical null.
	rank, ranks int
	allgather   func(local []float64) [][]float64
	// timer, when non-nil, records the computation as the "threshold"
	// phase.
	timer *stats.Timer
}

// phaseRow is the trace row of the pipeline's phase spans (threshold,
// select-<round>, dpi, cmi): the row after the last worker's, or the
// last cluster rank's.
func phaseRow(cfg Config) int {
	if cfg.Engine == Cluster {
		return cfg.Ranks
	}
	return cfg.Workers
}

// estimateThreshold is phase 3 of every engine: I_alpha from the pooled
// permutation null over the seed-deterministic sample of null pairs.
// Each sampled pair contributes its q permuted MIs from one sweep with
// no early exit (pairKernel.null). The threshold sorts the pooled
// values, so neither the split over goroutines and ranks nor the
// evaluation order changes it: every engine derives the same value bit
// for bit.
//
// When the outcome is already known — from a resumed checkpoint or
// Config.KnownNull, passed as known by commitLog.threshold — no pair is
// evaluated and no "threshold" phase or trace span is recorded.
func estimateThreshold(ctx context.Context, cfg Config, n int, known *PooledNull, ph nullPhase) (PooledNull, error) {
	if known != nil {
		return *known, nil
	}
	var out PooledNull
	var err error
	compute := func() { out, err = pooledNull(ctx, cfg, n, ph) }
	if cfg.Trace != nil && ph.rank == 0 {
		defer cfg.Trace.Span(phaseRow(cfg), "threshold")()
	}
	if ph.timer != nil {
		ph.timer.Time("threshold", compute)
	} else {
		compute()
	}
	return out, err
}

// pooledNull evaluates this caller's share of the null-pair sample over
// ph.evals and derives the threshold from the pooled values.
func pooledNull(ctx context.Context, cfg Config, n int, ph nullPhase) (PooledNull, error) {
	q := cfg.Permutations
	if q == 0 {
		return PooledNull{}, nil
	}
	pairs := sampleNullPairs(cfg.Seed, n, cfg.NullSamplePairs)
	if ph.ranks > 1 {
		pairs = pairs[ph.rank*len(pairs)/ph.ranks : (ph.rank+1)*len(pairs)/ph.ranks]
	}
	// Pair x owns vals[x·q : (x+1)·q], so goroutines never share a slot.
	vals := make([]float64, len(pairs)*q)
	workers := min(len(ph.evals), len(pairs))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for x := w * len(pairs) / workers; x < (w+1)*len(pairs)/workers; x++ {
				if err := ctx.Err(); err != nil {
					errs[w] = err
					return
				}
				if err := ph.evals[w](pairs[x][0], pairs[x][1], vals[x*q:(x+1)*q]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return PooledNull{}, err
		}
	}
	var pooled perm.Null
	if ph.allgather != nil {
		for _, part := range ph.allgather(vals) {
			pooled.AddAll(part)
		}
	} else {
		pooled.AddAll(vals)
	}
	out := PooledNull{Size: pooled.Len()}
	if out.Size > 0 {
		out.Threshold = pooled.Threshold(cfg.Alpha)
	}
	return out, nil
}
