package core

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/bspline"
	"repro/internal/grn"
	"repro/internal/mat"
	"repro/internal/stats"
	"repro/internal/tile"
)

// Profile is an instrumented single-pass run used to *simulate* scaling
// configurations this machine cannot execute natively (e.g. 240 Phi
// threads on a 1-CPU container). It records per-tile MI-evaluation
// counts and the measured average cost of one evaluation; scaling
// experiments then replay the tiles onto any worker count and policy
// with tile.SimMakespan.
type Profile struct {
	// Tiles is the pair decomposition profiled.
	Tiles []tile.Tile
	// EvalsPerTile[i] is the MI kernel evaluations tile i needed
	// (pairs plus permutation tests actually run).
	EvalsPerTile []int64
	// EvalSeconds is the measured mean wall time of one MI evaluation.
	EvalSeconds float64
	// Result is the full inference result of the profiling run.
	Result *Result
}

// TileSeconds returns the modeled sequential cost of each tile:
// evaluations × measured per-evaluation time.
func (p *Profile) TileSeconds() []float64 {
	out := make([]float64, len(p.EvalsPerTile))
	for i, e := range p.EvalsPerTile {
		out[i] = float64(e) * p.EvalSeconds
	}
	return out
}

// SimMakespan replays the profiled tiles onto `workers` workers under
// the policy and returns the simulated parallel seconds of the MI
// phase.
func (p *Profile) SimMakespan(workers int, policy tile.Policy) float64 {
	return tile.SimMakespan(p.TileSeconds(), workers, policy)
}

// ProfileTiles runs the pipeline once on the Host engine (with the
// given config) and returns the per-tile cost profile alongside the
// result. The run itself uses cfg.Workers; the measured per-evaluation
// cost divides the mi-phase CPU time by the evaluation count, so a
// single-worker config gives the cleanest calibration.
func ProfileTiles(exprMat *mat.Dense, cfg Config) (*Profile, error) {
	cfg.Engine = Host
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if exprMat.Rows() < 2 {
		return nil, fmt.Errorf("core: need at least 2 genes, have %d", exprMat.Rows())
	}
	if exprMat.Cols() < 4 {
		return nil, fmt.Errorf("core: need at least 4 experiments, have %d", exprMat.Cols())
	}
	// Replicate Infer's front half so we can reach hostScan's profile
	// outputs.
	norm := exprMat.Clone()
	norm.RankNormalize()
	basis, err := bspline.New(cfg.Order, cfg.Bins)
	if err != nil {
		return nil, err
	}
	wm := bspline.PrecomputeParallel(basis, norm, cfg.Workers)

	res := &Result{Timer: stats.NewTimer()}
	evals, tiles, err := hostScan(context.Background(), wm, cfg, res, nil)
	if err != nil {
		return nil, err
	}
	var rows grn.RowFunc
	if cfg.CMIFilter {
		rows = residentRows(norm)
	}
	if err := applyFilters(cfg, res, rows); err != nil {
		return nil, err
	}
	var total int64
	for _, e := range evals {
		total += e
	}
	p := &Profile{Tiles: tiles, EvalsPerTile: evals, Result: res}
	if total > 0 {
		// CPU time spent in the mi phase ≈ wall × workers on a machine
		// with enough cores; on an oversubscribed machine wall time is
		// already serialized, so workers=1 is the honest calibration.
		effective := cfg.Workers
		if procs := runtime.GOMAXPROCS(0); effective > procs {
			effective = procs
		}
		p.EvalSeconds = res.Timer.Get("mi").Seconds() * float64(effective) / float64(total)
	}
	return p, nil
}
