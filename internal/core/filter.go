package core

import (
	"repro/internal/grn"
	"repro/internal/mat"
	"repro/internal/panelstore"
)

// filterOpts is the adjacency-shard configuration of the phase-5
// filters. Shard spilling is armed only on the disk-backed paths — the
// resident engines already hold the whole network, so a resident
// adjacency costs nothing extra there.
func filterOpts(cfg Config) grn.FilterOpts {
	opts := grn.FilterOpts{
		Tolerance: cfg.DPITolerance,
		Workers:   cfg.Workers,
		SpillDir:  cfg.SpillDir,
		FS:        cfg.FS,
	}
	if cfg.Engine == OutOfCore || (cfg.Engine == Host && cfg.MemoryBudget > 0) {
		opts.MemoryBudget = cfg.MemoryBudget
	}
	return opts
}

// addFilterStats folds one filter pass's adjacency-shard traffic into
// the FilterShard counters: the peak takes the max, the rest add.
func (c *Counters) addFilterStats(st grn.FilterStats) {
	c.FilterShardPeakBytes = max(c.FilterShardPeakBytes, st.ShardPeakBytes)
	c.FilterShardHits += st.ShardHits
	c.FilterShardLoads += st.ShardLoads
	c.FilterShardEvictions += st.ShardEvictions
	c.FilterShardBytesSpilled += st.ShardBytesSpilled
	c.FilterShardBytesLoaded += st.ShardBytesLoaded
	c.SpillReadRetries += st.ShardReadRetries
}

// applyFilters is phase 5 for every engine: the parallel DPI prune
// and, when enabled, the CMI successor filter, each timed into its own
// phase and trace span ("dpi", "cmi") and surfaced through the Result
// counters. The network it filters holds the tested survivors that
// passed, so DPI over it equals DPI over every survivor that would
// pass (grn.TestSchedule). rows supplies rank-normalized expression
// rows to the CMI filter (may be nil when CMIFilter is off).
func applyFilters(cfg Config, res *Result, rows grn.RowFunc) error {
	res.RawEdges = res.Network.Len()
	opts := filterOpts(cfg)
	if cfg.DPI {
		var net *grn.Network
		var st grn.FilterStats
		var err error
		res.Timer.Time("dpi", func() {
			if cfg.Trace != nil {
				defer cfg.Trace.Span(phaseRow(cfg), "dpi")()
			}
			net, st, err = res.Network.DPIParallel(opts)
		})
		if err != nil {
			return err
		}
		res.Network = net
		res.DPIEdgesRemoved = st.Removed
		res.addFilterStats(st)
	}
	if cfg.CMIFilter {
		var net *grn.Network
		var st grn.FilterStats
		var err error
		res.Timer.Time("cmi", func() {
			if cfg.Trace != nil {
				defer cfg.Trace.Span(phaseRow(cfg), "cmi")()
			}
			net, st, err = res.Network.CMIFilterParallel(rows, cfg.Bins, cfg.CMIRatio, opts)
		})
		if err != nil {
			return err
		}
		res.Network = net
		res.CMIEdgesRemoved = st.Removed
		res.addFilterStats(st)
	}
	return nil
}

// ApplyFilters runs the phase-5 filters on an externally assembled
// result — the fleet coordinator's merge path: chunk scans run
// filter-free on the workers (DPI and CMI are whole-network passes, so
// filtering per chunk would change the result), and the coordinator
// prunes the merged network exactly once, keeping a fleet scan
// bit-identical to a single-process scan. cfg must have passed
// Validate; res.Network and res.Timer must be set; rows supplies
// rank-normalized expression rows when cfg.CMIFilter is on.
func ApplyFilters(cfg Config, res *Result, rows grn.RowFunc) error {
	return applyFilters(cfg, res, rows)
}

// residentRows adapts the resident engines' rank-normalized matrix
// into the CMI filter's row source.
func residentRows(norm *mat.Dense) grn.RowFunc {
	return func(g int) ([]float32, error) { return norm.Row(g), nil }
}

// ResidentRows is residentRows for external callers (the fleet
// coordinator's CMI merge path).
func ResidentRows(norm *mat.Dense) grn.RowFunc { return residentRows(norm) }

// storeRows adapts the panel store: each fetch pins the gene's panel,
// copies the raw row, and rank-normalizes the copy — the same
// transform the out-of-core scan applies per tile, so the filter sees
// bit-identical inputs to the resident engines.
func storeRows(store *panelstore.Store) grn.RowFunc {
	return func(g int) ([]float32, error) {
		pin, err := store.Panel(store.PanelOf(g))
		if err != nil {
			return nil, err
		}
		row := append([]float32(nil), pin.Row(g)...)
		pin.Release()
		mat.RankNormalizeValues(row)
		return row, nil
	}
}
