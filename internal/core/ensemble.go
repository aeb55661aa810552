package core

import (
	"context"
	"fmt"

	"repro/internal/bspline"
	"repro/internal/checkpoint"
	"repro/internal/diskfault"
	"repro/internal/grn"
	"repro/internal/mat"
	"repro/internal/panelstore"
	"repro/internal/perm"
	"repro/internal/stats"
	"repro/internal/tile"
)

// rebindKit points the resident ensemble loop's shared scanners at a
// refilled weight-matrix view. The kernel and workspaces are built once
// for the first bootstrap and rebound — never reallocated — for every
// subsequent one: marginal entropies are recomputed and every cached
// row key is invalidated (a stale one would alias the previous
// bootstrap's gene values). The permutation pool never rebinds at all: the
// subsample size is constant across bootstraps, so the same permuted
// index sets apply to every bootstrap's view.
func rebindKit(kit []*tileScanner, wm *bspline.WeightMatrix) {
	kit[0].k.est.Reset(wm)
	for _, sc := range kit {
		sc.ws.InvalidateRowKeys()
	}
}

// ensembleLedger is the bootstrap-granularity checkpoint of an
// ensemble run: Done is the per-bootstrap bitmap, and the state
// snapshots the per-bootstrap thresholds and the running support
// aggregate after every completed bootstrap. Because
// bootstraps complete strictly in ascending order, the snapshot's
// weight sums are exact — a resumed run folds the remaining bootstraps
// onto it and lands bit-identical to an uninterrupted run.
type ensembleLedger struct {
	fsys  diskfault.FS
	path  string
	state *checkpoint.State
}

// loadEnsembleLedger loads or creates the ledger and returns the first
// pending bootstrap index. The corruption tolerance matches
// loadResumeState: an unreadable checkpoint restarts the ensemble.
func loadEnsembleLedger(cfg Config, genes, samples int, res *Result) (*ensembleLedger, int, error) {
	B := cfg.Ensemble.Bootstraps
	state, resumed, err := loadResumeState(cfg, Fingerprint(genes, samples, cfg), B, res)
	if err != nil {
		return nil, 0, err
	}
	if !resumed {
		state.EnsembleThresholds = make([]float64, B)
	}
	next := 0
	for next < B && state.Done[next] {
		next++
	}
	for b := next; b < B; b++ {
		if state.Done[b] {
			return nil, 0, fmt.Errorf("core: ensemble checkpoint has non-contiguous bootstraps (done bit %d after gap %d)", b, next)
		}
	}
	return &ensembleLedger{fsys: cfg.FS, path: cfg.CheckpointPath, state: state}, next, nil
}

// restore folds the ledger's completed-bootstrap snapshot into the
// aggregate, the thresholds and the null size. next is the first
// pending bootstrap. Like every resumed scan, the run counts only this
// session's work.
func (l *ensembleLedger) restore(res *Result, ens *grn.Ensemble, next int) {
	ens.Restore(l.state.EnsembleEdges, next)
	copy(res.EnsembleThresholds, l.state.EnsembleThresholds[:next])
	if next > 0 {
		res.Threshold = l.state.EnsembleThresholds[next-1]
		res.NullSize = l.state.NullSize
	}
}

// bootstrapDone commits bootstrap b and persists immediately — each
// bootstrap is a whole scan, so there is no cheaper save granularity
// worth batching to.
func (l *ensembleLedger) bootstrapDone(b int, bres *Result, ens *grn.Ensemble) error {
	s := l.state
	s.Done[b] = true
	s.EnsembleThresholds[b] = bres.Threshold
	s.NullSize = bres.NullSize
	s.EnsembleEdges = ens.Edges()
	return checkpoint.SaveFileFS(l.fsys, l.path, s)
}

// finishEnsemble publishes the aggregate: a full-range run derives the
// consensus at the configured cutoff, a partial run leaves the network
// empty (its product is EnsembleNetworks — the fleet folds them).
func finishEnsemble(cfg Config, res *Result, ens *grn.Ensemble) {
	res.Ensemble = ens
	if ens.Bootstraps() == cfg.Ensemble.Bootstraps {
		res.Network = ens.Consensus(cfg.Ensemble.SupportCutoff)
	} else {
		res.Network = grn.New(ens.N())
	}
}

// viewRows serves the CMI filter one bootstrap's expression rows: the
// full-set rank-normalized row restricted to the subsample's columns —
// exactly the values the view weight matrix was gathered from, keeping
// the filter bit-identical across resident engines and the out-of-core
// path.
func viewRows(norm *mat.Dense, idx []int32) grn.RowFunc {
	return func(g int) ([]float32, error) {
		src := norm.Row(g)
		row := make([]float32, len(idx))
		for t, s := range idx {
			row[t] = src[s]
		}
		return row, nil
	}
}

// storeRowsView is viewRows for the disk-backed path: fetch the raw
// row from the panel store, normalize at full width, gather the
// subsample's columns.
func storeRowsView(store *panelstore.Store, idx []int32) grn.RowFunc {
	inner := storeRows(store)
	return func(g int) ([]float32, error) {
		full, err := inner(g)
		if err != nil {
			return nil, err
		}
		row := make([]float32, len(idx))
		for t, s := range idx {
			row[t] = full[s]
		}
		return row, nil
	}
}

// ensembleRange resolves the bootstrap range a run covers and sizes
// the result's threshold slice.
func ensembleRange(cfg Config, res *Result) (lo, hi int, partial bool) {
	ec := cfg.Ensemble
	lo, hi = 0, ec.Bootstraps
	partial = ec.Count > 0
	if partial {
		lo, hi = ec.Start, ec.Start+ec.Count
		res.EnsembleThresholds = make([]float64, 0, ec.Count)
	} else {
		res.EnsembleThresholds = make([]float64, ec.Bootstraps)
	}
	return lo, hi, partial
}

// recordBootstrap does the per-bootstrap bookkeeping shared by the
// resident and out-of-core drivers: fold the filtered network into the
// aggregate and the counters into the run's, record the threshold
// (and, on partial runs, the network itself — the fleet wire payload).
func recordBootstrap(res, bres *Result, ens *grn.Ensemble, b int, partial bool) {
	ens.Fold(bres.Network)
	res.Counters.Fold(&bres.Counters)
	res.Threshold = bres.Threshold
	if partial {
		res.EnsembleThresholds = append(res.EnsembleThresholds, bres.Threshold)
		res.EnsembleNetworks = append(res.EnsembleNetworks, bres.Network)
	} else {
		res.EnsembleThresholds[b] = bres.Threshold
	}
	res.EnsembleBootstrapsRun++
}

// wrapEnsembleProgress scales a bootstrap's per-tile progress into the
// whole run's: sessionDone bootstraps of runTotal are already finished
// in this session.
func wrapEnsembleProgress(outer func(done, total int), sessionDone, runTotal int) func(done, total int) {
	if outer == nil {
		return nil
	}
	return func(done, total int) {
		outer(sessionDone*total+done, runTotal*total)
	}
}

// ensembleResident is the bootstrap-consensus driver for the resident
// engines (host, phi, hybrid, cluster). The whole-genome apparatus is
// shared across bootstraps: norm and full are the full-set rank
// normalization and stencil precompute, each bootstrap gathers a
// column view of full (never recomputing a stencil), and the host-pool
// engines (host, phi, hybrid) additionally share one set of scanners.
// The cluster engine builds per-rank kernels inside each world — its
// status quo for a single scan — so it gets no shared scanners, but
// still shares the normalization, precompute, and view.
func ensembleResident(ctx context.Context, norm *mat.Dense, full *bspline.WeightMatrix, basis *bspline.Basis, cfg Config, res *Result) error {
	n, m := full.Genes, full.Samples
	ec := cfg.Ensemble
	mSub, err := ec.sampleCount(m)
	if err != nil {
		return err
	}
	lo, hi, partial := ensembleRange(cfg, res)
	ens := grn.NewEnsemble(n)

	var led *ensembleLedger
	if cfg.CheckpointPath != "" {
		var next int
		led, next, err = loadEnsembleLedger(cfg, n, m, res)
		if err != nil {
			return err
		}
		led.restore(res, ens, next)
		lo = next
	}

	view := bspline.NewPanelWeights(basis, n, mSub)
	var kit []*tileScanner
	sessionDone := 0
	for b := lo; b < hi; b++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		idx := perm.SubsampleIndices(ec.Seed, uint64(b), m, mSub)
		res.Timer.Time("view", func() {
			view.FillView(full, idx)
		})
		switch {
		case cfg.Engine == Cluster:
		case kit == nil:
			kit = newScanKit(view, cfg)
		default:
			rebindKit(kit, view)
		}
		res.EnsembleStencilsReused += int64(n) * int64(mSub)

		bcfg := cfg
		bcfg.CheckpointPath = ""
		bcfg.Progress = wrapEnsembleProgress(cfg.Progress, sessionDone, hi-lo)
		bres := &Result{Timer: res.Timer}
		switch cfg.Engine {
		case Cluster:
			err = runCluster(ctx, view, bcfg, bres)
		case Phi:
			err = runPhi(ctx, view, bcfg, bres, kit)
		case Hybrid:
			err = runHybrid(ctx, view, bcfg, bres, kit)
		default:
			_, _, err = hostScan(ctx, view, bcfg, bres, kit)
		}
		if err != nil {
			return err
		}
		var rows grn.RowFunc
		if cfg.CMIFilter {
			rows = viewRows(norm, idx)
		}
		if err := applyFilters(bcfg, bres, rows); err != nil {
			return err
		}
		recordBootstrap(res, bres, ens, b, partial)
		sessionDone++
		if led != nil {
			if err := led.bootstrapDone(b, bres, ens); err != nil {
				return err
			}
		}
	}
	finishEnsemble(cfg, res, ens)
	return nil
}

// oocEnsemble is the bootstrap-consensus driver for the disk-backed
// path. The fixed-size worker kits are built once at the subsample
// width (plus a full-width staging buffer each: staged rows normalize
// over the full sample set before the view gather, matching the
// resident path bit for bit) and reused across bootstraps; the panel
// store, its budget, and the spill file are likewise shared, so panels
// hot from one bootstrap serve the next without a disk read.
func oocEnsemble(ctx context.Context, store *panelstore.Store, cfg Config, timer *stats.Timer) (*Result, error) {
	res := &Result{Timer: timer}
	n, m := store.Rows(), store.Cols()
	ec := cfg.Ensemble
	mSub, err := ec.sampleCount(m)
	if err != nil {
		return nil, err
	}
	basis, err := bspline.New(cfg.Order, cfg.Bins)
	if err != nil {
		return nil, err
	}
	pool := perm.MustNewPool(cfg.Seed, mSub, cfg.Permutations)
	tiles := tile.Decompose(n, cfg.TileSize)

	// idxBuf is the live sample view every worker reads; each bootstrap
	// rewrites it in place between scans.
	idxBuf := make([]int32, mSub)
	workers, scratch, err := oocWorkers(store, cfg, basis, pool, idxBuf)
	if err != nil {
		return nil, err
	}
	ingestPeak := store.ResetPeak()

	lo, hi, partial := ensembleRange(cfg, res)
	ens := grn.NewEnsemble(n)
	var led *ensembleLedger
	if cfg.CheckpointPath != "" {
		var next int
		led, next, err = loadEnsembleLedger(cfg, n, m, res)
		if err != nil {
			return nil, err
		}
		led.restore(res, ens, next)
		lo = next
	}

	sessionDone := 0
	for b := lo; b < hi; b++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		idx := perm.SubsampleIndices(ec.Seed, uint64(b), m, mSub)
		copy(idxBuf, idx)

		bcfg := cfg
		bcfg.CheckpointPath = ""
		bcfg.Progress = wrapEnsembleProgress(cfg.Progress, sessionDone, hi-lo)
		bres := &Result{Timer: timer}
		if err := oocScanPass(ctx, store, bcfg, bres, workers, tiles); err != nil {
			return nil, err
		}
		var rows grn.RowFunc
		if cfg.CMIFilter {
			rows = storeRowsView(store, idx)
		}
		if err := applyFilters(bcfg, bres, rows); err != nil {
			return nil, err
		}
		recordBootstrap(res, bres, ens, b, partial)
		sessionDone++
		if led != nil {
			if err := led.bootstrapDone(b, bres, ens); err != nil {
				return nil, err
			}
		}
	}
	finishEnsemble(cfg, res, ens)

	// Store and budget accounting once over the whole ensemble — the
	// panel cache persists across bootstraps, so these are cumulative
	// by construction.
	reportStore(res, store, scratch, ingestPeak)
	return res, nil
}
