package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bspline"
	"repro/internal/grn"
	"repro/internal/mat"
	"repro/internal/mi"
	"repro/internal/panelstore"
	"repro/internal/perm"
	"repro/internal/tile"
)

// MinMemoryBudget reports the smallest admissible Config.MemoryBudget
// for an out-of-core run over a genes×samples expression matrix under
// cfg: every worker's fixed scratch, the panel store's three fixed
// buffers, and the pinned-panel floor (each of the Workers workers pins
// at most two panels at once). It uses the exact accounting oocScan
// enforces, so a run configured with this budget is guaranteed to be
// accepted — and to round-trip panels through the spill file, since the
// store keeps nothing resident beyond its pins.
func MinMemoryBudget(genes, samples int, cfg Config) (int64, error) {
	cfg.Engine = OutOfCore
	if cfg.MemoryBudget == 0 {
		cfg.MemoryBudget = 1 // placeholder; only the derived sizes matter
	}
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	basis, err := bspline.New(cfg.Order, cfg.Bins)
	if err != nil {
		return 0, err
	}
	var idx []int32
	width := samples
	if cfg.Ensemble.Enabled() {
		mSub, serr := cfg.Ensemble.sampleCount(samples)
		if serr != nil {
			return 0, serr
		}
		idx = make([]int32, mSub)
		width = mSub
	}
	pool := perm.MustNewPool(cfg.Seed, width, cfg.Permutations)
	wk := newOOCWorker(basis, pool, cfg, samples, idx)
	panelBytes := int64(cfg.PanelRows) * int64(samples) * 4
	scratch := wk.bytes(basis, cfg)*int64(cfg.Workers) + 3*panelBytes
	maxPins := int64(2 * cfg.Workers)
	if np := int64((genes + cfg.PanelRows - 1) / cfg.PanelRows); np < maxPins {
		maxPins = np
	}
	return scratch + maxPins*panelBytes, nil
}

// oocWorker is one worker's fixed-size apparatus for the out-of-core
// scan. Nothing in it scales with the gene count: the weight matrix,
// estimator, workspace, and permuted-row cache are all sized to one
// tile (at most 2·TileSize genes), and every tile re-fills them in
// place. Bit-identity with the resident engines follows from the
// shared building blocks: the same rank transform per row, the same
// stencil precompute per gene, the same kernels — only the gene
// indices are tile-local.
type oocWorker struct {
	pk      *pairKernel
	tileWM  *bspline.WeightMatrix
	ws      *mi.Workspace
	pc      *mi.PermCache
	normBuf []float32   // 2·TileSize rank-normalized row copies
	rows    [][]float32 // row views into normBuf for FillPanel
	samples int
	// idx, when non-nil, is the ensemble scan's sample-index view: every
	// staged row is rank-normalized at full width into fullBuf and the
	// idx columns are gathered into the tile-local copy — the exact
	// transform the resident ensemble's FillView applies, so the two
	// paths stay bit-identical. The slice is shared by all workers and
	// rewritten between bootstraps (never mid-scan).
	idx     []int32
	fullBuf []float32
}

// newOOCWorker builds one worker's fixed scratch. samples is the store
// row width; idx, when non-nil, is the ensemble sample-index view (the
// worker's kernels then run at len(idx) width).
func newOOCWorker(basis *bspline.Basis, pool *perm.Pool, cfg Config, samples int, idx []int32) *oocWorker {
	width := samples
	if idx != nil {
		width = len(idx)
	}
	tileWM := bspline.NewPanelWeights(basis, 2*cfg.TileSize, width)
	est := mi.NewEstimator(tileWM)
	w := &oocWorker{
		pk: &pairKernel{
			est:    est,
			pool:   pool,
			kind:   cfg.Kernel,
			prec:   cfg.Precision,
			legacy: cfg.LegacyPermutation,
		},
		tileWM:  tileWM,
		ws:      mi.NewWorkspacePrec(est, cfg.Precision),
		normBuf: make([]float32, 2*cfg.TileSize*width),
		rows:    make([][]float32, 0, 2*cfg.TileSize),
		samples: width,
		idx:     idx,
	}
	if idx != nil {
		w.fullBuf = make([]float32, samples)
	}
	if cfg.Prescreen {
		// Reserve the screener arena for a full tile's gene capacity and
		// the workspace's coarse-joint scratch now, so bytes() is final
		// before the budget check.
		w.pk.screen = mi.NewScreenerCap(est, cfg.Precision, 2*cfg.TileSize)
		w.pk.screen.EnsureScratch(w.ws)
	}
	w.pc = w.pk.newPermCache(cfg)
	return w
}

// bytes is the worker's whole scratch footprint — the per-worker term
// of the memory-budget accounting.
func (w *oocWorker) bytes(basis *bspline.Basis, cfg Config) int64 {
	b := bspline.PanelBytes(basis, 2*cfg.TileSize, w.samples)
	b += int64(w.ws.Bytes())
	if w.pc != nil {
		b += int64(w.pc.Bytes())
	}
	if w.pk.screen != nil {
		b += int64(w.pk.screen.Bytes())
	}
	b += int64(len(w.normBuf)) * 4
	b += int64(len(w.fullBuf)) * 4
	// Estimator marginal entropies (8+4 bytes) and certificate
	// reciprocals (8 per bin) per gene.
	b += int64(2*cfg.TileSize) * int64(12+8*basis.Bins())
	return b
}

// stage copies global row g out of the pinned panel into local slot r,
// rank-normalizes the copy, and registers it as local gene r. Pinned
// panel rows are shared with other workers and must stay raw.
func (w *oocWorker) stage(p *panelstore.Panel, g, r int) {
	dst := w.normBuf[r*w.samples : (r+1)*w.samples]
	if w.idx == nil {
		copy(dst, p.Row(g))
		mat.RankNormalizeValues(dst)
	} else {
		// Ensemble view: normalize over the FULL sample set, then gather
		// the bootstrap's columns — matching the resident path, whose
		// FillView gathers stencils of full-set-normalized values.
		copy(w.fullBuf, p.Row(g))
		mat.RankNormalizeValues(w.fullBuf)
		for t, s := range w.idx {
			dst[t] = w.fullBuf[s]
		}
	}
	w.rows = append(w.rows, dst)
}

// rebind re-derives weights, marginal entropies, and cache bindings for
// the currently staged rows. Every index-dependent cache is
// invalidated: local indices mean a stale row key or permuted-row entry
// would alias a different gene.
func (w *oocWorker) rebind() {
	w.tileWM.FillPanel(w.rows)
	w.pk.est.Reset(w.tileWM)
	w.ws.InvalidateRowKeys()
	if w.pc != nil {
		w.pc.Rebind(w.pk.est)
	}
	if w.pk.screen != nil {
		w.pk.screen.Reset(w.pk.est)
	}
}

// loadTile pins the tile's panels, stages its i-rows (and, off the
// diagonal, its j-rows after them), and rebinds. It returns the local
// index base of the j range: on a diagonal tile both ranges are the
// same staged rows.
func (w *oocWorker) loadTile(store *panelstore.Store, t tile.Tile) (jBase int, err error) {
	w.rows = w.rows[:0]
	pinI, err := store.Panel(store.PanelOf(t.I0))
	if err != nil {
		return 0, err
	}
	pinJ := pinI
	if pj := store.PanelOf(t.J0); pj != pinI.Index() {
		pinJ, err = store.Panel(pj)
		if err != nil {
			pinI.Release()
			return 0, err
		}
	}
	nI := t.I1 - t.I0
	for r := 0; r < nI; r++ {
		w.stage(pinI, t.I0+r, r)
	}
	if t.I0 == t.J0 {
		jBase = 0 // diagonal tile: the j range is the i range
	} else {
		jBase = nI
		for r := 0; r < t.J1-t.J0; r++ {
			w.stage(pinJ, t.J0+r, nI+r)
		}
	}
	if pinJ != pinI {
		pinJ.Release()
	}
	pinI.Release()
	w.rebind()
	return jBase, nil
}

// loadPair stages one null-sample pair (a, b) as local genes (0, 1).
func (w *oocWorker) loadPair(store *panelstore.Store, a, b int) error {
	w.rows = w.rows[:0]
	pinA, err := store.Panel(store.PanelOf(a))
	if err != nil {
		return err
	}
	pinB := pinA
	if pb := store.PanelOf(b); pb != pinA.Index() {
		pinB, err = store.Panel(pb)
		if err != nil {
			pinA.Release()
			return err
		}
	}
	w.stage(pinA, a, 0)
	w.stage(pinB, b, 1)
	if pinB != pinA {
		pinB.Release()
	}
	pinA.Release()
	w.rebind()
	return nil
}

// oocWorkers builds the per-worker kits and carves the store's panel
// budget out of cfg.MemoryBudget: worker scratch is a fixed cost the
// resident panels must make room for. idx is the ensemble sample view
// (nil for plain scans). It returns the workers and the total scratch
// charge (worker kits plus the store's three fixed buffers).
func oocWorkers(store *panelstore.Store, cfg Config, basis *bspline.Basis, pool *perm.Pool, idx []int32) ([]*oocWorker, int64, error) {
	workers := make([]*oocWorker, cfg.Workers)
	for w := range workers {
		workers[w] = newOOCWorker(basis, pool, cfg, store.Cols(), idx)
	}
	perWorker := workers[0].bytes(basis, cfg)
	scratch := perWorker*int64(cfg.Workers) + 3*store.PanelBytes() // + staging/transpose/io buffers
	maxPins := int64(2 * cfg.Workers)
	if np := int64(store.NumPanels()); np < maxPins {
		maxPins = np
	}
	storeBudget := cfg.MemoryBudget - scratch
	if floor := maxPins * store.PanelBytes(); storeBudget < floor {
		return nil, 0, fmt.Errorf("core: memory budget %d too small: %d workers need %d scratch + %d pinned panel bytes (minimum %d)",
			cfg.MemoryBudget, cfg.Workers, scratch, floor, scratch+floor)
	}
	store.SetBudget(storeBudget)
	return workers, scratch, nil
}

// oocScan is the disk-backed counterpart of hostScan: the same
// threshold estimation and pair-tile scan, but every gene row is
// fetched from the panel store on demand and normalized/precomputed
// per tile, so the working set is the memory budget — not the genome.
func oocScan(ctx context.Context, store *panelstore.Store, cfg Config, res *Result) error {
	n, m := store.Rows(), store.Cols()
	basis, err := bspline.New(cfg.Order, cfg.Bins)
	if err != nil {
		return err
	}
	pool := perm.MustNewPool(cfg.Seed, m, cfg.Permutations)
	tiles := tile.Decompose(n, cfg.TileSize)

	workers, scratch, err := oocWorkers(store, cfg, basis, pool, nil)
	if err != nil {
		return err
	}
	// The peak so far belongs to the ingest phase, whose fixed overhead
	// is the store's three buffers, not the workers' scratch. Account
	// the phases separately and report the larger ceiling at the end.
	ingestPeak := store.ResetPeak()

	// Checkpoint setup — byte-compatible with the resident engines via
	// the shared fingerprint, so committed tiles survive a kill and are
	// never re-read from the store on resume.
	var ck *ckptManager
	resumed := false
	if cfg.CheckpointPath != "" {
		state, res2, err := loadResumeState(cfg, fingerprintDims(n, m, cfg), len(tiles), res)
		if err != nil {
			return err
		}
		resumed = res2
		ck = &ckptManager{fsys: cfg.FS, path: cfg.CheckpointPath, every: cfg.CheckpointEvery, state: state}
	}

	if err := oocScanPass(ctx, store, cfg, res, workers, tiles, ck, resumed); err != nil {
		return err
	}

	st := store.Stats()
	res.PanelHits = st.Hits
	res.PanelLoads = st.Misses
	res.PanelEvictions = st.Evictions
	res.PanelBytesSpilled = st.BytesSpilled
	res.PanelBytesLoaded = st.BytesLoaded
	res.SpillReadRetries += st.LoadRetries
	res.StorePeakBytes = st.PeakBytes
	// The true ceiling is the larger of the two phase peaks: resident
	// panels plus the store's own buffers during ingest, resident panels
	// plus every worker's fixed scratch (and those buffers) during the
	// scan. The phases never overlap, so they are not summed.
	res.PeakTileBytes = st.PeakBytes + scratch
	if p := ingestPeak + 3*store.PanelBytes(); p > res.PeakTileBytes {
		res.PeakTileBytes = p
	}
	return nil
}

// oocScanPass runs phases 3 and 4 of the out-of-core scan with
// pre-built workers — one full scan for the plain path, one bootstrap
// for the ensemble loop (which reuses the workers across passes and
// reads the store/budget counters once at the end). Cache counters are
// reported as this pass's deltas.
func oocScanPass(ctx context.Context, store *panelstore.Store, cfg Config, res *Result, workers []*oocWorker, tiles []tile.Tile, ck *ckptManager, resumed bool) error {
	n := store.Rows()

	// Phase 3: pooled-null threshold over sampled pairs. Each worker
	// stages a pair's two rows as local genes (0, 1); every permuted MI is
	// bit-identical to the resident computation, so the threshold matches
	// the resident engines exactly.
	evals := make([]func(i, j int, out []float64) error, len(workers))
	for w, wk := range workers {
		evals[w] = func(i, j int, out []float64) error {
			if err := wk.loadPair(store, i, j); err != nil {
				return err
			}
			wk.pk.null(0, 1, out, wk.ws)
			return nil
		}
	}
	if err := scanThreshold(ctx, cfg, n, res, ck, resumed, evals); err != nil {
		return err
	}
	for _, wk := range workers {
		wk.pk.thresh = res.Threshold
	}

	// Phase 4: tile scan over the pending tiles.
	var errMu sync.Mutex
	var scanErr error
	fail := func(err error) {
		if err == nil {
			return
		}
		errMu.Lock()
		if scanErr == nil {
			scanErr = err
		}
		errMu.Unlock()
	}
	firstErr := func() error {
		errMu.Lock()
		defer errMu.Unlock()
		return scanErr
	}
	pending := make([]int, 0, len(tiles))
	for i := range tiles {
		if ck == nil || !ck.state.Done[i] {
			pending = append(pending, i)
		}
	}
	evalsPerTile := make([]int64, len(tiles))
	busy := make([]float64, cfg.Workers)
	edgesPerWorker := make([][]grn.Edge, cfg.Workers)
	var totalEvals, totalPermEvals, totalScreened, totalSkipped, totalCertified int64
	var totalScreenNanos int64
	var cacheHits, cacheMisses int64
	var tilesDone int64
	res.Timer.Time("mi", func() {
		sched := tile.NewScheduler(cfg.Policy, len(pending), cfg.Workers)
		var wg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wk := workers[w]
				cert0 := wk.ws.Certified()
				var hits0, misses0 int64
				if wk.pc != nil {
					hits0, misses0 = wk.pc.Hits(), wk.pc.Misses()
				}
				start := time.Now()
				var local []grn.Edge
				var evals, permEvals, screened, skipped int64
				var screenNanos int64
				var mask []bool
				for {
					pi := sched.Next(w)
					if pi == -1 || ctx.Err() != nil {
						break
					}
					ti := pending[pi]
					t := tiles[ti]
					var endSpan func()
					if cfg.Trace != nil {
						endSpan = cfg.Trace.Span(w, fmt.Sprintf("tile-%d %s", ti, t))
					}
					jBase, err := wk.loadTile(store, t)
					if err != nil {
						fail(err)
						break
					}
					var tileScreened int64
					if wk.pk.screen != nil {
						// Screen per pinned panel pair: the bound runs on the
						// same tile-local weights the exact kernel would use,
						// so the budget accounting is untouched.
						localTile := tile.Tile{I0: 0, I1: t.I1 - t.I0, J0: jBase, J1: jBase + t.J1 - t.J0}
						screenStart := time.Now()
						mask, tileScreened = wk.pk.screenTile(localTile, wk.ws, mask)
						screenNanos += time.Since(screenStart).Nanoseconds()
					}
					var tilePairEvals, tilePermEvals int64
					var tileEdges []grn.Edge
					idx := 0
					t.ForEachPair(func(i, j int) {
						if wk.pk.screen != nil && mask[idx] {
							idx++
							return
						}
						idx++
						obs, sig, ev, pe, sk := wk.pk.decide(i-t.I0, j-t.J0+jBase, wk.ws, wk.pc)
						tilePairEvals += ev
						tilePermEvals += pe
						skipped += sk
						if sig {
							tileEdges = append(tileEdges, grn.Edge{I: i, J: j, Weight: obs})
						}
					})
					tileEvals := tilePairEvals + tilePermEvals
					atomic.AddInt64(&evalsPerTile[ti], tileEvals)
					evals += tilePairEvals
					permEvals += tilePermEvals
					screened += tileScreened
					if ck != nil {
						ck.tileDone(ti, tilePairEvals, tilePermEvals, tileScreened, tileEdges)
					} else {
						local = append(local, tileEdges...)
					}
					if endSpan != nil {
						endSpan()
					}
					if cfg.Trace != nil {
						cfg.Trace.Counter(w, "perm_skipped", float64(skipped))
						cfg.Trace.Counter(w, "perm_certified", float64(wk.ws.Certified()-cert0))
						if wk.pk.screen != nil {
							cfg.Trace.Counter(w, "pairs_screened", float64(screened))
						}
						if wk.pc != nil {
							cfg.Trace.Counter(w, "permcache_hits", float64(wk.pc.Hits()))
						}
					}
					if cfg.Progress != nil {
						cfg.Progress(int(atomic.AddInt64(&tilesDone, 1)), len(pending))
					}
				}
				busy[w] = time.Since(start).Seconds()
				edgesPerWorker[w] = local
				atomic.AddInt64(&totalEvals, evals)
				atomic.AddInt64(&totalPermEvals, permEvals)
				atomic.AddInt64(&totalScreened, screened)
				atomic.AddInt64(&totalSkipped, skipped)
				atomic.AddInt64(&totalCertified, wk.ws.Certified()-cert0)
				atomic.AddInt64(&totalScreenNanos, screenNanos)
				if wk.pc != nil {
					atomic.AddInt64(&cacheHits, wk.pc.Hits()-hits0)
					atomic.AddInt64(&cacheMisses, wk.pc.Misses()-misses0)
				}
			}(w)
		}
		wg.Wait()
	})
	if ck != nil {
		if err := ck.flush(); err != nil {
			return err
		}
	}
	if err := firstErr(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	res.PairsEvaluated = totalEvals
	res.PermEvaluations = totalPermEvals
	res.PairsScreenedOut = totalScreened
	res.PermutationsSkipped = totalSkipped
	res.PermutationsCertified = totalCertified
	res.PermCacheHits = cacheHits
	res.PermCacheMisses = cacheMisses
	if cfg.Prescreen {
		d := time.Duration(totalScreenNanos)
		res.ScreenPhaseSeconds = d.Seconds()
		res.Timer.Add("screen", d)
	}
	res.Imbalance = tile.Imbalance(busy)

	net := grn.New(n)
	if ck != nil {
		for _, e := range ck.state.Edges {
			net.AddEdge(e.I, e.J, e.Weight)
		}
	} else {
		for _, edges := range edgesPerWorker {
			for _, e := range edges {
				net.AddEdge(e.I, e.J, e.Weight)
			}
		}
	}
	res.Network = net
	return nil
}
