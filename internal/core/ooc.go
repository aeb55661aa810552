package core

import (
	"context"
	"fmt"

	"repro/internal/bspline"
	"repro/internal/mat"
	"repro/internal/mi"
	"repro/internal/panelstore"
	"repro/internal/perm"
	"repro/internal/tile"
)

// IngestBudget is the in-memory panel budget of a panel store that
// ingests a samples-wide matrix in panels of panelRows rows for a run
// under budget. The store's three fixed buffers (staging, transpose,
// io) ride along for its whole life, so they are reserved from the
// budget, which keeps the ingest-phase footprint under the ceiling the
// scan phase honors. A budget too small for them gives 0: the store
// spills everything and the scan's budget floor reports the sizing
// error.
func IngestBudget(budget int64, samples, panelRows int) int64 {
	return max(0, budget-3*int64(panelRows)*int64(samples)*4)
}

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
	wk := newOOCWorker(nil, basis, pool, cfg, samples, idx)
	panelBytes := int64(cfg.PanelRows) * int64(samples) * 4
	scratch := wk.bytes(basis, cfg)*int64(cfg.Workers) + 3*panelBytes
	maxPins := int64(2 * cfg.Workers)
	if np := int64((genes + cfg.PanelRows - 1) / cfg.PanelRows); np < maxPins {
		maxPins = np
	}
	return scratch + maxPins*panelBytes, nil
}

// oocWorker is one worker's fixed-size apparatus for the out-of-core
// scan: a tileScanner whose row source is the worker itself, staging
// rows from the panel store. Nothing in it scales with the gene count:
// the weight matrix, estimator, and workspace are all sized to one tile (at most 2·TileSize genes), and every tile
// re-fills them in place. Bit-identity with the resident engines
// follows from the shared building blocks: the same rank transform per
// row, the same stencil precompute per gene, the same kernels — only
// the gene indices are tile-local.
type oocWorker struct {
	tileScanner
	store   *panelstore.Store
	tileWM  *bspline.WeightMatrix
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

// newOOCWorker builds one worker's fixed scratch over store (nil when
// only sizing). samples is the store row width; idx, when non-nil, is
// the ensemble sample-index view (the worker's kernels then run at
// len(idx) width).
func newOOCWorker(store *panelstore.Store, basis *bspline.Basis, pool *perm.Pool, cfg Config, samples int, idx []int32) *oocWorker {
	width := samples
	if idx != nil {
		width = len(idx)
	}
	tileWM := bspline.NewPanelWeights(basis, 2*cfg.TileSize, width)
	est := mi.NewEstimator(tileWM)
	k := &pairKernel{est: est, pool: pool, prec: cfg.Precision}
	w := &oocWorker{
		tileScanner: tileScanner{k: k, ws: k.newWorkspace()},
		store:       store,
		tileWM:      tileWM,
		normBuf:     make([]float32, 2*cfg.TileSize*width),
		rows:        make([][]float32, 0, 2*cfg.TileSize),
		samples:     width,
		idx:         idx,
	}
	w.src = w
	if idx != nil {
		w.fullBuf = make([]float32, samples)
	}
	return w
}

// bytes is the worker's whole scratch footprint — the per-worker term
// of the memory-budget accounting.
func (w *oocWorker) bytes(basis *bspline.Basis, cfg Config) int64 {
	b := bspline.PanelBytes(basis, 2*cfg.TileSize, w.samples)
	b += int64(w.ws.Bytes())
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

// rebind re-derives weights and marginal entropies for the currently
// staged rows and invalidates the cached row keys: local indices mean
// a stale one would alias a different gene.
func (w *oocWorker) rebind() {
	w.tileWM.FillPanel(w.rows)
	w.k.est.Reset(w.tileWM)
	w.ws.InvalidateRowKeys()
}

// stageTile pins the tile's panels, stages its i-rows as local genes
// from 0 (and, off the diagonal, its j-rows after them), and rebinds.
// On a diagonal tile both ranges are the same staged rows.
func (w *oocWorker) stageTile(t tile.Tile) (iOff, jOff int, err error) {
	store := w.store
	w.rows = w.rows[:0]
	pinI, err := store.Panel(store.PanelOf(t.I0))
	if err != nil {
		return 0, 0, err
	}
	pinJ := pinI
	if pj := store.PanelOf(t.J0); pj != pinI.Index() {
		pinJ, err = store.Panel(pj)
		if err != nil {
			pinI.Release()
			return 0, 0, err
		}
	}
	nI := t.I1 - t.I0
	for r := 0; r < nI; r++ {
		w.stage(pinI, t.I0+r, r)
	}
	jBase := 0 // diagonal tile: the j range is the i range
	if t.I0 != t.J0 {
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
	return t.I0, t.J0 - jBase, nil
}

// stagePair stages one null-sample pair (a, b) as local genes (0, 1).
func (w *oocWorker) stagePair(a, b int) (i, j int, err error) {
	store := w.store
	w.rows = w.rows[:0]
	pinA, err := store.Panel(store.PanelOf(a))
	if err != nil {
		return 0, 0, err
	}
	pinB := pinA
	if pb := store.PanelOf(b); pb != pinA.Index() {
		pinB, err = store.Panel(pb)
		if err != nil {
			pinA.Release()
			return 0, 0, err
		}
	}
	w.stage(pinA, a, 0)
	w.stage(pinB, b, 1)
	if pinB != pinA {
		pinB.Release()
	}
	pinA.Release()
	w.rebind()
	return 0, 1, nil
}

// oocWorkers builds the per-worker kits and carves the store's panel
// budget out of cfg.MemoryBudget: worker scratch is a fixed cost the
// resident panels must make room for. idx is the ensemble sample view
// (nil for plain scans). It returns the workers and the total scratch
// charge (worker kits plus the store's three fixed buffers).
func oocWorkers(store *panelstore.Store, cfg Config, basis *bspline.Basis, pool *perm.Pool, idx []int32) ([]*oocWorker, int64, error) {
	workers := make([]*oocWorker, cfg.Workers)
	for w := range workers {
		workers[w] = newOOCWorker(store, basis, pool, cfg, store.Cols(), idx)
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

	// The scan's checkpoint is byte-compatible with the resident
	// engines' via the shared fingerprint, so committed tiles survive a
	// kill and are never re-read from the store on resume.
	if err := oocScanPass(ctx, store, cfg, res, workers, tiles); err != nil {
		return err
	}

	reportStore(res, store, scratch, ingestPeak)
	return nil
}

// reportStore fills the panel-store counters and the budget ceiling of
// an out-of-core run into res.
func reportStore(res *Result, store *panelstore.Store, scratch, ingestPeak int64) {
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
	res.PeakTileBytes = max(st.PeakBytes+scratch, ingestPeak+3*store.PanelBytes())
}

// oocScanPass runs phases 3 and 4 of the out-of-core scan with
// pre-built workers — one full scan for the plain path, one bootstrap
// for the ensemble loop (which reuses the workers across passes and
// reads the store/budget counters once at the end). In phase 3 each
// worker stages a null pair's two rows as local genes (0, 1); every
// permuted MI is bit-identical to the resident computation, so the
// threshold matches the resident engines exactly.
func oocScanPass(ctx context.Context, store *panelstore.Store, cfg Config, res *Result, workers []*oocWorker, tiles []tile.Tile) error {
	log, err := openLog(cfg, Fingerprint(store.Rows(), store.Cols(), cfg), len(tiles), res)
	if err != nil {
		return err
	}
	scanners := make([]*tileScanner, len(workers))
	for w, wk := range workers {
		scanners[w] = &wk.tileScanner
	}
	if err := poolScan(ctx, cfg, res, log, tiles, scanners); err != nil {
		return err
	}
	log.report(res)
	return nil
}
