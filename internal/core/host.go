package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/bspline"
	"repro/internal/grn"
	"repro/internal/mi"
	"repro/internal/tile"
)

// rowSource stages genes' weight rows for one worker's kernel — the
// out-of-core engine's panel store. Resident engines have none: their
// kernel indexes the whole-genome weight matrix by global gene index.
type rowSource interface {
	// stageTile makes tile t's rows visible to the kernel and returns
	// the offsets that map the tile's global gene indices i and j to
	// kernel indices i-iOff and j-jOff.
	stageTile(t tile.Tile) (iOff, jOff int, err error)
	// stagePair makes genes a and b visible to the kernel and returns
	// their kernel indices.
	stagePair(a, b int) (i, j int, err error)
}

// tileScanner is one worker's (or cluster rank's) scan apparatus: a pair
// kernel, its scratch, and the row source that feeds it (nil for
// resident weights).
type tileScanner struct {
	k   *pairKernel
	ws  *mi.Workspace
	src rowSource
	// sum is this worker's running count of permutation-test work since
	// its scan began, reported as the per-worker trace counters.
	sum tileCounts
}

// observeTile computes the observed MI of every pair of tile t and
// keeps the threshold survivors — the only phase-4 loop over a whole
// tile. Global gene indices map to kernel indices i-iOff and j-jOff;
// survivors carry the global ones.
func (k *pairKernel) observeTile(t tile.Tile, iOff, jOff int, ws *mi.Workspace) (survivors []grn.Edge, c tileCounts) {
	t.ForEachPair(func(i, j int) {
		obs, below := k.observe(i-iOff, j-jOff, ws)
		c.pairEvals++
		if below {
			c.pairsCertified++
		} else if obs >= k.thresh {
			survivors = append(survivors, grn.Edge{I: i, J: j, Weight: obs})
		}
	})
	c.survived = int64(len(survivors))
	return survivors, c
}

// testTile runs the permutation test of each survivor in pairs, all of
// one tile, from its stored observed MI.
func (k *pairKernel) testTile(pairs []grn.Edge, iOff, jOff int, ws *mi.Workspace) (pass []bool, c tileCounts) {
	cert0 := ws.Certified()
	pass = make([]bool, len(pairs))
	for y, e := range pairs {
		sig, pe, sk := k.test(e.I-iOff, e.J-jOff, e.Weight, ws)
		pass[y] = sig
		c.permEvals += pe
		c.skipped += sk
	}
	c.tested = int64(len(pairs))
	c.certified = ws.Certified() - cert0
	return pass, c
}

// null is the worker's phase-3 evaluator: the q permuted MIs of null
// pair (a, b) into out.
func (sc *tileScanner) null(a, b int, out []float64) error {
	if sc.src != nil {
		var err error
		if a, b, err = sc.src.stagePair(a, b); err != nil {
			return err
		}
	}
	sc.k.null(a, b, out, sc.ws)
	return nil
}

// stage makes tile t's rows visible to the kernel and returns the
// kernel index offsets (0, 0 for resident weights).
func (sc *tileScanner) stage(t tile.Tile) (iOff, jOff int, err error) {
	if sc.src == nil {
		return 0, 0, nil
	}
	return sc.src.stageTile(t)
}

// observe stages tile ti, keeps its threshold survivors and, when
// test is set, tests them while the tile is still staged, then commits
// them to log. With tracing on it records the tile's span on trace row
// `row`, and after a test the worker's running counters. It returns
// the survivors.
func (sc *tileScanner) observe(cfg Config, log *commitLog, row, ti int, t tile.Tile, test bool) ([]grn.Edge, error) {
	var endSpan func()
	if cfg.Trace != nil {
		endSpan = cfg.Trace.Span(row, fmt.Sprintf("tile-%d %s", ti, t))
	}
	iOff, jOff, err := sc.stage(t)
	if err != nil {
		return nil, err
	}
	survivors, c := sc.k.observeTile(t, iOff, jOff, sc.ws)
	var pass []bool
	if test {
		var tc tileCounts
		pass, tc = sc.k.testTile(survivors, iOff, jOff, sc.ws)
		c.add(tc)
		sc.sum.add(tc)
	}
	log.commit(ti, survivors, pass, c)
	if endSpan != nil {
		endSpan()
		if test {
			sc.traceCounters(cfg, row)
		}
	}
	return survivors, nil
}

// test stages the tile of test-round tile x, tests its requested
// survivors, and commits their verdicts to log. With tracing on it
// records the tile's span and the worker's running counters on trace
// row `row`.
func (sc *tileScanner) test(cfg Config, log *commitLog, row int, edges []grn.Edge, x int, tt roundTile, t tile.Tile) error {
	var endSpan func()
	if cfg.Trace != nil {
		endSpan = cfg.Trace.Span(row, fmt.Sprintf("test-%d %s", tt.ti, t))
	}
	pairs := make([]grn.Edge, len(tt.ids))
	for y, id := range tt.ids {
		pairs[y] = edges[id]
	}
	iOff, jOff, err := sc.stage(t)
	if err != nil {
		return err
	}
	pass, c := sc.k.testTile(pairs, iOff, jOff, sc.ws)
	log.commitTest(x, pass, c)
	sc.sum.add(c)
	if endSpan != nil {
		endSpan()
		sc.traceCounters(cfg, row)
	}
	return nil
}

// traceCounters samples the worker's amortization counter tracks on
// trace row `row` at a tile boundary: permutations skipped by early
// exit and permutations the certificate decided.
func (sc *tileScanner) traceCounters(cfg Config, row int) {
	cfg.Trace.Counter(row, "perm_skipped", float64(sc.sum.skipped))
	cfg.Trace.Counter(row, "perm_certified", float64(sc.sum.certified))
}

// poolScan runs phases 3 and 4 into log on a goroutine pool, one
// scanner per worker — the schedule of the host (and Phi and Hybrid)
// scan, the out-of-core scan, and every ensemble bootstrap on either.
// Phase 3 goes through the commit log. Phase 4, timed as the "mi"
// phase, observes the log's pending tiles, then alternates rounds of
// the test schedule (commitLog.selectTests) with test passes over the
// round's tiles until the schedule requests nothing; each pass
// schedules its tiles over the workers under cfg.Policy. Without DPI
// the schedule requests every survivor, so observation tests each
// tile's survivors while the tile is still staged — an out-of-core
// tile is staged once, not twice — and the rounds test only the
// survivors a resumed checkpoint holds untested. The first tile error
// (or ctx's cancellation) stops every worker at its next tile
// boundary; the work committed by then is still flushed to the
// checkpoint. It fills Imbalance and PeakTileBytes into res; the
// caller then publishes the log (commitLog.report).
func poolScan(ctx context.Context, cfg Config, res *Result, log *commitLog, tiles []tile.Tile, scanners []*tileScanner) error {
	nulls := make([]func(i, j int, out []float64) error, len(scanners))
	for w, sc := range scanners {
		nulls[w] = sc.null
	}
	null, err := log.threshold(ctx, cfg, nullPhase{evals: nulls, timer: res.Timer})
	if err != nil {
		return err
	}
	for _, sc := range scanners {
		sc.k.thresh = null.Threshold
		sc.sum = tileCounts{}
	}
	testAll := !cfg.DPI

	busy := make([]float64, len(scanners))
	res.Timer.Time("mi", func() {
		err = runPass(ctx, cfg, log, scanners, busy, log.pending(), func(sc *tileScanner, w, ti int) error {
			_, err := sc.observe(cfg, log, w, ti, tiles[ti], testAll)
			return err
		})
		for round := 1; err == nil; round++ {
			var work []roundTile
			if work, err = log.selectTests(cfg, round); err != nil || len(work) == 0 {
				break
			}
			edges := log.survivors()
			err = runPass(ctx, cfg, log, scanners, busy, log.pendingTests(), func(sc *tileScanner, w, x int) error {
				return sc.test(cfg, log, w, edges, x, work[x], tiles[work[x].ti])
			})
		}
	})
	// Persist whatever completed, even on failure or cancellation.
	if ferr := log.flush(); ferr != nil {
		return ferr
	}
	if err != nil {
		return err
	}
	for _, sc := range scanners {
		res.PeakTileBytes = max(res.PeakTileBytes, int64(sc.ws.Bytes()))
	}
	res.Imbalance = tile.Imbalance(busy)
	return nil
}

// runPass schedules the work items (observe tiles, or test-round
// tiles) over the scanners under cfg.Policy, adding each worker's busy
// time to busy. The first error, recorded in log, stops every worker
// at its next item boundary; runPass then returns it, or ctx's error.
func runPass(ctx context.Context, cfg Config, log *commitLog, scanners []*tileScanner, busy []float64, items []int, do func(sc *tileScanner, w, item int) error) error {
	sched := tile.NewScheduler(cfg.Policy, len(items), len(scanners))
	var wg sync.WaitGroup
	for w, sc := range scanners {
		wg.Add(1)
		go func(w int, sc *tileScanner) {
			defer wg.Done()
			start := time.Now()
			for ctx.Err() == nil && log.err() == nil {
				pi := sched.Next(w)
				if pi == -1 {
					break
				}
				if err := do(sc, w, items[pi]); err != nil {
					log.fail(err)
					break
				}
			}
			busy[w] += time.Since(start).Seconds()
		}(w, sc)
	}
	wg.Wait()
	if err := log.err(); err != nil {
		return err
	}
	return ctx.Err()
}

// newScanKit builds the resident scan's per-worker scanners over one
// shared kernel.
func newScanKit(wm *bspline.WeightMatrix, cfg Config) []*tileScanner {
	k := newPairKernel(wm, cfg)
	kit := make([]*tileScanner, cfg.Workers)
	for w := range kit {
		kit[w] = &tileScanner{k: k, ws: k.newWorkspace()}
	}
	return kit
}

// hostScan is phases 3 and 4 of the resident engines over cfg.Workers
// goroutines, optionally resuming from and persisting to a checkpoint.
// kit, when non-nil, is the ensemble loop's amortization seam: scanners
// built once and rebound per bootstrap instead of reallocated per scan.
// It returns the per-tile MI kernel evaluation counts (full history
// across resumed sessions — the basis of the Phi time model) plus the
// tile list.
func hostScan(ctx context.Context, wm *bspline.WeightMatrix, cfg Config, res *Result, kit []*tileScanner) ([]int64, []tile.Tile, error) {
	if kit == nil {
		kit = newScanKit(wm, cfg)
	}
	tiles := tile.Decompose(wm.Genes, cfg.TileSize)
	log, err := openLog(cfg, Fingerprint(wm.Genes, wm.Samples, cfg), len(tiles), res)
	if err != nil {
		return nil, nil, err
	}
	if err := poolScan(ctx, cfg, res, log, tiles, kit); err != nil {
		return nil, nil, err
	}
	log.report(res)
	return log.state.EvalsPerTile, tiles, nil
}
