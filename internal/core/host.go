package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
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
	pc  *mi.PermCache
	src rowSource
	// sum is this worker's running count since its scan began, reported
	// as the per-worker trace counters.
	sum tileCounts
}

// scanTile decides every pair of tile t — the only phase-4 pair loop.
// Global gene indices map to kernel indices i-iOff and j-jOff; edges
// carry the global ones.
func (k *pairKernel) scanTile(t tile.Tile, iOff, jOff int, ws *mi.Workspace, pc *mi.PermCache) (edges []grn.Edge, c tileCounts) {
	cert0 := ws.Certified()
	t.ForEachPair(func(i, j int) {
		obs, sig, ev, pe, sk := k.decide(i-iOff, j-jOff, ws, pc)
		c.pairEvals += ev
		c.permEvals += pe
		c.skipped += sk
		if sig {
			edges = append(edges, grn.Edge{I: i, J: j, Weight: obs})
		}
	})
	c.certified = ws.Certified() - cert0
	return edges, c
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

// scan stages tile ti, decides its pairs, and commits them to log. With
// tracing on it records the tile's span and the worker's running
// counters on trace row `row`. It returns the tile's edges.
func (sc *tileScanner) scan(cfg Config, log *commitLog, row, ti int, t tile.Tile) ([]grn.Edge, error) {
	var endSpan func()
	if cfg.Trace != nil {
		endSpan = cfg.Trace.Span(row, fmt.Sprintf("tile-%d %s", ti, t))
	}
	var iOff, jOff int
	if sc.src != nil {
		var err error
		if iOff, jOff, err = sc.src.stageTile(t); err != nil {
			return nil, err
		}
	}
	edges, c := sc.k.scanTile(t, iOff, jOff, sc.ws, sc.pc)
	log.commit(ti, edges, c)
	sc.sum.add(c)
	if endSpan != nil {
		endSpan()
		// Per-worker amortization counter tracks, sampled at every tile
		// boundary: permutations skipped by early exit, permutations the
		// certificate decided, and permuted-row cache hits.
		cfg.Trace.Counter(row, "perm_skipped", float64(sc.sum.skipped))
		cfg.Trace.Counter(row, "perm_certified", float64(sc.sum.certified))
		if sc.pc != nil {
			cfg.Trace.Counter(row, "permcache_hits", float64(sc.pc.Hits()))
		}
	}
	return edges, nil
}

// poolScan runs phases 3 and 4 into log on a goroutine pool, one
// scanner per worker — the schedule of the host (and Phi and Hybrid)
// scan, the out-of-core scan, and every ensemble bootstrap on either.
// Phase 3 goes through the commit log; phase 4 schedules the log's
// pending tiles over the workers under cfg.Policy, timed as the "mi"
// phase. The first tile error (or ctx's cancellation) stops every
// worker at its next tile boundary; the tiles committed by then are
// still flushed to the checkpoint. It fills Imbalance, PeakTileBytes,
// and this scan's permuted-row cache hits and misses into res; the
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
		// Phase 3 never reads the permuted-row caches; building them only
		// now keeps them out of its heap, which otherwise adds about 3 MB
		// to a served fleet's peak RSS.
		if sc.pc == nil {
			sc.pc = sc.k.newPermCache(cfg)
		}
		sc.k.thresh = null.Threshold
		sc.sum = tileCounts{}
		b := int64(sc.ws.Bytes())
		if sc.pc != nil {
			b += int64(sc.pc.Bytes())
		}
		res.PeakTileBytes = max(res.PeakTileBytes, b)
	}

	pending := log.pending()
	busy := make([]float64, len(scanners))
	var cacheHits, cacheMisses int64
	res.Timer.Time("mi", func() {
		sched := tile.NewScheduler(cfg.Policy, len(pending), len(scanners))
		var wg sync.WaitGroup
		for w, sc := range scanners {
			wg.Add(1)
			go func(w int, sc *tileScanner) {
				defer wg.Done()
				var hits0, misses0 int64
				if sc.pc != nil {
					hits0, misses0 = sc.pc.Hits(), sc.pc.Misses()
				}
				start := time.Now()
				for ctx.Err() == nil && log.err() == nil {
					pi := sched.Next(w)
					if pi == -1 {
						break
					}
					ti := pending[pi]
					if _, err := sc.scan(cfg, log, w, ti, tiles[ti]); err != nil {
						log.fail(err)
						break
					}
				}
				busy[w] = time.Since(start).Seconds()
				if sc.pc != nil {
					atomic.AddInt64(&cacheHits, sc.pc.Hits()-hits0)
					atomic.AddInt64(&cacheMisses, sc.pc.Misses()-misses0)
				}
			}(w, sc)
		}
		wg.Wait()
	})
	// Persist whatever completed, even on failure or cancellation.
	if err := log.flush(); err != nil {
		return err
	}
	if err := log.err(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	res.PermCacheHits = cacheHits
	res.PermCacheMisses = cacheMisses
	res.Imbalance = tile.Imbalance(busy)
	return nil
}

// newScanKit builds the resident scan's per-worker scanners over one
// shared kernel; poolScan adds their permuted-row caches.
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
	// Building the network only after poolScan returns lets a fresh
	// kit's permuted-row caches be collected during the build; holding
	// them through it adds about 5 MB to the peak RSS at n = 1000,
	// m = 337.
	log.report(res)
	return log.state.EvalsPerTile, tiles, nil
}
