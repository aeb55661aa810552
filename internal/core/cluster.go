package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bspline"
	"repro/internal/grn"
	"repro/internal/mpi"
	"repro/internal/tile"
)

// corruptGatherForTest, when non-nil, mangles a rank's flat edge-gather
// payload before it is sent — the test seam for the malformed-gather
// error path (which must abort the world, not deadlock it).
var corruptGatherForTest func(rank int, flat []float64) []float64

// clusterRecorder accounts the cluster engine's MPI traffic across
// world attempts: the world's counters are global and monotone per
// attempt; ranks sample them at commit points, and foldAttempt
// accumulates the attempt's peak into the run total so failed attempts'
// communication is still accounted. Committed tiles and the threshold
// live in the commit log every engine shares.
type clusterRecorder struct {
	mu                    sync.Mutex
	msgsCur, bytesCur     int64
	msgsTotal, bytesTotal int64
}

// sampleTraffic records the world's traffic counters at a commit point.
func (r *clusterRecorder) sampleTraffic(msgs, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if msgs > r.msgsCur {
		r.msgsCur = msgs
	}
	if bytes > r.bytesCur {
		r.bytesCur = bytes
	}
}

// foldAttempt folds the finished (or aborted) attempt's traffic peak
// into the run totals.
func (r *clusterRecorder) foldAttempt() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.msgsTotal += r.msgsCur
	r.bytesTotal += r.bytesCur
	r.msgsCur, r.bytesCur = 0, 0
}

// traffic returns the accumulated run totals.
func (r *clusterRecorder) traffic() (msgs, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.msgsTotal, r.bytesTotal
}

// rankOut is what one rank of a successful world reports back.
type rankOut struct {
	threshold              float64
	cacheHits, cacheMisses int64
	// busy is the time the rank spent in the pass's tile loop, set by
	// the world's body: collectives and barriers would even it out.
	busy      float64
	tileBytes int64
}

// clusterRun is one cluster scan's state across its worlds: the
// observe pass and every test round each run as a world over the ranks
// still alive, and a rank lost in one pass stays excluded from the
// rest.
type clusterRun struct {
	wm    *bspline.WeightMatrix
	cfg   Config
	log   *commitLog
	res   *Result
	rec   clusterRecorder
	alive int
	// busy and the cache counters accumulate the successful worlds'
	// per-rank reports.
	busy                   []float64
	cacheHits, cacheMisses int64
}

// world runs body on every alive rank, each with its own scanner over
// a fresh kernel, and applies the recovery policy: a rank-attributed
// failure with survivors and retry budget left excludes the failed rank
// and runs body again over the work still pending, while cancellation
// and exhausted budgets surface after flushing the log. pending lists
// the pass's uncommitted work items; it is snapshotted outside each
// world so every rank partitions the identical slice. It returns the
// successful world's per-rank reports.
func (cr *clusterRun) world(ctx context.Context, pending func() []int, body func(c *mpi.Comm, sc *tileScanner, items []int, o *rankOut) error) ([]rankOut, error) {
	for {
		items := pending()
		out := make([]rankOut, cr.alive)
		err := mpi.RunOpts(ctx, cr.alive, mpi.Options{Fault: cr.cfg.Fault}, func(c *mpi.Comm) error {
			k := newPairKernel(cr.wm, cr.cfg)
			sc := &tileScanner{k: k, ws: k.newWorkspace()}
			o := &out[c.Rank()]
			if err := body(c, sc, items, o); err != nil {
				return err
			}
			o.tileBytes = int64(sc.ws.Bytes())
			if sc.pc != nil {
				o.cacheHits, o.cacheMisses = sc.pc.Hits(), sc.pc.Misses()
				o.tileBytes += int64(sc.pc.Bytes())
			}
			return nil
		})
		cr.rec.foldAttempt()
		if err == nil {
			for r, o := range out {
				cr.busy[r] += o.busy
				cr.cacheHits += o.cacheHits
				cr.cacheMisses += o.cacheMisses
				cr.res.PeakTileBytes = max(cr.res.PeakTileBytes, o.tileBytes)
			}
			return out, nil
		}
		var ab *mpi.AbortError
		if errors.As(err, &ab) && ab.Rank >= 0 && cr.alive > 1 &&
			cr.res.RecoveryRuns < cr.cfg.MaxRecoveries && ctx.Err() == nil {
			cr.res.RankFailures++
			cr.res.RecoveryRuns++
			cr.res.RecoveredTiles += len(pending())
			cr.alive--
			continue
		}
		// Persist whatever committed, even on a terminal failure.
		if ferr := cr.log.flush(); ferr != nil && ctx.Err() == nil {
			return nil, ferr
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
}

// runCluster executes phases 3/4 as the original TINGe does on a
// cluster: ranks own a cyclic partition of the pair tiles, each rank
// computes its share of the pooled null, the null values are
// all-gathered so every rank derives the identical threshold, each rank
// observes its tiles sequentially, and the threshold survivors are
// gathered at rank 0. Each test round is a world of its own: the
// driver selects the survivors to test (commitLog.selectTests), and
// ranks test a cyclic partition of the round's tiles.
//
// Every world is fail-stop-safe and the engine recoverable: a rank that
// errors, panics, or is killed by an injected fault aborts the world
// (no peer blocks past it — see mpi.AbortError), the un-committed state
// of the surviving ranks is discarded, and the engine re-runs the pass
// with the failed rank excluded — the commit log keeps every committed
// tile and verdict, and only the pending remainder is redistributed
// cyclically over the survivors. Because the permutation pool and the
// null-pair sample depend only on the seed (never on the world size),
// the recovered network is bit-identical to the fault-free run and to
// the host engine's.
func runCluster(ctx context.Context, wm *bspline.WeightMatrix, cfg Config, res *Result) error {
	tiles := tile.Decompose(wm.Genes, cfg.TileSize)
	log, err := openLog(cfg, Fingerprint(wm.Genes, wm.Samples, cfg), len(tiles), res)
	if err != nil {
		return err
	}
	cr := &clusterRun{wm: wm, cfg: cfg, log: log, res: res, alive: cfg.Ranks, busy: make([]float64, cfg.Ranks)}
	// A plan's stats are cumulative across every world that used it (an
	// ensemble's bootstraps share one); the run reports its own share.
	fault0 := cfg.Fault.Stats()
	start := time.Now()

	testAll := !cfg.DPI
	out, err := cr.world(ctx, log.pending, func(c *mpi.Comm, sc *tileScanner, pending []int, o *rankOut) error {
		// Phase 3 (distributed): each rank evaluates its block of the
		// null sample and the blocks are all-gathered. Skipped when a
		// prior attempt, a resumed checkpoint, or the caller already
		// supplied the threshold — it depends only on the seed, never on
		// the world size, so recovery cannot change it.
		c.Phase("null-pool")
		null, err := log.threshold(ctx, cfg, nullPhase{
			evals: []func(i, j int, out []float64) error{func(i, j int, out []float64) error {
				if err := c.Err(); err != nil {
					return err
				}
				return sc.null(i, j, out)
			}},
			rank: c.Rank(), ranks: c.Size(),
			allgather: c.Allgatherv,
		})
		if err != nil {
			return err
		}
		sc.k.thresh = null.Threshold
		o.threshold = null.Threshold

		// Phase 4, observe: cyclic partition of the pending tiles,
		// sequential per rank. Each finished tile is committed
		// immediately so a later abort costs only in-flight work.
		// Without DPI every survivor is tested as its tile is observed
		// (see poolScan).
		c.Phase("tile-scan")
		if testAll {
			sc.pc = sc.k.newPermCache(cfg)
		}
		start := time.Now()
		var survivors []grn.Edge
		for idx := c.Rank(); idx < len(pending); idx += c.Size() {
			if err := c.Err(); err != nil {
				return err
			}
			ti := pending[idx]
			s, err := sc.observe(cfg, log, c.Rank(), ti, tiles[ti], testAll)
			if err != nil {
				return err
			}
			survivors = append(survivors, s...)
			cr.rec.sampleTraffic(c.Traffic())
		}
		o.busy = time.Since(start).Seconds()
		// Gather this attempt's survivors at root as flat (i, j, w)
		// triples — the TINGe wire protocol, kept for communication
		// accounting and validated at root; the network itself is
		// assembled from the commit log.
		c.Phase("gather")
		flat := make([]float64, 0, len(survivors)*3)
		for _, e := range survivors {
			flat = append(flat, float64(e.I), float64(e.J), e.Weight)
		}
		if corruptGatherForTest != nil {
			flat = corruptGatherForTest(c.Rank(), flat)
		}
		gathered := c.Gatherv(0, flat)
		c.Barrier()
		cr.rec.sampleTraffic(c.Traffic())
		if c.Rank() == 0 {
			for _, part := range gathered {
				if len(part)%3 != 0 {
					return fmt.Errorf("core: malformed edge gather of %d values", len(part))
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Ranks computed thresholds from identical pooled values; assert
	// agreement (a mismatch indicates nondeterminism).
	for r := 1; r < len(out); r++ {
		if out[r].threshold != out[0].threshold {
			return fmt.Errorf("core: rank %d threshold %v != rank 0 %v",
				r, out[r].threshold, out[0].threshold)
		}
	}

	for round := 1; ; round++ {
		work, err := log.selectTests(cfg, round)
		if err != nil {
			return err
		}
		if len(work) == 0 {
			break
		}
		edges := log.survivors()
		_, err = cr.world(ctx, log.pendingTests, func(c *mpi.Comm, sc *tileScanner, pending []int, o *rankOut) error {
			c.Phase("test-scan")
			sc.pc = sc.k.newPermCache(cfg)
			start := time.Now()
			for idx := c.Rank(); idx < len(pending); idx += c.Size() {
				if err := c.Err(); err != nil {
					return err
				}
				x := pending[idx]
				if err := sc.test(cfg, log, c.Rank(), edges, x, work[x], tiles[work[x].ti]); err != nil {
					return err
				}
			}
			o.busy = time.Since(start).Seconds()
			return nil
		})
		if err != nil {
			return err
		}
	}
	scanSpan := time.Since(start)
	if err := log.flush(); err != nil {
		return err
	}

	log.report(res)
	res.Timer.Add("threshold+mi(cluster)", scanSpan)
	res.PermCacheHits, res.PermCacheMisses = cr.cacheHits, cr.cacheMisses
	res.Imbalance = tile.Imbalance(cr.busy[:cr.alive])
	res.Messages, res.TrafficBytes = cr.rec.traffic()
	fault := cfg.Fault.Stats()
	res.FaultDelayedMessages = fault.Delayed - fault0.Delayed
	res.FaultDroppedMessages = fault.Dropped - fault0.Dropped
	return nil
}
