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

// runCluster executes phases 3/4 as the original TINGe does on a
// cluster: ranks own a cyclic partition of the pair tiles, each rank
// computes its share of the pooled null, the null values are
// all-gathered so every rank derives the identical threshold, each rank
// scans its tiles sequentially, and edges are gathered at rank 0.
//
// The world is fail-stop-safe and the engine recoverable: a rank that
// errors, panics, or is killed by an injected fault aborts the world
// (no peer blocks past it — see mpi.AbortError), the un-committed state
// of the surviving ranks is discarded, and the engine re-runs with the
// failed rank excluded — the checkpoint tile bitmap keeps every
// committed tile, and only the pending remainder is redistributed
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
	rec := &clusterRecorder{}
	// A plan's stats are cumulative across every world that used it (an
	// ensemble's bootstraps share one); the run reports its own share.
	fault0 := cfg.Fault.Stats()

	type rankOut struct {
		threshold              float64
		cacheHits, cacheMisses int64
		busy                   float64
		tileBytes              int64
	}

	alive := cfg.Ranks
	var out []rankOut
	start := time.Now()
	for {
		// Snapshot the pending work list outside the world so every rank
		// partitions the identical slice this attempt.
		pending := log.pending()
		out = make([]rankOut, alive)
		err := mpi.RunOpts(ctx, alive, mpi.Options{Fault: cfg.Fault}, func(c *mpi.Comm) error {
			k := newPairKernel(wm, cfg)
			sc := &tileScanner{k: k, ws: k.newWorkspace()}

			// Phase 3 (distributed): each rank evaluates its block of the
			// null sample and the blocks are all-gathered. Skipped when a
			// prior attempt, a resumed checkpoint, or the caller already
			// supplied the threshold — it depends only on the seed, never
			// on the world size, so recovery cannot change it.
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
			k.thresh = null.Threshold

			// Phase 4: cyclic partition of the pending tiles, sequential
			// per rank. Each finished tile is committed immediately so a
			// later abort costs only in-flight work.
			c.Phase("tile-scan")
			busyStart := time.Now()
			sc.pc = k.newPermCache(cfg)
			var edges []grn.Edge
			for idx := c.Rank(); idx < len(pending); idx += c.Size() {
				if err := c.Err(); err != nil {
					return err
				}
				ti := pending[idx]
				tileEdges, err := sc.scan(cfg, log, c.Rank(), ti, tiles[ti])
				if err != nil {
					return err
				}
				edges = append(edges, tileEdges...)
				rec.sampleTraffic(c.Traffic())
			}
			busy := time.Since(busyStart).Seconds()

			// Gather this attempt's edges at root as flat (i, j, w)
			// triples — the TINGe wire protocol, kept for communication
			// accounting and validated at root; the network itself is
			// assembled from the commit log.
			c.Phase("gather")
			flat := make([]float64, 0, len(edges)*3)
			for _, e := range edges {
				flat = append(flat, float64(e.I), float64(e.J), e.Weight)
			}
			if corruptGatherForTest != nil {
				flat = corruptGatherForTest(c.Rank(), flat)
			}
			gatheredEdges := c.Gatherv(0, flat)
			c.Barrier()
			rec.sampleTraffic(c.Traffic())

			o := &out[c.Rank()]
			o.threshold = null.Threshold
			o.tileBytes = int64(sc.ws.Bytes())
			if sc.pc != nil {
				o.cacheHits = sc.pc.Hits()
				o.cacheMisses = sc.pc.Misses()
				o.tileBytes += int64(sc.pc.Bytes())
			}
			o.busy = busy
			if c.Rank() == 0 {
				for _, part := range gatheredEdges {
					if len(part)%3 != 0 {
						return fmt.Errorf("core: malformed edge gather of %d values", len(part))
					}
				}
			}
			return nil
		})
		rec.foldAttempt()
		if err == nil {
			break
		}

		// Recovery policy: a rank-attributed failure with survivors and
		// retry budget left excludes the failed rank and redistributes
		// its pending tiles; cancellation and exhausted budgets surface.
		var ab *mpi.AbortError
		if errors.As(err, &ab) && ab.Rank >= 0 && alive > 1 &&
			res.RecoveryRuns < cfg.MaxRecoveries && ctx.Err() == nil {
			res.RankFailures++
			res.RecoveryRuns++
			res.RecoveredTiles += len(log.pending())
			alive--
			continue
		}
		// Persist whatever committed, even on a terminal failure.
		if ferr := log.flush(); ferr != nil && ctx.Err() == nil {
			return ferr
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		return err
	}
	scanSpan := time.Since(start)

	// Ranks computed thresholds from identical pooled values; assert
	// agreement (a mismatch indicates nondeterminism).
	for r := 1; r < len(out); r++ {
		if out[r].threshold != out[0].threshold {
			return fmt.Errorf("core: rank %d threshold %v != rank 0 %v",
				r, out[r].threshold, out[0].threshold)
		}
	}
	if err := log.flush(); err != nil {
		return err
	}

	log.report(res)
	res.Timer.Add("threshold+mi(cluster)", scanSpan)
	busy := make([]float64, len(out))
	for r := range out {
		res.PermCacheHits += out[r].cacheHits
		res.PermCacheMisses += out[r].cacheMisses
		res.PeakTileBytes = max(res.PeakTileBytes, out[r].tileBytes)
		busy[r] = out[r].busy
	}
	res.Imbalance = tile.Imbalance(busy)
	res.Messages, res.TrafficBytes = rec.traffic()
	fault := cfg.Fault.Stats()
	res.FaultDelayedMessages = fault.Delayed - fault0.Delayed
	res.FaultDroppedMessages = fault.Dropped - fault0.Dropped
	return nil
}
