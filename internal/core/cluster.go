package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bspline"
	"repro/internal/checkpoint"
	"repro/internal/diskfault"
	"repro/internal/grn"
	"repro/internal/mpi"
	"repro/internal/tile"
)

// corruptGatherForTest, when non-nil, mangles a rank's flat edge-gather
// payload before it is sent — the test seam for the malformed-gather
// error path (which must abort the world, not deadlock it).
var corruptGatherForTest func(rank int, flat []float64) []float64

// clusterRecorder is the shared tile-commit log behind the cluster
// engine's fault tolerance — the in-process stand-in for the shared
// filesystem TINGe deployments checkpoint to between work blocks. Ranks
// commit each finished tile (bitmap bit, edges, eval counts) under one
// mutex; when a world aborts, committed tiles survive and only the
// in-flight remainder is redistributed to the surviving ranks. With a
// CheckpointPath it also persists the state every `every` commits, so
// a killed process resumes the same way a killed rank does.
type clusterRecorder struct {
	mu    sync.Mutex
	state *checkpoint.State
	// skipped and certified are the per-tile early-exit skip and
	// certificate counts (in-memory only — observability, not resume
	// state).
	skipped, certified []int64

	thresholdDone bool

	fsys      diskfault.FS
	path      string
	every     int
	sinceSave int
	saveErr   error

	// Traffic high-water marks: the world's counters are global and
	// monotone per attempt; ranks sample them at commit points, and
	// foldAttempt accumulates the attempt's peak into the run total so
	// failed attempts' communication is still accounted.
	msgsCur, bytesCur     int64
	msgsTotal, bytesTotal int64
}

// known returns the committed phase-3 outcome, or nil before phase 3
// has completed once.
func (r *clusterRecorder) known() *PooledNull {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.thresholdDone {
		return nil
	}
	return &PooledNull{Threshold: r.state.Threshold, Size: r.state.NullSize}
}

// setThreshold commits the phase-3 result once; every rank computes the
// identical value from the seed, so first-wins is not a race.
func (r *clusterRecorder) setThreshold(null PooledNull) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.thresholdDone {
		return
	}
	r.state.Threshold = null.Threshold
	r.state.NullSize = null.Size
	r.thresholdDone = true
}

// tileDone commits one finished tile and persists opportunistically.
// The pair/permutation split and the screened-out count live in the
// checkpoint state so a resumed run reports the full-history counters
// exactly (the resume test pins this).
func (r *clusterRecorder) tileDone(ti int, pairEvals, permEvals, screened, skipped, certified int64, edges []grn.Edge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state.Done[ti] {
		return
	}
	r.state.Done[ti] = true
	r.state.EvalsPerTile[ti] = pairEvals + permEvals
	r.state.PairEvalsPerTile[ti] = pairEvals
	r.state.ScreenedPerTile[ti] = screened
	r.skipped[ti] = skipped
	r.certified[ti] = certified
	r.state.Edges = append(r.state.Edges, edges...)
	if r.path == "" {
		return
	}
	r.sinceSave++
	if r.sinceSave >= r.every {
		r.saveLocked()
	}
}

func (r *clusterRecorder) saveLocked() {
	if err := checkpoint.SaveFileFS(r.fsys, r.path, r.state); err != nil && r.saveErr == nil {
		r.saveErr = err
	}
	r.sinceSave = 0
}

// flush forces a save and returns the first save error, if any.
func (r *clusterRecorder) flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.path != "" {
		r.saveLocked()
	}
	return r.saveErr
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
	n := wm.Genes
	tiles := tile.Decompose(n, cfg.TileSize)

	state := checkpoint.NewState(fingerprint(wm, cfg), len(tiles))
	resumed := false
	if cfg.CheckpointPath != "" {
		loaded, res2, err := loadResumeState(cfg, state.Fingerprint, len(tiles), res)
		if err != nil {
			return err
		}
		state = loaded
		resumed = res2
	}
	rec := &clusterRecorder{
		state:     state,
		skipped:   make([]int64, len(tiles)),
		certified: make([]int64, len(tiles)),
		// A resumed checkpoint was saved after phase 3 completed, so its
		// threshold is authoritative.
		thresholdDone: resumed,
		fsys:          cfg.FS,
		path:          cfg.CheckpointPath,
		every:         cfg.CheckpointEvery,
	}

	type rankOut struct {
		threshold              float64
		cacheHits, cacheMisses int64
		busy                   float64
		tileBytes              int64
		screenNanos            int64
	}

	alive := cfg.Ranks
	var out []rankOut
	start := time.Now()
	for {
		// Snapshot the pending work list outside the world so every rank
		// partitions the identical slice this attempt.
		pending := state.PendingTiles()
		out = make([]rankOut, alive)
		err := mpi.RunOpts(ctx, alive, mpi.Options{Fault: cfg.Fault}, func(c *mpi.Comm) error {
			k := newPairKernel(wm, cfg)
			ws := k.newWorkspace()

			// Phase 3 (distributed): each rank evaluates its block of the
			// null sample and the blocks are all-gathered. Skipped when a
			// prior attempt, a resumed checkpoint, or the caller already
			// supplied the threshold — it depends only on the seed, never
			// on the world size, so recovery cannot change it.
			c.Phase("null-pool")
			known := rec.known()
			if known == nil {
				known = cfg.KnownNull
			}
			null, err := estimateThreshold(ctx, cfg, n, known, nullPhase{
				evals: []func(i, j int, out []float64) error{func(i, j int, out []float64) error {
					if err := c.Err(); err != nil {
						return err
					}
					k.null(i, j, out, ws)
					return nil
				}},
				rank: c.Rank(), ranks: c.Size(),
				allgather: c.Allgatherv,
			})
			if err != nil {
				return err
			}
			rec.setThreshold(null)
			threshold := null.Threshold
			k.thresh = threshold

			// Phase 4: cyclic partition of the pending tiles, sequential
			// per rank. Each finished tile is committed immediately so a
			// later abort costs only in-flight work.
			c.Phase("tile-scan")
			busyStart := time.Now()
			pc := k.newPermCache(cfg)
			var edges []grn.Edge
			var screenNanos int64
			var mask []bool
			for idx := c.Rank(); idx < len(pending); idx += c.Size() {
				if err := c.Err(); err != nil {
					return err
				}
				ti := pending[idx]
				var tileScreened int64
				if k.screen != nil {
					screenStart := time.Now()
					mask, tileScreened = k.screenTile(tiles[ti], ws, mask)
					screenNanos += time.Since(screenStart).Nanoseconds()
				}
				var tilePairEvals, tilePermEvals, tileSkipped int64
				var tileEdges []grn.Edge
				cert0 := ws.Certified()
				pairIdx := 0
				tiles[ti].ForEachPair(func(i, j int) {
					if k.screen != nil && mask[pairIdx] {
						pairIdx++
						return
					}
					pairIdx++
					obs, sig, ev, pe, sk := k.decide(i, j, ws, pc)
					tilePairEvals += ev
					tilePermEvals += pe
					tileSkipped += sk
					if sig {
						tileEdges = append(tileEdges, grn.Edge{I: i, J: j, Weight: obs})
					}
				})
				rec.tileDone(ti, tilePairEvals, tilePermEvals, tileScreened, tileSkipped, ws.Certified()-cert0, tileEdges)
				edges = append(edges, tileEdges...)
				m, b := c.Traffic()
				rec.sampleTraffic(m, b)
			}
			busy := time.Since(busyStart).Seconds()

			// Gather this attempt's edges at root as flat (i, j, w)
			// triples — the TINGe wire protocol, kept for communication
			// accounting and validated at root; the network itself is
			// assembled from the committed tile log.
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
			m, b := c.Traffic()
			rec.sampleTraffic(m, b)

			o := &out[c.Rank()]
			o.threshold = threshold
			o.screenNanos = screenNanos
			o.tileBytes = int64(ws.Bytes())
			if pc != nil {
				o.cacheHits = pc.Hits()
				o.cacheMisses = pc.Misses()
				o.tileBytes += int64(pc.Bytes())
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
			res.RecoveredTiles += state.Remaining()
			alive--
			continue
		}
		// Persist whatever committed, even on a terminal failure.
		if ferr := rec.flush(); ferr != nil && ctx.Err() == nil {
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
	if err := rec.flush(); err != nil {
		return err
	}

	null := rec.known()
	res.Threshold, res.NullSize = null.Threshold, null.Size
	res.Timer.Add("threshold+mi(cluster)", scanSpan)

	busy := make([]float64, len(out))
	var screenNanos int64
	for r := range out {
		res.PermCacheHits += out[r].cacheHits
		res.PermCacheMisses += out[r].cacheMisses
		if out[r].tileBytes > res.PeakTileBytes {
			res.PeakTileBytes = out[r].tileBytes
		}
		busy[r] = out[r].busy
		screenNanos += out[r].screenNanos
	}
	if cfg.Prescreen {
		d := time.Duration(screenNanos)
		res.ScreenPhaseSeconds = d.Seconds()
		res.Timer.Add("screen", d)
	}
	res.Imbalance = tile.Imbalance(busy)
	// Full-history sums from the committed tile log: the split arrays
	// ride in the checkpoint, so a resumed run reports the identical
	// totals a fault-free run would.
	for ti := range state.EvalsPerTile {
		res.PairsEvaluated += state.PairEvalsPerTile[ti]
		res.PermEvaluations += state.EvalsPerTile[ti] - state.PairEvalsPerTile[ti]
		res.PairsScreenedOut += state.ScreenedPerTile[ti]
		res.PermutationsSkipped += rec.skipped[ti]
		res.PermutationsCertified += rec.certified[ti]
	}
	res.Messages, res.TrafficBytes = rec.traffic()
	if cfg.Fault != nil {
		st := cfg.Fault.Stats()
		res.FaultDelayedMessages = st.Delayed
		res.FaultDroppedMessages = st.Dropped
	}

	net := grn.New(n)
	for _, e := range state.Edges {
		net.AddEdge(e.I, e.J, e.Weight)
	}
	res.Network = net
	return nil
}
