package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bspline"
	"repro/internal/checkpoint"
	"repro/internal/diskfault"
	"repro/internal/grn"
	"repro/internal/mi"
	"repro/internal/tile"
)

// ckptManager serializes checkpoint updates from worker goroutines and
// saves the state every `every` completed tiles plus a final save at
// scan end, so an interrupted run loses at most one interval.
type ckptManager struct {
	mu        sync.Mutex
	fsys      diskfault.FS
	path      string
	every     int
	state     *checkpoint.State
	sinceSave int
	saveErr   error
}

// tileDone records a completed tile and persists opportunistically.
// EvalsPerTile keeps the combined exact+permutation count (the Phi time
// model's quantity); the split and the screened-out count are persisted
// alongside so a resumed run can still report them.
func (m *ckptManager) tileDone(ti int, pairEvals, permEvals, screened int64, edges []grn.Edge) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state.Done[ti] = true
	m.state.EvalsPerTile[ti] = pairEvals + permEvals
	m.state.PairEvalsPerTile[ti] = pairEvals
	m.state.ScreenedPerTile[ti] = screened
	m.state.Edges = append(m.state.Edges, edges...)
	m.sinceSave++
	if m.sinceSave >= m.every {
		m.saveLocked()
	}
}

func (m *ckptManager) saveLocked() {
	if err := checkpoint.SaveFileFS(m.fsys, m.path, m.state); err != nil && m.saveErr == nil {
		m.saveErr = err
	}
	m.sinceSave = 0
}

// flush forces a save and returns the first save error, if any.
func (m *ckptManager) flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.saveLocked()
	return m.saveErr
}

func fingerprint(wm *bspline.WeightMatrix, cfg Config) checkpoint.Fingerprint {
	return fingerprintDims(wm.Genes, wm.Samples, cfg)
}

// loadResumeState is the corruption-tolerant checkpoint load every
// engine shares. A valid checkpoint (primary or its ".prev" rotation)
// resumes the scan; a missing one starts fresh; a checkpoint whose
// every copy fails integrity checks ALSO starts fresh — counted in
// res.CheckpointRecoveries, never a run failure, because losing a
// resume point costs recomputation while refusing the job costs the
// result. A fingerprint mismatch on a VALID checkpoint stays a hard
// error: that is a configuration conflict, not disk damage.
func loadResumeState(cfg Config, fp checkpoint.Fingerprint, nTiles int, res *Result) (state *checkpoint.State, resumed bool, err error) {
	state, err = checkpoint.LoadFileFS(cfg.FS, cfg.CheckpointPath)
	var ce *checkpoint.CorruptError
	if errors.As(err, &ce) {
		res.CheckpointRecoveries++
		state, err = nil, nil
	}
	if err != nil {
		return nil, false, err
	}
	if state != nil {
		if verr := state.Validate(fp, nTiles); verr != nil {
			return nil, false, verr
		}
		return state, true, nil
	}
	return checkpoint.NewState(fp, nTiles), false, nil
}

// fingerprintDims is the checkpoint fingerprint from bare dimensions.
// The out-of-core scan shares it so its checkpoints are byte-compatible
// with the resident engines': a killed OutOfCore run can resume from a
// Host checkpoint and vice versa.
func fingerprintDims(genes, samples int, cfg Config) checkpoint.Fingerprint {
	return checkpoint.Fingerprint{
		Genes:           genes,
		Samples:         samples,
		Order:           cfg.Order,
		Bins:            cfg.Bins,
		Permutations:    cfg.Permutations,
		NullSamplePairs: cfg.NullSamplePairs,
		TileSize:        cfg.TileSize,
		Alpha:           cfg.Alpha,
		Seed:            cfg.Seed,
		Precision:       uint8(cfg.Precision),
		Prescreen:       cfg.Prescreen,
		Bootstraps:      cfg.Ensemble.Bootstraps,
		SubsampleFrac:   cfg.Ensemble.SubsampleFrac,
		EnsembleSeed:    cfg.Ensemble.Seed,
	}
}

// hostScan is the shared parallel phase-3/phase-4 implementation: it
// estimates the threshold from the pooled null and then scans the pair
// tiles over cfg.Workers goroutines, optionally resuming from and
// persisting to a checkpoint. It fills res.Network, Threshold,
// NullSize, PairsEvaluated and Imbalance, and returns the per-tile MI
// kernel evaluation counts (full history across resumed sessions —
// the basis of the Phi engine's time model) plus the tile list.
func hostScan(ctx context.Context, wm *bspline.WeightMatrix, cfg Config, res *Result) ([]int64, []tile.Tile, error) {
	return hostScanKit(ctx, wm, cfg, res, nil)
}

// hostScanKit is hostScan with an optional pre-built scanKit — the
// ensemble loop's amortization seam: the kit's kernel, per-worker
// workspaces, and permuted-row caches are built once and rebound per
// bootstrap instead of reallocated per scan. A nil kit builds the
// apparatus fresh (the single-scan path). Cache hit/miss counters are
// reported as this scan's deltas, so a shared kit never double-counts.
func hostScanKit(ctx context.Context, wm *bspline.WeightMatrix, cfg Config, res *Result, kit *scanKit) ([]int64, []tile.Tile, error) {
	var k *pairKernel
	if kit != nil {
		k = kit.k
	} else {
		k = newPairKernel(wm, cfg)
	}
	n := wm.Genes
	tiles := tile.Decompose(n, cfg.TileSize)

	// Checkpoint setup: load-or-create before phase 3 so a resumed run
	// skips threshold estimation entirely.
	var ck *ckptManager
	resumed := false
	if cfg.CheckpointPath != "" {
		state, res2, err := loadResumeState(cfg, fingerprint(wm, cfg), len(tiles), res)
		if err != nil {
			return nil, nil, err
		}
		resumed = res2
		ck = &ckptManager{fsys: cfg.FS, path: cfg.CheckpointPath, every: cfg.CheckpointEvery, state: state}
	}

	// Phase 3: pooled-null threshold, parallel over sampled pairs. One
	// workspace per worker serves both phases.
	wss := make([]*mi.Workspace, cfg.Workers)
	evals := make([]func(i, j int, out []float64) error, cfg.Workers)
	for w := range wss {
		if kit != nil {
			wss[w] = kit.ws[w]
		} else {
			wss[w] = k.newWorkspace()
		}
		ws := wss[w]
		evals[w] = func(i, j int, out []float64) error {
			k.null(i, j, out, ws)
			return nil
		}
	}
	if err := scanThreshold(ctx, cfg, n, res, ck, resumed, evals); err != nil {
		return nil, nil, err
	}
	k.thresh = res.Threshold

	// Phase 4: tile scan over the pending tiles — the whole triangle, or
	// just the configured chunk range when the scan is one fleet chunk.
	lo, hi := 0, len(tiles)
	if cfg.ChunkTiles > 0 {
		lo, hi = cfg.ChunkStart, cfg.ChunkStart+cfg.ChunkTiles
		if hi > len(tiles) {
			return nil, nil, fmt.Errorf("core: chunk range [%d,%d) exceeds %d tiles", lo, hi, len(tiles))
		}
	}
	pending := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if ck == nil || !ck.state.Done[i] {
			pending = append(pending, i)
		}
	}
	evalsPerTile := make([]int64, len(tiles))
	busy := make([]float64, cfg.Workers)
	tileBytes := make([]int64, cfg.Workers)
	edgesPerWorker := make([][]grn.Edge, cfg.Workers)
	var totalEvals, totalPermEvals, totalScreened int64
	var totalSkipped, totalCertified int64
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
				ws := wss[w]
				var pc *mi.PermCache
				if kit != nil {
					pc = kit.pc[w]
				} else {
					pc = k.newPermCache(cfg)
				}
				tileBytes[w] = int64(ws.Bytes())
				cert0 := ws.Certified()
				var hits0, misses0 int64
				if pc != nil {
					tileBytes[w] += int64(pc.Bytes())
					hits0, misses0 = pc.Hits(), pc.Misses()
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
					var tileScreened int64
					if k.screen != nil {
						// Prescreening pass: bound the whole tile before any
						// exact evaluation.
						var endScreen func()
						if cfg.Trace != nil {
							endScreen = cfg.Trace.Span(w, fmt.Sprintf("screen-%d %s", ti, tiles[ti]))
						}
						screenStart := time.Now()
						mask, tileScreened = k.screenTile(tiles[ti], ws, mask)
						screenNanos += time.Since(screenStart).Nanoseconds()
						if endScreen != nil {
							endScreen()
						}
					}
					var endSpan func()
					if cfg.Trace != nil {
						endSpan = cfg.Trace.Span(w, fmt.Sprintf("tile-%d %s", ti, tiles[ti]))
					}
					var tilePairEvals, tilePermEvals int64
					var tileEdges []grn.Edge
					idx := 0
					tiles[ti].ForEachPair(func(i, j int) {
						if k.screen != nil && mask[idx] {
							idx++
							return
						}
						idx++
						obs, sig, ev, pe, sk := k.decide(i, j, ws, pc)
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
						// Per-worker amortization counter tracks: cumulative
						// permutations skipped by early exit, pairs screened
						// out, and permuted-row cache hits, sampled at every
						// tile boundary.
						cfg.Trace.Counter(w, "perm_skipped", float64(skipped))
						cfg.Trace.Counter(w, "perm_certified", float64(ws.Certified()-cert0))
						if k.screen != nil {
							cfg.Trace.Counter(w, "pairs_screened", float64(screened))
						}
						if pc != nil {
							cfg.Trace.Counter(w, "permcache_hits", float64(pc.Hits()))
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
				atomic.AddInt64(&totalCertified, ws.Certified()-cert0)
				atomic.AddInt64(&totalScreenNanos, screenNanos)
				if pc != nil {
					atomic.AddInt64(&cacheHits, pc.Hits()-hits0)
					atomic.AddInt64(&cacheMisses, pc.Misses()-misses0)
				}
			}(w)
		}
		wg.Wait()
	})
	if ck != nil {
		// Persist whatever completed, even on cancellation.
		if err := ck.flush(); err != nil {
			return nil, nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	res.PairsEvaluated = totalEvals
	res.PermEvaluations = totalPermEvals
	res.PairsScreenedOut = totalScreened
	res.PermutationsSkipped = totalSkipped
	res.PermutationsCertified = totalCertified
	res.PermCacheHits = cacheHits
	res.PermCacheMisses = cacheMisses
	if k.screen != nil {
		d := time.Duration(totalScreenNanos)
		res.ScreenPhaseSeconds = d.Seconds()
		res.Timer.Add("screen", d)
	}
	res.Imbalance = tile.Imbalance(busy)
	for _, b := range tileBytes {
		if b > res.PeakTileBytes {
			res.PeakTileBytes = b
		}
	}

	net := grn.New(n)
	if ck != nil {
		// The checkpoint holds the complete edge set across sessions.
		for _, e := range ck.state.Edges {
			net.AddEdge(e.I, e.J, e.Weight)
		}
		// Full-history evaluation counts drive the Phi time model.
		copy(evalsPerTile, ck.state.EvalsPerTile)
	} else {
		for _, edges := range edgesPerWorker {
			for _, e := range edges {
				net.AddEdge(e.I, e.J, e.Weight)
			}
		}
	}
	res.Network = net
	return evalsPerTile, tiles, nil
}

// runHost executes phase 3/4 on the goroutine-pool engine.
func runHost(ctx context.Context, wm *bspline.WeightMatrix, cfg Config, res *Result) error {
	_, _, err := hostScan(ctx, wm, cfg, res)
	return err
}
