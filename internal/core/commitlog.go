package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/diskfault"
	"repro/internal/grn"
)

// tileCounts is the work one tile's scan did: exact-kernel pair
// evaluations, permutation evaluations, permutations the early exit
// skipped, and permutation evaluations the Jensen certificate decided.
type tileCounts struct {
	pairEvals, permEvals, skipped, certified int64
}

func (c *tileCounts) add(o tileCounts) {
	c.pairEvals += o.pairEvals
	c.permEvals += o.permEvals
	c.skipped += o.skipped
	c.certified += o.certified
}

// commitLog is the record of one scan that every engine shares: the
// phase-3 outcome and the committed tiles (bitmap, edges, per-tile
// evaluation counts) in one checkpoint.State under one mutex, plus the
// counts of the tiles committed in this session. It is also the cluster
// engine's recovery log — the in-process stand-in for the shared
// filesystem TINGe deployments checkpoint to between work blocks: when
// a world aborts, committed tiles survive and only the pending
// remainder is redistributed. With a CheckpointPath it saves the state
// every CheckpointEvery commits and on flush, so a killed process
// resumes the same way a killed rank does.
type commitLog struct {
	mu       sync.Mutex
	state    *checkpoint.State
	nullDone bool // state holds a completed phase 3's outcome
	// lo and hi bound the tile range this scan covers (a fleet chunk, or
	// every tile).
	lo, hi int
	// session sums the counts of the tiles committed in this session;
	// committed counts those tiles and total is how many were pending
	// when the session began — the Progress denominator.
	session          tileCounts
	committed, total int
	progress         func(done, total int)
	// failed is the first error a worker hit; poolScan stops every
	// worker at its next tile boundary once it is set.
	failed error

	fsys      diskfault.FS
	path      string
	every     int
	sinceSave int
	saveErr   error
}

// openLog loads the scan's checkpoint (see loadResumeState) or starts
// an empty state for nTiles tiles. A resumed checkpoint was saved after
// phase 3 completed, so its threshold is authoritative.
func openLog(cfg Config, fp checkpoint.Fingerprint, nTiles int, res *Result) (*commitLog, error) {
	l := &commitLog{
		lo: 0, hi: nTiles,
		progress: cfg.Progress,
		fsys:     cfg.FS,
		path:     cfg.CheckpointPath,
		every:    cfg.CheckpointEvery,
	}
	if cfg.ChunkTiles > 0 {
		l.lo, l.hi = cfg.ChunkStart, cfg.ChunkStart+cfg.ChunkTiles
		if l.hi > nTiles {
			return nil, fmt.Errorf("core: chunk range [%d,%d) exceeds %d tiles", l.lo, l.hi, nTiles)
		}
	}
	if l.path == "" {
		l.state = checkpoint.NewState(fp, nTiles)
	} else {
		state, resumed, err := loadResumeState(cfg, fp, nTiles, res)
		if err != nil {
			return nil, err
		}
		l.state, l.nullDone = state, resumed
	}
	l.total = len(l.pending())
	return l, nil
}

// threshold is phase 3 through the log: the recorded outcome (a resumed
// checkpoint's, or an earlier cluster attempt's), else cfg.KnownNull,
// else estimateThreshold over ph. A phase 3 that fails or is canceled
// part-way records nothing, so no checkpoint ever holds a threshold
// drawn from part of the null. Every caller derives the identical value
// from the seed, so the first record wins without a race.
func (l *commitLog) threshold(ctx context.Context, cfg Config, ph nullPhase) (PooledNull, error) {
	l.mu.Lock()
	known := cfg.KnownNull
	if l.nullDone {
		known = &PooledNull{Threshold: l.state.Threshold, Size: l.state.NullSize}
	}
	l.mu.Unlock()
	null, err := estimateThreshold(ctx, cfg, l.state.Fingerprint.Genes, known, ph)
	if err != nil {
		return PooledNull{}, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.nullDone {
		l.state.Threshold, l.state.NullSize = null.Threshold, null.Size
		l.nullDone = true
	}
	return null, nil
}

// pending returns the uncommitted tiles of the scan's range in
// ascending order.
func (l *commitLog) pending() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]int, 0, l.hi-l.lo)
	for i := l.lo; i < l.hi; i++ {
		if !l.state.Done[i] {
			out = append(out, i)
		}
	}
	return out
}

// commit records finished tile ti, saves on the interval, and reports
// progress. A tile that is already committed is ignored.
func (l *commitLog) commit(ti int, edges []grn.Edge, c tileCounts) {
	l.mu.Lock()
	if l.state.Done[ti] {
		l.mu.Unlock()
		return
	}
	l.state.Done[ti] = true
	// EvalsPerTile keeps the combined count, the Phi time model's
	// quantity.
	l.state.EvalsPerTile[ti] = c.pairEvals + c.permEvals
	l.state.Edges = append(l.state.Edges, edges...)
	l.session.add(c)
	l.committed++
	done := l.committed
	if l.path != "" {
		l.sinceSave++
		if l.sinceSave >= l.every {
			l.saveLocked()
		}
	}
	l.mu.Unlock()
	if l.progress != nil {
		l.progress(done, l.total)
	}
}

// fail records err as the scan's failure unless one is already
// recorded.
func (l *commitLog) fail(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed == nil {
		l.failed = err
	}
}

// err returns the recorded failure, if any.
func (l *commitLog) err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

func (l *commitLog) saveLocked() {
	if err := checkpoint.SaveFileFS(l.fsys, l.path, l.state); err != nil && l.saveErr == nil {
		l.saveErr = err
	}
	l.sinceSave = 0
}

// flush saves whatever is committed and returns the first save error,
// if any. Before phase 3 has completed there is nothing to save.
func (l *commitLog) flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.path != "" && l.nullDone {
		l.saveLocked()
	}
	return l.saveErr
}

// report publishes the scan into res: the phase-3 outcome, the counts
// of the tiles computed in this session (a resumed scan's committed
// tiles are not re-counted), and the network of every committed tile
// across sessions.
func (l *commitLog) report(res *Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	res.Threshold, res.NullSize = l.state.Threshold, l.state.NullSize
	res.PairsEvaluated = l.session.pairEvals
	res.PermEvaluations = l.session.permEvals
	res.PermutationsSkipped = l.session.skipped
	res.PermutationsCertified = l.session.certified
	net := grn.New(l.state.Fingerprint.Genes)
	for _, e := range l.state.Edges {
		net.AddEdge(e.I, e.J, e.Weight)
	}
	res.Network = net
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

// Fingerprint is the checkpoint fingerprint of a scan of a genes ×
// samples matrix under cfg. Every engine shares it, so checkpoints are
// byte-compatible across engines (a killed OutOfCore run can resume
// from a Host checkpoint and vice versa), and the fleet coordinator
// keys its chunk ledgers with it.
func Fingerprint(genes, samples int, cfg Config) checkpoint.Fingerprint {
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
		Bootstraps:      cfg.Ensemble.Bootstraps,
		SubsampleFrac:   cfg.Ensemble.SubsampleFrac,
		EnsembleSeed:    cfg.Ensemble.Seed,
	}
}
