package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/diskfault"
	"repro/internal/grn"
	"repro/internal/tile"
)

// tileCounts is the work one tile's pass did: pair evaluations, the
// ones the certificate decided below the threshold, and threshold
// survivors (observe), and survivors tested, permutation evaluations,
// permutations the early exit skipped, and permutation evaluations the
// certificate decided (test).
type tileCounts struct {
	pairEvals, pairsCertified, survived, tested, permEvals, skipped, certified int64
}

func (c *tileCounts) add(o tileCounts) {
	c.pairEvals += o.pairEvals
	c.pairsCertified += o.pairsCertified
	c.survived += o.survived
	c.tested += o.tested
	c.permEvals += o.permEvals
	c.skipped += o.skipped
	c.certified += o.certified
}

// roundTile is one tile's share of a test round: the ids (positions in
// the log's survivor list) of the requested survivors in tile ti, in
// (i, j) order.
type roundTile struct {
	ti  int
	ids []int32
}

// commitLog is the record of one scan that every engine shares: the
// phase-3 outcome, the observed tiles (bitmap and threshold
// survivors), and each survivor's test verdict, with per-tile
// evaluation counts, in one checkpoint.State under one mutex, plus the
// counts of the work committed in this session. It is also the cluster
// engine's recovery log — the in-process stand-in for the shared
// filesystem TINGe deployments checkpoint to between work blocks: when
// a world aborts, committed work survives and only the pending
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
	// sched is the test schedule over the survivors, from the first
	// test round to its fixpoint; round is the current round's work and
	// roundDone its committed tiles.
	sched     *grn.TestSchedule
	round     []roundTile
	roundDone []bool
	// session sums the counts of the work committed in this session.
	// Progress counts in tiles: one unit per observe tile pending when
	// the session began and one test unit per tile of the range, done
	// when the tile is first tested in this session or, for tiles the
	// schedule never requests, when it reaches its fixpoint. done never
	// decreases and total is fixed, so the reported fraction is
	// monotone.
	session     tileCounts
	done, total int
	testedTile  []bool // indexed by tile - lo
	progress    func(done, total int)
	// failed is the first error a worker hit; every worker stops at its
	// next tile boundary once it is set.
	failed error

	fsys      diskfault.FS
	path      string
	every     int
	sinceSave int
	saveErr   error
}

// openLog loads the scan's checkpoint (see loadResumeState) or starts
// an empty state for nTiles tiles. A resumed checkpoint was saved after
// phase 3 completed, so its threshold is authoritative; a checkpoint
// without verdicts stored only survivors that had passed their test.
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
		if state.Verdicts == nil {
			state.Verdicts = make([]grn.Verdict, len(state.Edges))
			for x := range state.Verdicts {
				state.Verdicts[x] = grn.Passed
			}
		}
	}
	l.testedTile = make([]bool, l.hi-l.lo)
	l.total = len(l.pending()) + len(l.testedTile)
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

// pending returns the unobserved tiles of the scan's range in
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

// commit records observed tile ti with its threshold survivors —
// tested, pass[y] the verdict of survivors[y], or untested when pass is
// nil — saves on the interval, and reports progress. A tile that is
// already committed is ignored.
func (l *commitLog) commit(ti int, survivors []grn.Edge, pass []bool, c tileCounts) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.state.Done[ti] {
		return
	}
	l.state.Done[ti] = true
	// EvalsPerTile keeps the combined count of both passes, the Phi time
	// model's quantity.
	l.state.EvalsPerTile[ti] = c.pairEvals + c.permEvals
	l.state.Edges = append(l.state.Edges, survivors...)
	for y := range survivors {
		v := grn.Untested
		if pass != nil {
			v = verdict(pass[y])
		}
		l.state.Verdicts = append(l.state.Verdicts, v)
	}
	l.done++
	if pass != nil {
		l.testedLocked(ti)
	}
	l.committedLocked(c)
}

// verdict is the Verdict of a finished permutation test.
func verdict(pass bool) grn.Verdict {
	if pass {
		return grn.Passed
	}
	return grn.Failed
}

// testedLocked completes tile ti's test unit of the progress, once.
func (l *commitLog) testedLocked(ti int) {
	if !l.testedTile[ti-l.lo] {
		l.testedTile[ti-l.lo] = true
		l.done++
	}
}

// committedLocked accounts one committed tile of either pass: counts,
// the save interval, and progress (reported under the lock, so the
// calls arrive in order).
func (l *commitLog) committedLocked(c tileCounts) {
	l.session.add(c)
	if l.path != "" {
		l.sinceSave++
		if l.sinceSave >= l.every {
			l.saveLocked()
		}
	}
	if l.progress != nil {
		l.progress(l.done, l.total)
	}
}

// selectTests runs one round of the test schedule (grn.TestSchedule)
// over the survivors and verdicts so far, with DPI as configured, and
// makes the requested survivors, grouped by tile in ascending tile and
// (i, j) order, the current round. No tile may be in flight. It
// returns the round's tiles; none means every survivor the network
// needs is decided, and completes the progress.
func (l *commitLog) selectTests(cfg Config, round int) ([]roundTile, error) {
	if cfg.Trace != nil {
		defer cfg.Trace.Span(phaseRow(cfg), fmt.Sprintf("select-%d", round))()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	edges := l.state.Edges
	if l.sched == nil {
		var err error
		if l.sched, err = grn.NewTestSchedule(l.state.Fingerprint.Genes, edges, cfg.DPI, cfg.DPITolerance); err != nil {
			return nil, err
		}
	}
	ids, err := l.sched.Next(l.state.Verdicts)
	if err != nil {
		return nil, err
	}
	type request struct {
		ti int
		id int32
	}
	reqs := make([]request, len(ids))
	for x, id := range ids {
		e := edges[id]
		reqs[x] = request{tile.IndexOf(l.state.Fingerprint.Genes, cfg.TileSize, e.I, e.J), id}
	}
	slices.SortFunc(reqs, func(a, b request) int {
		if c := cmp.Compare(a.ti, b.ti); c != 0 {
			return c
		}
		ea, eb := edges[a.id], edges[b.id]
		if c := cmp.Compare(ea.I, eb.I); c != 0 {
			return c
		}
		return cmp.Compare(ea.J, eb.J)
	})
	var work []roundTile
	for _, r := range reqs {
		if n := len(work); n == 0 || work[n-1].ti != r.ti {
			work = append(work, roundTile{ti: r.ti})
		}
		work[len(work)-1].ids = append(work[len(work)-1].ids, r.id)
	}
	l.round, l.roundDone = work, make([]bool, len(work))
	if len(work) == 0 {
		l.sched = nil
		if l.done < l.total {
			l.done = l.total
			if l.progress != nil {
				l.progress(l.done, l.total)
			}
		}
	}
	return work, nil
}

// survivors returns the survivor list the test pass reads; no tile is
// observed while a test round runs, so the slice stays valid.
func (l *commitLog) survivors() []grn.Edge {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state.Edges
}

// pendingTests returns the uncommitted tiles of the current test round
// as indices into it, in ascending order.
func (l *commitLog) pendingTests() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []int
	for x, done := range l.roundDone {
		if !done {
			out = append(out, x)
		}
	}
	return out
}

// commitTest records the verdicts of test-round tile x (pass[y] for
// its y-th survivor), saves on the interval, and reports progress. A
// tile that is already committed is ignored.
func (l *commitLog) commitTest(x int, pass []bool, c tileCounts) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.roundDone[x] {
		return
	}
	l.roundDone[x] = true
	tt := l.round[x]
	for y, id := range tt.ids {
		l.state.Verdicts[id] = verdict(pass[y])
	}
	l.state.EvalsPerTile[tt.ti] += c.permEvals
	l.testedLocked(tt.ti)
	l.committedLocked(c)
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
// of the work done in this session (a resumed scan's committed tiles
// and verdicts are not re-counted), and the network of every survivor
// that passed its test, across sessions.
func (l *commitLog) report(res *Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	res.Threshold, res.NullSize = l.state.Threshold, l.state.NullSize
	res.PairsEvaluated = l.session.pairEvals
	res.PairsCertified = l.session.pairsCertified
	res.PairsSurvived = l.session.survived
	res.PairsTested = l.session.tested
	res.PermEvaluations = l.session.permEvals
	res.PermutationsSkipped = l.session.skipped
	res.PermutationsCertified = l.session.certified
	net := grn.New(l.state.Fingerprint.Genes)
	for x, e := range l.state.Edges {
		if l.state.Verdicts[x] == grn.Passed {
			net.AddEdge(e.I, e.J, e.Weight)
		}
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
		Bootstraps:      cfg.Ensemble.Bootstraps,
		SubsampleFrac:   cfg.Ensemble.SubsampleFrac,
		EnsembleSeed:    cfg.Ensemble.Seed,
	}
}
