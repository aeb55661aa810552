package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/grn"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/tile"
)

// ScanState is a fleet scan's (and fleet job's) lifecycle phase. The
// values deliberately mirror server.JobState so fleet clients can
// reuse their polling logic unchanged.
type ScanState = server.JobState

// States (aliased from the server package).
const (
	StateQueued   = server.StateQueued
	StateRunning  = server.StateRunning
	StateDone     = server.StateDone
	StateFailed   = server.StateFailed
	StateCanceled = server.StateCanceled
)

// Coordinator fans scans out over a fleet of worker tinged instances.
// Create with New, adjust the exported knobs before first use, then
// serve Handler() or drive the Go API (Submit/Wait). All knobs must be
// set before the first request.
type Coordinator struct {
	// Workers is the list of worker base URLs (e.g. http://host:8080).
	Workers []string
	// ChunksPerScan is how many chunk jobs a scan is split into
	// (default 2×len(Workers): enough slack that a reassigned chunk
	// does not serialize the tail). Clamped to the tile count.
	ChunksPerScan int
	// MaxChunkRetries bounds the total attempts per chunk (default 5).
	// A chunk that fails more often fails the scan — the bounded-retry
	// guarantee that a poisoned input cannot ricochet forever.
	MaxChunkRetries int
	// PollInterval is the worker job-status poll cadence (default
	// 100ms).
	PollInterval time.Duration
	// ChunkTimeout bounds one chunk attempt end to end (default 10m);
	// a worker that accepted a chunk but stopped answering is declared
	// dead and the chunk is reassigned.
	ChunkTimeout time.Duration
	// RetryBackoff is how long a worker sits out after a failed
	// attempt before pulling new work (default 200ms).
	RetryBackoff time.Duration
	// CacheTTL is how long a completed scan's result serves from the
	// content-addressed cache (default 15m).
	CacheTTL time.Duration
	// TTL is how long terminal fleet jobs stay queryable (default 15m).
	TTL time.Duration
	// MaxJobs caps the job registry (default 256).
	MaxJobs int
	// MaxActiveScans bounds concurrently executing scans; submissions
	// past it shed with 429 unless they dedupe onto a running scan
	// (default 4).
	MaxActiveScans int
	// MaxBodyBytes bounds uploaded matrices (default 1 GiB).
	MaxBodyBytes int64
	// CheckpointDir, when set, persists each scan's chunk ledger there
	// (checkpoint.State keyed by the scan's content address), so a
	// restarted coordinator resumes a half-finished scan's pending
	// chunks instead of redispatching everything.
	CheckpointDir string
	// EventPoll is the SSE snapshot interval (default 50ms).
	EventPoll time.Duration
	// Logger receives structured records (default: discard).
	Logger *slog.Logger
	// Metrics is the exported registry (default: a fresh one).
	Metrics *metrics.Registry
	// Client is the HTTP client used to reach workers (default: a
	// dedicated client with sane timeouts). Tests inject a rerouting /
	// fault-injecting transport here.
	Client *http.Client

	initOnce sync.Once

	mu       sync.Mutex
	scans    map[string]*scan // by content key: single-flight + result cache
	jobs     map[string]*fleetJob
	order    []string
	gone     map[string]string // evicted job id -> content key (410 Gone)
	goneOrd  []string
	nextID   int64
	draining bool
	wg       sync.WaitGroup
	now      func() time.Time

	workers []*workerState

	mDispatched, mRetried, mReassigned *metrics.Counter
	mCacheHits, mCacheMisses           *metrics.Counter
	mScansStarted, mScansFailed        *metrics.Counter
}

// workerState is one worker URL plus its instruments.
type workerState struct {
	base     string
	inflight *metrics.Gauge
	chunks   *metrics.Counter
	failures *metrics.Counter
}

// scan is the deduplicated unit of fleet work: one content-addressed
// submission, however many client jobs watch it.
type scan struct {
	key    string
	cfg    core.Config // validated coordinator-level config (filters included)
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed at terminal state

	// Immutable after prepare():
	body    []byte
	genes   []string
	norm    *mat.Dense // rank-normalized matrix for the CMI merge filter
	n       int
	chunks  []Chunk
	tileIdx map[[2]int]int // (rowBlock, colBlock) -> tile index, for edge validation

	mu       sync.Mutex
	state    ScanState
	err      string
	progress float64
	result   *core.Result
	resumed  int // chunks skipped via the persisted ledger
	ledger   *checkpoint.State
	// chunksDone is the ledger's completed-chunk count, kept for status
	// once finishScan has released the ledger.
	chunksDone int
	// Ensemble fan-out state (cfg.Ensemble.Enabled()): each chunk is one
	// bootstrap. SupportEdge.WeightSum accumulates in ascending bootstrap
	// order, so out-of-order worker results wait in bootEdges until the
	// fold prefix (folded) reaches them; only the folded prefix is
	// persisted to the ledger.
	ens        *grn.Ensemble
	bootEdges  [][]grn.Edge
	bootThresh []float64
	bootDone   []bool
	folded     int
	attempts   []int // per-chunk attempt counts
	lastWorker []int // per-chunk index of the last worker tried (-1 none)
	// chunkCounters holds each chunk's counters, nil for chunks not run
	// in this session; the merge folds them in ascending chunk order.
	chunkCounters []*core.Counters
	watchers      int
	created       time.Time
	started       time.Time
	finished      time.Time

	// Ledger persistence, serialized separately from mu so disk writes
	// never stall commits. savedDone keeps snapshots monotonic.
	saveMu    sync.Mutex
	savedDone int
}

// fleetJob is one client-visible submission: an id watching a scan.
type fleetJob struct {
	id   string
	scan *scan

	mu       sync.Mutex
	canceled bool
	created  time.Time
	cacheHit bool
}

// New returns a coordinator over the given worker base URLs.
func New(workers []string) *Coordinator {
	return &Coordinator{
		Workers:      workers,
		MaxBodyBytes: 1 << 30,
		scans:        make(map[string]*scan),
		jobs:         make(map[string]*fleetJob),
		gone:         make(map[string]string),
		now:          time.Now,
	}
}

// init finalizes configuration on first use.
func (c *Coordinator) init() {
	c.initOnce.Do(func() {
		if c.ChunksPerScan <= 0 {
			c.ChunksPerScan = 2 * len(c.Workers)
			if c.ChunksPerScan < 1 {
				c.ChunksPerScan = 1
			}
		}
		if c.MaxChunkRetries <= 0 {
			c.MaxChunkRetries = 5
		}
		if c.PollInterval <= 0 {
			c.PollInterval = 100 * time.Millisecond
		}
		if c.ChunkTimeout <= 0 {
			c.ChunkTimeout = 10 * time.Minute
		}
		if c.RetryBackoff <= 0 {
			c.RetryBackoff = 200 * time.Millisecond
		}
		if c.CacheTTL <= 0 {
			c.CacheTTL = 15 * time.Minute
		}
		if c.TTL <= 0 {
			c.TTL = 15 * time.Minute
		}
		if c.MaxJobs <= 0 {
			c.MaxJobs = 256
		}
		if c.MaxActiveScans <= 0 {
			c.MaxActiveScans = 4
		}
		if c.EventPoll <= 0 {
			c.EventPoll = 50 * time.Millisecond
		}
		if c.Logger == nil {
			c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
		}
		if c.Metrics == nil {
			c.Metrics = metrics.New()
		}
		if c.Client == nil {
			c.Client = &http.Client{Timeout: 30 * time.Second}
		}
		r := c.Metrics
		c.mDispatched = r.Counter("tinge_fleet_chunks_dispatched_total", "Chunk job attempts sent to workers.", nil)
		c.mRetried = r.Counter("tinge_fleet_chunks_retried_total", "Chunk attempts after the first (any worker).", nil)
		c.mReassigned = r.Counter("tinge_fleet_chunks_reassigned_total", "Chunk retries that moved to a different worker.", nil)
		c.mCacheHits = r.Counter("tinge_cache_hits_total", "Submissions served by the content-addressed cache or deduped onto a running scan.", nil)
		c.mCacheMisses = r.Counter("tinge_cache_misses_total", "Submissions that started a fresh fleet scan.", nil)
		c.mScansStarted = r.Counter("tinge_fleet_scans_started_total", "Fleet scans started.", nil)
		c.mScansFailed = r.Counter("tinge_fleet_scans_failed_total", "Fleet scans that exhausted chunk retries or hit a fatal error.", nil)
		for _, base := range c.Workers {
			w := &workerState{
				base:     base,
				inflight: r.Gauge("tinge_fleet_worker_inflight", "Chunk jobs currently running on the worker.", metrics.Labels{"worker": base}),
				chunks:   r.Counter("tinge_fleet_worker_chunks_done_total", "Chunks the worker completed.", metrics.Labels{"worker": base}),
				failures: r.Counter("tinge_fleet_worker_failures_total", "Chunk attempts the worker failed (errors, timeouts, shed load).", metrics.Labels{"worker": base}),
			}
			c.workers = append(c.workers, w)
		}
		for _, st := range []ScanState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
			st := st
			r.GaugeFunc("tinge_fleet_jobs", "Fleet jobs by state.",
				metrics.Labels{"state": string(st)}, func() float64 { return float64(c.countState(st)) })
		}
		r.GaugeFunc("tinge_fleet_workers", "Configured fleet size.", nil,
			func() float64 { return float64(len(c.Workers)) })
		r.GaugeFunc("tinge_fleet_cached_scans", "Scans resident in the content-addressed cache.", nil,
			func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				return float64(len(c.scans))
			})
	})
}

func (c *Coordinator) countState(st ScanState) int {
	c.mu.Lock()
	js := make([]*fleetJob, 0, len(c.jobs))
	for _, j := range c.jobs {
		js = append(js, j)
	}
	c.mu.Unlock()
	n := 0
	for _, j := range js {
		if j.scan.snapshotState() == st {
			n++
		}
	}
	return n
}

// Submit registers a scan for the given expression matrix body and
// validated-or-validatable config. Identical submissions — same matrix
// bytes, same scan config — dedupe: while a scan runs they attach as
// watchers; after it completes they serve from the result cache until
// CacheTTL. Returns the new job id and whether the submission hit the
// cache/single-flight path.
func (c *Coordinator) Submit(body []byte, cfg core.Config) (id string, hit bool, err error) {
	c.init()
	if len(c.Workers) == 0 {
		return "", false, fmt.Errorf("fleet: no workers configured")
	}
	if err := cfg.Validate(); err != nil {
		return "", false, err
	}
	if cfg.Engine != core.Host {
		return "", false, fmt.Errorf("fleet: only the host engine fans out, have %v", cfg.Engine)
	}
	if cfg.ChunkTiles > 0 {
		return "", false, fmt.Errorf("fleet: submissions cannot carry a chunk range")
	}
	if cfg.Ensemble.Count > 0 {
		return "", false, fmt.Errorf("fleet: submissions cannot carry a bootstrap range")
	}
	key := server.JobKey(body, cfg)

	c.mu.Lock()
	c.evictLocked()
	if c.draining {
		c.mu.Unlock()
		return "", false, errDraining
	}
	sc, ok := c.scans[key]
	if !ok {
		active := 0
		for _, other := range c.scans {
			if !other.snapshotState().Terminal() {
				active++
			}
		}
		if active >= c.MaxActiveScans {
			c.mu.Unlock()
			return "", false, errBusy
		}
		ctx, cancel := context.WithCancel(context.Background())
		sc = &scan{
			key: key, cfg: cfg, ctx: ctx, cancel: cancel,
			done: make(chan struct{}), body: body,
			state: StateQueued, created: c.now(),
		}
		c.scans[key] = sc
		c.wg.Add(1)
		go c.runScan(sc)
	}
	sc.mu.Lock()
	sc.watchers++
	sc.mu.Unlock()
	c.nextID++
	j := &fleetJob{id: fmt.Sprintf("fl-%d", c.nextID), scan: sc, created: c.now(), cacheHit: ok}
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	c.mu.Unlock()

	if ok {
		c.mCacheHits.Inc()
	} else {
		c.mCacheMisses.Inc()
	}
	c.Logger.Info("fleet job", "job", j.id, "key", key, "hit", ok)
	return j.id, ok, nil
}

// Wait blocks until the job's scan reaches a terminal state and
// returns the merged result (an error for failed/canceled scans).
func (c *Coordinator) Wait(ctx context.Context, id string) (*core.Result, error) {
	c.mu.Lock()
	j := c.jobs[id]
	c.mu.Unlock()
	if j == nil {
		return nil, fmt.Errorf("fleet: unknown job %s", id)
	}
	select {
	case <-j.scan.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	j.scan.mu.Lock()
	defer j.scan.mu.Unlock()
	if j.scan.state != StateDone {
		return nil, fmt.Errorf("fleet: scan %s: %s", j.scan.state, j.scan.err)
	}
	return j.scan.result, nil
}

// GeneNames returns the gene names of a completed job's scan.
func (c *Coordinator) GeneNames(id string) []string {
	c.mu.Lock()
	j := c.jobs[id]
	c.mu.Unlock()
	if j == nil {
		return nil
	}
	return j.scan.genes
}

var (
	errDraining = fmt.Errorf("fleet: coordinator is shutting down")
	errBusy     = fmt.Errorf("fleet: scan limit reached")
)

func (s *scan) snapshotState() ScanState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// ledgerPath is the scan's persisted chunk-ledger file.
func (c *Coordinator) ledgerPath(key string) string {
	return filepath.Join(c.CheckpointDir, key+".fleet.ckpt")
}

// prepare parses the submission, plans the chunks, and builds (or
// resumes) the chunk ledger. Called once, from runScan, before any
// dispatch.
func (c *Coordinator) prepare(s *scan) error {
	data, err := expr.StreamTSV(bytes.NewReader(s.body))
	if err != nil {
		return fmt.Errorf("parse expression matrix: %w", err)
	}
	if data.MissingCount() > 0 {
		data.ImputeRowMean()
	}
	if data.Expr.Rows() < 2 {
		return fmt.Errorf("need at least 2 genes, have %d", data.Expr.Rows())
	}
	s.genes = data.Genes
	s.n = data.Expr.Rows()
	// The fields status reads (chunks, ledger, resumed) are built in
	// locals and published under s.mu at the end: a status poll can
	// arrive while the scan is still being prepared.
	var chunks []Chunk
	var ledger *checkpoint.State
	resumed := 0
	if s.cfg.Ensemble.Enabled() {
		// Ensemble fan-out: one chunk per bootstrap, each a worker job
		// with bstart=b, bcount=1 over the full pair triangle. The worker
		// runs its bootstrap's filters itself (they are per-bootstrap
		// passes), so the merge only folds and thresholds.
		b := s.cfg.Ensemble.Bootstraps
		chunks = make([]Chunk, b)
		for i := range chunks {
			chunks[i] = Chunk{Index: i}
		}
		s.ens = grn.NewEnsemble(s.n)
		s.bootEdges = make([][]grn.Edge, b)
		s.bootThresh = make([]float64, b)
		s.bootDone = make([]bool, b)
	} else {
		chunks = PlanChunks(s.n, s.cfg.TileSize, c.ChunksPerScan)
		if len(chunks) == 0 {
			return fmt.Errorf("empty chunk plan for %d genes", s.n)
		}
		// The CMI merge filter needs rank-normalized rows; prepare them up
		// front (cheap next to the scan) and let the matrix itself go.
		if s.cfg.CMIFilter {
			norm := data.Expr.Clone()
			norm.RankNormalize()
			s.norm = norm
		}
		// (rowBlock, colBlock) -> tile index, to verify that every edge a
		// worker returns belongs to the chunk it was asked to scan.
		tiles := tile.Decompose(s.n, s.cfg.TileSize)
		s.tileIdx = make(map[[2]int]int, len(tiles))
		for i, t := range tiles {
			s.tileIdx[[2]int{t.I0 / s.cfg.TileSize, t.J0 / s.cfg.TileSize}] = i
		}
	}

	// Chunk ledger: one checkpoint.State slot per chunk — the same
	// pending-tile recovery log the cluster engine uses, so a dead
	// worker's chunks (or a restarted coordinator's) are reassigned,
	// never lost. Ensemble scans use one slot per bootstrap.
	fp := core.Fingerprint(s.n, data.Expr.Cols(), s.cfg)
	ledger = checkpoint.NewState(fp, len(chunks))
	if s.cfg.Ensemble.Enabled() {
		ledger.EnsembleThresholds = make([]float64, len(chunks))
	}
	if c.CheckpointDir != "" {
		saved, err := checkpoint.LoadFile(c.ledgerPath(s.key))
		if err == nil && saved != nil && saved.Validate(fp, len(chunks)) == nil {
			ledger = saved
			if s.cfg.Ensemble.Enabled() {
				// Only the contiguous ascending-fold prefix is trustworthy
				// (WeightSum order); anything past it is redispatched.
				prefix := 0
				for prefix < len(saved.Done) && saved.Done[prefix] {
					prefix++
				}
				for i := prefix; i < len(saved.Done); i++ {
					saved.Done[i] = false
				}
				s.ens.Restore(saved.EnsembleEdges, prefix)
				s.folded = prefix
				for i := 0; i < prefix; i++ {
					s.bootDone[i] = true
					s.bootThresh[i] = saved.EnsembleThresholds[i]
				}
			}
			// Like every resumed scan, the merged result counts only the
			// chunks this session ran.
			resumed = len(chunks) - saved.Remaining()
		}
		// Corrupt or mismatched ledgers start fresh: the ledger is an
		// optimization, never worth failing a scan over.
	}
	s.attempts = make([]int, len(chunks))
	s.chunkCounters = make([]*core.Counters, len(chunks))
	s.lastWorker = make([]int, len(chunks))
	for i := range s.lastWorker {
		s.lastWorker[i] = -1
	}
	s.mu.Lock()
	s.chunks, s.ledger, s.resumed = chunks, ledger, resumed
	s.mu.Unlock()
	return nil
}

// runScan drives one scan to a terminal state: prepare, dispatch all
// pending chunks over the worker pool with reassignment, then merge.
func (c *Coordinator) runScan(s *scan) {
	defer c.wg.Done()
	defer s.cancel()
	c.mScansStarted.Inc()

	if err := c.prepare(s); err != nil {
		c.finishScan(s, StateFailed, err.Error())
		return
	}
	s.mu.Lock()
	s.state = StateRunning
	s.started = c.now()
	pending := s.ledger.PendingTiles()
	s.progress = progressOf(len(s.chunks)-len(pending), len(s.chunks))
	s.mu.Unlock()
	c.Logger.Info("scan running", "key", s.key,
		"genes", s.n, "chunks", len(s.chunks), "resumed", s.resumed)

	if len(pending) > 0 {
		queue := make(chan int, len(s.chunks))
		for _, ci := range pending {
			queue <- ci
		}
		remaining := make(chan int, 1)
		remaining <- len(pending)
		var wg sync.WaitGroup
		for wi := range c.workers {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				c.workerLoop(s, wi, queue, remaining)
			}(wi)
		}
		wg.Wait()
	}

	if err := s.ctx.Err(); err != nil {
		s.mu.Lock()
		msg := s.err
		s.mu.Unlock()
		if msg == "" {
			c.finishScan(s, StateCanceled, "")
		} else {
			c.finishScan(s, StateFailed, msg)
		}
		return
	}
	c.merge(s)
}

// workerLoop pulls chunk indices from the queue and runs them on
// worker wi until the queue closes (scan complete) or the scan
// context is canceled (client cancel or fatal failure).
func (c *Coordinator) workerLoop(s *scan, wi int, queue chan int, remaining chan int) {
	w := c.workers[wi]
	for {
		select {
		case <-s.ctx.Done():
			return
		case ci, ok := <-queue:
			if !ok {
				return
			}
			s.mu.Lock()
			s.attempts[ci]++
			attempt := s.attempts[ci]
			prev := s.lastWorker[ci]
			s.lastWorker[ci] = wi
			s.mu.Unlock()
			c.mDispatched.Inc()
			if attempt > 1 {
				c.mRetried.Inc()
				if prev != wi {
					c.mReassigned.Inc()
				}
			}
			w.inflight.Add(1)
			res, err := c.runChunk(s, w, s.chunks[ci])
			w.inflight.Add(-1)
			if err != nil {
				w.failures.Inc()
				if s.ctx.Err() != nil {
					return
				}
				c.Logger.Warn("chunk attempt failed", "key", s.key,
					"chunk", ci, "worker", w.base, "attempt", attempt, "error", err)
				if attempt >= c.MaxChunkRetries {
					s.mu.Lock()
					if s.err == "" {
						s.err = fmt.Sprintf("chunk %d failed %d times: last error from %s: %v",
							ci, attempt, w.base, err)
					}
					s.mu.Unlock()
					c.mScansFailed.Inc()
					s.cancel()
					return
				}
				// Requeue for any worker (the buffer holds every chunk, so
				// this never blocks) and sit out the backoff before pulling
				// new work — a dead worker must not spin through retries.
				queue <- ci
				select {
				case <-time.After(c.RetryBackoff):
				case <-s.ctx.Done():
				}
				continue
			}
			w.chunks.Inc()
			if err := c.commitChunk(s, ci, res); err != nil {
				s.mu.Lock()
				if s.err == "" {
					s.err = err.Error()
				}
				s.mu.Unlock()
				c.mScansFailed.Inc()
				s.cancel()
				return
			}
			n := <-remaining
			n--
			remaining <- n
			if n == 0 {
				close(queue)
				return
			}
		}
	}
}

// commitChunk validates a chunk result and records it in the ledger.
// A result whose edges fall outside the chunk's tile range is a
// protocol violation (a confused or corrupted worker) and fails the
// scan rather than poisoning the merge.
func (c *Coordinator) commitChunk(s *scan, ci int, res *server.ResultResponse) error {
	if s.cfg.Ensemble.Enabled() {
		return c.commitBootstrap(s, ci, res)
	}
	ch := s.chunks[ci]
	edges := make([]grn.Edge, 0, len(res.Edges))
	for _, e := range res.Edges {
		i, j := int(e[0]), int(e[1])
		if i < 0 || j <= i || j >= s.n {
			return fmt.Errorf("fleet: chunk %d returned out-of-range edge (%d,%d)", ci, i, j)
		}
		ti, ok := s.tileIdx[[2]int{i / s.cfg.TileSize, j / s.cfg.TileSize}]
		if !ok || ti < ch.TileStart || ti >= ch.TileStart+ch.TileCount {
			return fmt.Errorf("fleet: chunk %d returned edge (%d,%d) outside its tile range", ci, i, j)
		}
		edges = append(edges, grn.Edge{I: i, J: j, Weight: e[2]})
	}

	s.mu.Lock()
	if s.ledger.Done[ci] {
		s.mu.Unlock()
		return nil // duplicate completion (e.g. timed-out attempt that finished anyway)
	}
	// The phase-3 threshold is seed-deterministic and chunk-independent,
	// so every worker recomputes the identical value; the first commit
	// adopts it and every later one must agree bit-for-bit.
	if s.ledger.NullSize == 0 {
		s.ledger.Threshold = res.Threshold
		s.ledger.NullSize = res.NullSize
	} else if s.ledger.Threshold != res.Threshold || s.ledger.NullSize != res.NullSize {
		s.mu.Unlock()
		return fmt.Errorf("fleet: chunk %d threshold %v disagrees with %v — workers are not scanning the same job",
			ci, res.Threshold, s.ledger.Threshold)
	}
	s.ledger.Done[ci] = true
	s.ledger.Edges = append(s.ledger.Edges, edges...)
	counts := res.Counters
	s.chunkCounters[ci] = &counts
	done := len(s.chunks) - s.ledger.Remaining()
	if p := progressOf(done, len(s.chunks)); p > s.progress {
		s.progress = p
	}
	var ledgerCopy *checkpoint.State
	if c.CheckpointDir != "" {
		// Deep snapshot under the lock: concurrent commits keep mutating
		// the live ledger while this one is being encoded to disk.
		cp := *s.ledger
		cp.Done = append([]bool(nil), s.ledger.Done...)
		cp.Edges = append([]grn.Edge(nil), s.ledger.Edges...)
		ledgerCopy = &cp
	}
	s.mu.Unlock()

	if ledgerCopy != nil {
		// Serialize writers and never let an older snapshot overwrite a
		// newer one: a stale ledger only costs a rescanned chunk after a
		// restart, but monotonicity is cheap to keep.
		s.saveMu.Lock()
		if done > s.savedDone {
			if err := checkpoint.SaveFile(c.ledgerPath(s.key), ledgerCopy); err != nil {
				c.Logger.Warn("ledger save failed", "key", s.key, "error", err)
			} else {
				s.savedDone = done
			}
		}
		s.saveMu.Unlock()
	}
	return nil
}

// commitBootstrap records one bootstrap's partial-ensemble result and
// advances the ascending fold prefix. A worker that returns anything
// but exactly one bootstrap network is a protocol violation.
func (c *Coordinator) commitBootstrap(s *scan, ci int, res *server.ResultResponse) error {
	if len(res.BootstrapEdges) != 1 || len(res.EnsembleThresholds) != 1 {
		return fmt.Errorf("fleet: bootstrap %d returned %d edge lists and %d thresholds, want 1",
			ci, len(res.BootstrapEdges), len(res.EnsembleThresholds))
	}
	edges := make([]grn.Edge, 0, len(res.BootstrapEdges[0]))
	for _, e := range res.BootstrapEdges[0] {
		i, j := int(e[0]), int(e[1])
		if i < 0 || j <= i || j >= s.n {
			return fmt.Errorf("fleet: bootstrap %d returned out-of-range edge (%d,%d)", ci, i, j)
		}
		edges = append(edges, grn.Edge{I: i, J: j, Weight: e[2]})
	}

	s.mu.Lock()
	if s.bootDone[ci] {
		s.mu.Unlock()
		return nil // duplicate completion
	}
	s.bootDone[ci] = true
	s.bootEdges[ci] = edges
	s.bootThresh[ci] = res.EnsembleThresholds[0]
	counts := res.Counters
	s.chunkCounters[ci] = &counts
	// Advance the fold prefix: bootstraps must enter the aggregate in
	// ascending order (WeightSum is order-sensitive), so results that
	// arrived early wait in bootEdges until their turn.
	advanced := false
	for s.folded < len(s.bootDone) && s.bootDone[s.folded] {
		net := grn.New(s.n)
		for _, e := range s.bootEdges[s.folded] {
			net.AddEdge(e.I, e.J, e.Weight)
		}
		s.ens.Fold(net)
		s.bootEdges[s.folded] = nil
		s.ledger.Done[s.folded] = true
		s.ledger.EnsembleThresholds[s.folded] = s.bootThresh[s.folded]
		s.folded++
		advanced = true
	}
	if advanced {
		s.ledger.EnsembleEdges = s.ens.Edges()
	}
	done := 0
	for _, d := range s.bootDone {
		if d {
			done++
		}
	}
	if p := progressOf(done, len(s.chunks)); p > s.progress {
		s.progress = p
	}
	var ledgerCopy *checkpoint.State
	prefix := s.folded
	if advanced && c.CheckpointDir != "" {
		cp := *s.ledger
		cp.Done = append([]bool(nil), s.ledger.Done...)
		cp.EnsembleEdges = append([]grn.SupportEdge(nil), s.ledger.EnsembleEdges...)
		cp.EnsembleThresholds = append([]float64(nil), s.ledger.EnsembleThresholds...)
		ledgerCopy = &cp
	}
	s.mu.Unlock()

	if ledgerCopy != nil {
		s.saveMu.Lock()
		if prefix > s.savedDone {
			if err := checkpoint.SaveFile(c.ledgerPath(s.key), ledgerCopy); err != nil {
				c.Logger.Warn("ledger save failed", "key", s.key, "error", err)
			} else {
				s.savedDone = prefix
			}
		}
		s.saveMu.Unlock()
	}
	return nil
}

// counters folds this session's chunk counters in ascending chunk
// order, so the last-rule gauges (an imbalance, a hybrid split, an
// ensemble's null size) come from the highest chunk that ran, whatever
// order the chunks committed in.
func (s *scan) counters() core.Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum core.Counters
	for _, c := range s.chunkCounters {
		if c != nil {
			sum.Fold(c)
		}
	}
	return sum
}

func progressOf(done, total int) float64 {
	if total <= 0 {
		return 0
	}
	return float64(done) / float64(total)
}

// merge assembles the completed chunks into the Result a
// single-process scan would return: union the edge sets (chunks
// partition the pair triangle, so no duplicates), adopt the shared
// threshold and the folded counters, then run the phase-5 filters
// exactly once over the merged network.
func (c *Coordinator) merge(s *scan) {
	if s.cfg.Ensemble.Enabled() {
		c.mergeEnsemble(s)
		return
	}
	timer := stats.NewTimer()
	var net *grn.Network
	var buildErr error
	timer.Time("merge", func() {
		defer func() {
			if r := recover(); r != nil {
				buildErr = fmt.Errorf("fleet: merge failed: %v", r)
			}
		}()
		net = grn.New(s.n)
		for _, e := range s.ledger.Edges {
			net.AddEdge(e.I, e.J, e.Weight)
		}
	})
	if buildErr != nil {
		c.mScansFailed.Inc()
		c.finishScan(s, StateFailed, buildErr.Error())
		return
	}
	res := &core.Result{Network: net, Threshold: s.ledger.Threshold, Timer: timer, Counters: s.counters()}
	// The ledger holds the null of a scan resumed with no chunk left to run.
	res.NullSize = s.ledger.NullSize
	var rows grn.RowFunc
	if s.cfg.CMIFilter {
		rows = core.ResidentRows(s.norm)
	}
	if err := core.ApplyFilters(s.cfg, res, rows); err != nil {
		c.mScansFailed.Inc()
		c.finishScan(s, StateFailed, err.Error())
		return
	}
	res.Network.Compact()
	s.mu.Lock()
	s.result = res
	s.mu.Unlock()
	if c.CheckpointDir != "" {
		checkpoint.Remove(c.ledgerPath(s.key))
	}
	c.finishScan(s, StateDone, "")
}

// mergeEnsemble closes out an ensemble scan: every bootstrap has been
// folded in ascending order as it committed, so all that remains is the
// consensus cut. No outer filters run — each worker already filtered
// its bootstrap network.
func (c *Coordinator) mergeEnsemble(s *scan) {
	timer := stats.NewTimer()
	var res *core.Result
	var buildErr error
	counters := s.counters()
	timer.Time("merge", func() {
		defer func() {
			if r := recover(); r != nil {
				buildErr = fmt.Errorf("fleet: ensemble merge failed: %v", r)
			}
		}()
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.folded != len(s.chunks) {
			buildErr = fmt.Errorf("fleet: ensemble merge with %d of %d bootstraps folded", s.folded, len(s.chunks))
			return
		}
		res = &core.Result{
			Network:            s.ens.Consensus(s.cfg.Ensemble.SupportCutoff),
			Ensemble:           s.ens,
			EnsembleThresholds: append([]float64(nil), s.bootThresh...),
			Threshold:          s.bootThresh[len(s.bootThresh)-1],
			Timer:              timer,
			Counters:           counters,
		}
	})
	if buildErr != nil {
		c.mScansFailed.Inc()
		c.finishScan(s, StateFailed, buildErr.Error())
		return
	}
	res.Network.Compact()
	s.mu.Lock()
	s.result = res
	s.mu.Unlock()
	if c.CheckpointDir != "" {
		checkpoint.Remove(c.ledgerPath(s.key))
	}
	c.finishScan(s, StateDone, "")
}

// finishScan records a scan's terminal state and releases its bulk
// buffers: the cached entry keeps the result and gene names, not the
// raw matrix, the chunk ledger with its raw pre-filter edges, the tile
// index, or the bootstrap edge buffers.
func (c *Coordinator) finishScan(s *scan, st ScanState, errMsg string) {
	s.mu.Lock()
	s.state = st
	if errMsg != "" && s.err == "" {
		s.err = errMsg
	}
	if st == StateDone {
		s.progress = 1
	}
	s.finished = c.now()
	s.body = nil
	s.norm = nil
	if s.ledger != nil {
		s.chunksDone = len(s.chunks) - s.ledger.Remaining()
	}
	s.ledger = nil
	s.tileIdx = nil
	s.bootEdges = nil
	wall := 0.0
	if !s.started.IsZero() {
		wall = s.finished.Sub(s.started).Seconds()
	}
	edges := -1
	if s.result != nil {
		edges = s.result.Network.Len()
	}
	msg := s.err
	s.mu.Unlock()
	close(s.done)

	// Failed and canceled scans leave the cache immediately: negative
	// results must not be content-addressed.
	if st != StateDone {
		c.mu.Lock()
		if c.scans[s.key] == s {
			delete(c.scans, s.key)
		}
		c.mu.Unlock()
	}
	attrs := []any{"key", s.key, "state", string(st), "wall_s", wall}
	if msg != "" {
		attrs = append(attrs, "error", msg)
	}
	if edges >= 0 {
		attrs = append(attrs, "edges", edges)
	}
	c.Logger.Info("scan finished", attrs...)
}

// cancelJob detaches one watcher; the scan itself is canceled only
// when its last watcher leaves.
func (c *Coordinator) cancelJob(j *fleetJob) {
	j.mu.Lock()
	already := j.canceled
	j.canceled = true
	j.mu.Unlock()
	if already {
		return
	}
	s := j.scan
	s.mu.Lock()
	s.watchers--
	last := s.watchers <= 0 && !s.state.Terminal()
	s.mu.Unlock()
	if last {
		s.mu.Lock()
		if s.err == "" {
			s.err = "canceled by client"
		}
		s.mu.Unlock()
		s.cancel()
	}
}

// evictLocked drops terminal fleet jobs past TTL (recording 410
// tombstones), caps the registry, expires cached scans past CacheTTL,
// and caps the cache at MaxJobs scans by dropping the oldest finished
// ones (a running scan is never evicted). Callers hold c.mu.
func (c *Coordinator) evictLocked() {
	now := c.now()
	kept := c.order[:0]
	for _, id := range c.order {
		j := c.jobs[id]
		if j.scan.snapshotState().Terminal() && now.Sub(j.scan.finishedAt()) > c.TTL {
			c.tombstoneLocked(id, j.scan.key)
			delete(c.jobs, id)
		} else {
			kept = append(kept, id)
		}
	}
	c.order = kept
	if len(c.order) > c.MaxJobs {
		kept = c.order[:0]
		over := len(c.order) - c.MaxJobs
		for _, id := range c.order {
			if over > 0 && c.jobs[id].scan.snapshotState().Terminal() {
				c.tombstoneLocked(id, c.jobs[id].scan.key)
				delete(c.jobs, id)
				over--
			} else {
				kept = append(kept, id)
			}
		}
		c.order = kept
	}
	type finished struct {
		key string
		at  time.Time
	}
	var done []finished
	for key, sc := range c.scans {
		sc.mu.Lock()
		terminal, at := sc.state.Terminal(), sc.finished
		sc.mu.Unlock()
		switch {
		case terminal && now.Sub(at) > c.CacheTTL:
			delete(c.scans, key)
		case terminal:
			done = append(done, finished{key, at})
		}
	}
	if over := len(c.scans) - c.MaxJobs; over > 0 {
		sort.Slice(done, func(a, b int) bool { return done[a].at.Before(done[b].at) })
		for _, f := range done[:min(over, len(done))] {
			delete(c.scans, f.key)
		}
	}
}

func (c *Coordinator) tombstoneLocked(id, key string) {
	if _, dup := c.gone[id]; !dup {
		c.gone[id] = key
		c.goneOrd = append(c.goneOrd, id)
	}
	for len(c.goneOrd) > c.MaxJobs {
		delete(c.gone, c.goneOrd[0])
		c.goneOrd = c.goneOrd[1:]
	}
}

func (s *scan) finishedAt() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.finished
}

// Shutdown cancels every active scan and waits for their goroutines,
// or returns ctx's error.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.init()
	c.mu.Lock()
	c.draining = true
	var active []*scan
	for _, sc := range c.scans {
		if !sc.snapshotState().Terminal() {
			active = append(active, sc)
		}
	}
	c.mu.Unlock()
	for _, sc := range active {
		sc.mu.Lock()
		if sc.err == "" {
			sc.err = "coordinator shutting down"
		}
		sc.mu.Unlock()
		sc.cancel()
	}
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
