// Package server exposes the inference pipeline as an HTTP service —
// the deployment shape a shared-instrument lab actually runs: one
// machine (with the coprocessor) owns the compute, clients submit
// expression matrices and poll for networks.
//
// API:
//
//	POST   /jobs            TSV expression matrix in the body; config
//	                        via query params (permutations, alpha, dpi,
//	                        dpitolerance, cmi, cmiratio, engine, seed,
//	                        workers, nullpairs, ...).
//	                        Returns 202 with {"id": ...}, 429 with a
//	                        Retry-After header when the admission queue
//	                        is full, 503 while draining for shutdown.
//	GET    /jobs            list every registered job (oldest first).
//	GET    /jobs/{id}       job status JSON: state, progress, and — when
//	                        done — edges, threshold, timings.
//	GET    /jobs/{id}/network  the edge TSV (409 until done).
//	DELETE /jobs/{id}       cancel a queued or running job.
//	GET    /metrics         Prometheus text-format metrics: queue depth,
//	                        jobs by state, per-phase pipeline seconds,
//	                        kernel counters, job wall-time histogram.
//	GET    /healthz         liveness.
//
// Admission is bounded: at most MaxRunning jobs execute concurrently
// and at most MaxQueued more may wait; past that POST /jobs sheds load
// with 429. Terminal jobs (done/failed/canceled) are evicted from the
// registry after TTL, and the registry never holds more than MaxJobs
// terminal entries, so memory stays bounded under sustained traffic.
//
// When CheckpointDir is set, every (matrix, scan-config) submission is
// assigned a deterministic checkpoint file there. Shutdown cancels the
// running jobs, which flush their completed tiles to that file; a
// restarted server resumes an identical resubmission from the
// checkpoint instead of recomputing it.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/metrics"
)

// JobState is a job's lifecycle phase.
type JobState string

// Job states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// terminal reports whether s is a final state.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Terminal reports whether s is a final state — exported for the fleet
// coordinator, which reuses JobState for its scan lifecycle.
func (s JobState) Terminal() bool { return s.terminal() }

type job struct {
	id     string
	ctx    context.Context
	cancel context.CancelFunc
	// key is the scan's content address (JobKey) — returned with 410
	// Gone after the job is evicted so late pollers can resubmit and hit
	// a cache or checkpoint.
	key string
	// ckptPath is the job's checkpoint file ("" when checkpointing is
	// off or the engine does not support it).
	ckptPath string
	// scanKey is the content address of the whole scan the job belongs
	// to — key with the chunk range cleared, shared by every chunk of
	// one fleet scan — under which finished jobs lend their pooled-null
	// threshold to queued siblings. Empty for ensemble jobs, which have
	// one threshold per bootstrap.
	scanKey string

	mu        sync.Mutex
	state     JobState
	err       string
	progress  float64
	result    *core.Result
	geneNames []string
	created   time.Time
	started   time.Time
	finished  time.Time
}

func (j *job) snapshotState() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Server is the HTTP handler plus its job registry. Create with New,
// adjust the exported knobs before serving, mount via Handler.
type Server struct {
	// MaxBodyBytes bounds uploaded matrices (default 1 GiB).
	MaxBodyBytes int64
	// MaxRunning is the number of jobs executing concurrently
	// (default 1: the pipeline saturates the machine).
	MaxRunning int
	// MaxQueued is the number of additional jobs allowed to wait;
	// admission past MaxRunning+MaxQueued active jobs returns 429
	// (default 8).
	MaxQueued int
	// TTL is how long terminal jobs stay queryable before eviction
	// (default 15 minutes).
	TTL time.Duration
	// MaxJobs caps the registry size; when exceeded, the oldest
	// terminal jobs are evicted early (default 256).
	MaxJobs int
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// CheckpointDir, when non-empty, enables crash/shutdown-safe jobs:
	// each submission checkpoints into a deterministic file under the
	// directory, and an identical resubmission resumes from it.
	CheckpointDir string
	// Logger receives structured request and job-lifecycle records
	// (default: discard).
	Logger *slog.Logger
	// Metrics is the exported registry (default: a fresh one).
	Metrics *metrics.Registry
	// EventPoll is the /jobs/{id}/events snapshot interval (default
	// 50ms; tests shrink it).
	EventPoll time.Duration

	initOnce sync.Once

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // job ids, oldest first
	// gone maps evicted job ids to their content key (JobKey) so a late
	// GET — an SSE reconnect racing TTL eviction — gets 410 Gone plus
	// the key instead of an indistinguishable 404. Bounded FIFO.
	gone      map[string]string
	goneOrder []string
	nextID    int64
	draining  bool
	sem       chan struct{}
	wg        sync.WaitGroup
	// now is the lifecycle clock (a test seam; defaults to time.Now).
	now func() time.Time

	// Pre-registered instruments (hot-path safe: no registry lookups).
	mSubmitted, mRejected, mEvicted *metrics.Counter
	// mCounters holds one counter per core.CounterSchema row, aligned
	// with the schema; rows without a metric name (max and last rules)
	// stay nil.
	mCounters         []*metrics.Counter
	mPairs            *metrics.Counter
	mEnsSupportEdges  *metrics.Counter
	mThresholdsReused *metrics.Counter
	mTerminal         map[JobState]*metrics.Counter
	hJobSeconds       *metrics.Histogram
}

// New returns a server with default limits.
func New() *Server {
	return &Server{
		MaxBodyBytes: 1 << 30,
		MaxRunning:   1,
		MaxQueued:    8,
		TTL:          15 * time.Minute,
		MaxJobs:      256,
		RetryAfter:   time.Second,
		jobs:         make(map[string]*job),
		gone:         make(map[string]string),
		now:          time.Now,
	}
}

// init finalizes configuration on first use: the run semaphore is
// sized, defaults are filled, and instruments are registered.
func (s *Server) init() {
	s.initOnce.Do(func() {
		if s.MaxRunning < 1 {
			s.MaxRunning = 1
		}
		if s.MaxQueued < 0 {
			s.MaxQueued = 0
		}
		s.sem = make(chan struct{}, s.MaxRunning)
		if s.EventPoll <= 0 {
			s.EventPoll = 50 * time.Millisecond
		}
		if s.Logger == nil {
			s.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
		}
		if s.Metrics == nil {
			s.Metrics = metrics.New()
		}
		r := s.Metrics
		s.mSubmitted = r.Counter("tinge_jobs_submitted_total", "Jobs accepted for execution.", nil)
		s.mRejected = r.Counter("tinge_jobs_rejected_total", "Submissions shed with 429 at the queue bound.", nil)
		s.mEvicted = r.Counter("tinge_jobs_evicted_total", "Terminal jobs evicted from the registry.", nil)
		s.mTerminal = make(map[JobState]*metrics.Counter)
		for _, st := range []JobState{StateDone, StateFailed, StateCanceled} {
			s.mTerminal[st] = r.Counter("tinge_jobs_finished_total",
				"Jobs reaching a terminal state.", metrics.Labels{"state": string(st)})
		}
		for _, f := range core.CounterSchema() {
			var c *metrics.Counter
			if f.Metric != "" {
				c = r.Counter(f.Metric, f.Help, nil)
			}
			s.mCounters = append(s.mCounters, c)
		}
		// tinge_pairs_evaluated_total predates the split of observed-pair
		// and permutation evaluations and keeps counting both.
		s.mPairs = r.Counter("tinge_pairs_evaluated_total", "MI kernel evaluations including permutations.", nil)
		s.mEnsSupportEdges = r.Counter("tinge_ensemble_support_edges_total", "Support-matrix cells produced by completed ensemble jobs.", nil)
		s.mThresholdsReused = r.Counter("tinge_thresholds_reused_total", "Jobs that took their pooled-null threshold from a finished job of the same scan instead of computing it.", nil)
		s.hJobSeconds = r.Histogram("tinge_job_seconds", "Job wall time from start to terminal state.",
			nil, []float64{0.1, 0.5, 1, 5, 15, 60, 300, 1800, 7200})
		for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
			st := st
			r.GaugeFunc("tinge_jobs", "Registered jobs by state.",
				metrics.Labels{"state": string(st)}, func() float64 { return float64(s.countState(st)) })
		}
		r.GaugeFunc("tinge_queue_capacity", "Admission bound: max queued plus running jobs.",
			nil, func() float64 { return float64(s.MaxQueued + s.MaxRunning) })
	})
}

// countState counts registered jobs in state st.
func (s *Server) countState(st JobState) int {
	s.mu.Lock()
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	s.mu.Unlock()
	n := 0
	for _, j := range js {
		if j.snapshotState() == st {
			n++
		}
	}
	return n
}

// Handler returns the routed http.Handler.
func (s *Server) Handler() http.Handler {
	s.init()
	in := Instrument(s.Metrics, s.Logger, "tinge_http_requests_total", "HTTP requests by route and status.")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", in("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	}))
	mux.HandleFunc("POST /jobs", in("/jobs", s.handleSubmit))
	mux.HandleFunc("GET /jobs", in("/jobs", s.handleList))
	mux.HandleFunc("GET /jobs/{id}", in("/jobs/{id}", s.handleStatus))
	mux.HandleFunc("GET /jobs/{id}/network", in("/jobs/{id}/network", s.handleNetwork))
	mux.HandleFunc("GET /jobs/{id}/result", in("/jobs/{id}/result", s.handleResult))
	mux.HandleFunc("GET /jobs/{id}/support", in("/jobs/{id}/support", s.handleSupport))
	mux.HandleFunc("GET /jobs/{id}/events", in("/jobs/{id}/events", s.handleEvents))
	mux.HandleFunc("DELETE /jobs/{id}", in("/jobs/{id}", s.handleCancel))
	mux.Handle("GET /metrics", s.Metrics.Handler())
	return mux
}

// ParseConfig builds a core.Config from a request's query parameters.
// It is exported because the fleet coordinator accepts the identical
// parameter surface and re-serializes it (ConfigParams) when fanning
// chunk jobs out to workers.
func ParseConfig(r *http.Request) (core.Config, error) {
	return ParseConfigValues(r.URL.Query())
}

// ParseConfigValues is ParseConfig over bare query values.
func ParseConfigValues(q url.Values) (core.Config, error) {
	// DPITolerance's zero value means strict DPI; the query default must
	// stay the paper's 0.1, so start from the unset sentinel and let an
	// explicit dpitolerance=0 request strictness.
	cfg := core.Config{DPITolerance: -1}
	intParam := func(name string, dst *int) error {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("bad %s: %v", name, err)
			}
			*dst = n
		}
		return nil
	}
	for name, dst := range map[string]*int{
		"permutations":  &cfg.Permutations,
		"workers":       &cfg.Workers,
		"order":         &cfg.Order,
		"bins":          &cfg.Bins,
		"tile":          &cfg.TileSize,
		"ranks":         &cfg.Ranks,
		"nullpairs":     &cfg.NullSamplePairs,
		"ckptevery":     &cfg.CheckpointEvery,
		"maxrecoveries": &cfg.MaxRecoveries,
		"panelrows":     &cfg.PanelRows,
		"tilestart":     &cfg.ChunkStart,
		"tilecount":     &cfg.ChunkTiles,
		"bootstraps":    &cfg.Ensemble.Bootstraps,
		"bstart":        &cfg.Ensemble.Start,
		"bcount":        &cfg.Ensemble.Count,
	} {
		if err := intParam(name, dst); err != nil {
			return cfg, err
		}
	}
	if v := q.Get("memorybudget"); v != "" {
		b, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("bad memorybudget: %v", err)
		}
		cfg.MemoryBudget = b
	}
	floatParam := func(name string, dst *float64) error {
		if v := q.Get(name); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("bad %s: %v", name, err)
			}
			*dst = f
		}
		return nil
	}
	for name, dst := range map[string]*float64{
		"alpha":        &cfg.Alpha,
		"dpitolerance": &cfg.DPITolerance,
		"cmiratio":     &cfg.CMIRatio,
		"subsample":    &cfg.Ensemble.SubsampleFrac,
		"support":      &cfg.Ensemble.SupportCutoff,
	} {
		if err := floatParam(name, dst); err != nil {
			return cfg, err
		}
	}
	if v := q.Get("seed"); v != "" {
		sd, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("bad seed: %v", err)
		}
		cfg.Seed = sd
	}
	if v := q.Get("eseed"); v != "" {
		sd, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("bad eseed: %v", err)
		}
		cfg.Ensemble.Seed = sd
	}
	if v := q.Get("dpi"); v == "1" || v == "true" {
		cfg.DPI = true
	}
	if v := q.Get("cmi"); v == "1" || v == "true" {
		cfg.CMIFilter = true
	}
	switch v := q.Get("engine"); v {
	case "", "host":
		cfg.Engine = core.Host
	case "phi":
		cfg.Engine = core.Phi
	case "cluster":
		cfg.Engine = core.Cluster
	case "hybrid":
		cfg.Engine = core.Hybrid
	case "ooc":
		cfg.Engine = core.OutOfCore
	default:
		return cfg, fmt.Errorf("unknown engine %q", v)
	}
	switch v := q.Get("precision"); v {
	case "", "float64", "64":
		cfg.Precision = core.Float64
	case "float32", "32":
		cfg.Precision = core.Float32
	default:
		return cfg, fmt.Errorf("unknown precision %q", v)
	}
	return cfg, nil
}

// ConfigParams serializes every scan-defining field of cfg back into
// the query-parameter surface ParseConfig reads — the wire format the
// fleet coordinator uses to hand a chunk job to an unmodified worker.
// Round-trip invariant (tested): JobKey(body, parsed(ConfigParams(cfg)))
// == JobKey(body, cfg) for any validated cfg. Scheduling-only knobs
// (workers, checkpoint interval, budgets) are deliberately omitted so
// each worker applies its own machine-local defaults.
func ConfigParams(cfg core.Config) url.Values {
	q := url.Values{}
	setInt := func(name string, v int) {
		if v != 0 {
			q.Set(name, strconv.Itoa(v))
		}
	}
	setInt("order", cfg.Order)
	setInt("bins", cfg.Bins)
	setInt("permutations", cfg.Permutations)
	setInt("nullpairs", cfg.NullSamplePairs)
	setInt("tile", cfg.TileSize)
	setInt("tilestart", cfg.ChunkStart)
	setInt("tilecount", cfg.ChunkTiles)
	if cfg.Alpha != 0 {
		q.Set("alpha", strconv.FormatFloat(cfg.Alpha, 'g', -1, 64))
	}
	if cfg.Seed != 0 {
		q.Set("seed", strconv.FormatUint(cfg.Seed, 10))
	}
	q.Set("engine", cfg.Engine.String())
	if cfg.Precision == core.Float32 {
		q.Set("precision", "float32")
	}
	if cfg.DPI {
		q.Set("dpi", "1")
	}
	if cfg.CMIFilter {
		q.Set("cmi", "1")
	}
	// DPITolerance: emit explicitly (0 means strict DPI; the parse
	// default is the unset sentinel, so silence would change meaning).
	q.Set("dpitolerance", strconv.FormatFloat(cfg.DPITolerance, 'g', -1, 64))
	if cfg.CMIRatio != 0 {
		q.Set("cmiratio", strconv.FormatFloat(cfg.CMIRatio, 'g', -1, 64))
	}
	if cfg.Ensemble.Enabled() {
		setInt("bootstraps", cfg.Ensemble.Bootstraps)
		setInt("bstart", cfg.Ensemble.Start)
		setInt("bcount", cfg.Ensemble.Count)
		if cfg.Ensemble.SubsampleFrac != 0 {
			q.Set("subsample", strconv.FormatFloat(cfg.Ensemble.SubsampleFrac, 'g', -1, 64))
		}
		if cfg.Ensemble.SupportCutoff != 0 {
			q.Set("support", strconv.FormatFloat(cfg.Ensemble.SupportCutoff, 'g', -1, 64))
		}
		if cfg.Ensemble.Seed != 0 {
			q.Set("eseed", strconv.FormatUint(cfg.Ensemble.Seed, 10))
		}
	}
	return q
}

// JobKey fingerprints (matrix bytes, scan-affecting config) — the
// content address of a scan. The server uses it as the checkpoint file
// stem, so an identical resubmission maps to the same checkpoint and
// resumes; the fleet coordinator uses the same key for its
// content-addressed result cache and single-flight dedupe, and returns
// it with 410 Gone so a late client can re-hit the cache.
func JobKey(body []byte, cfg core.Config) string {
	h := sha256.New()
	h.Write(body)
	// The literals "bucketed" and false fill the slots of the retired
	// kernel option (at its default) and prescreen flag, so keys
	// (checkpoint stems, cached fleet results) computed while they
	// existed still match.
	fmt.Fprintf(h, "|%d|%d|%d|%d|%d|%v|%d|%v|%v|%v|%v|%v|%v|%v|%v",
		cfg.Order, cfg.Bins, cfg.Permutations, cfg.NullSamplePairs,
		cfg.TileSize, cfg.Alpha, cfg.Seed, cfg.Engine, cfg.DPI, "bucketed",
		cfg.Precision, false, cfg.DPITolerance, cfg.CMIFilter, cfg.CMIRatio)
	if cfg.ChunkTiles > 0 {
		fmt.Fprintf(h, "|chunk %d+%d", cfg.ChunkStart, cfg.ChunkTiles)
	}
	if cfg.Ensemble.Enabled() {
		// Every ensemble knob changes the scan's output: the bootstrap
		// count and subsample shape the support matrix, the ensemble seed
		// picks the subsets, and the cutoff picks the consensus network.
		fmt.Fprintf(h, "|ens %d %v %d %v",
			cfg.Ensemble.Bootstraps, cfg.Ensemble.SubsampleFrac,
			cfg.Ensemble.Seed, cfg.Ensemble.SupportCutoff)
		if cfg.Ensemble.Count > 0 {
			fmt.Fprintf(h, "|brange %d+%d", cfg.Ensemble.Start, cfg.Ensemble.Count)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// scanKey is JobKey with the chunk range cleared: the content address
// every chunk of one fleet scan shares.
func scanKey(body []byte, cfg core.Config) string {
	cfg.ChunkStart, cfg.ChunkTiles = 0, 0
	return JobKey(body, cfg)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Validate before keying, as the coordinator does: an invalid config
	// is a 400 now rather than a failed job later, and defaults are
	// filled in, so omitting a parameter and spelling out its default
	// give the same key (and resume the same checkpoint).
	cfg, err := ParseConfig(r)
	if err == nil {
		err = cfg.Validate()
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.MaxBodyBytes))
	if err != nil {
		http.Error(w, fmt.Sprintf("read body: %v", err), http.StatusBadRequest)
		return
	}
	data, err := expr.StreamTSV(bytes.NewReader(body))
	if err != nil {
		http.Error(w, fmt.Sprintf("parse expression matrix: %v", err), http.StatusBadRequest)
		return
	}
	if data.MissingCount() > 0 {
		data.ImputeRowMean()
	}
	// Every engine checkpoints now — the cluster engine also uses the
	// same state for rank recovery.
	key := JobKey(body, cfg)
	// Partial ensemble runs (fleet bootstrap chunks) are not
	// checkpointable — the bootstrap IS the checkpoint granularity.
	if s.CheckpointDir != "" && cfg.Ensemble.Count == 0 {
		cfg.CheckpointPath = filepath.Join(s.CheckpointDir, key+".ckpt")
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		ctx: ctx, cancel: cancel, key: key, ckptPath: cfg.CheckpointPath,
		state: StateQueued, geneNames: data.Genes,
	}
	if !cfg.Ensemble.Enabled() {
		j.scanKey = scanKey(body, cfg)
	}

	s.mu.Lock()
	s.evictLocked()
	if s.draining {
		s.mu.Unlock()
		cancel()
		http.Error(w, "server is shutting down", http.StatusServiceUnavailable)
		return
	}
	active := 0
	for _, other := range s.jobs {
		if !other.snapshotState().terminal() {
			active++
		}
	}
	if active >= s.MaxQueued+s.MaxRunning {
		s.mu.Unlock()
		cancel()
		s.mRejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int((s.RetryAfter+time.Second-1)/time.Second)))
		http.Error(w, "job queue full", http.StatusTooManyRequests)
		s.Logger.Warn("job rejected", "active", active, "bound", s.MaxQueued+s.MaxRunning)
		return
	}
	s.nextID++
	j.id = fmt.Sprintf("job-%d", s.nextID)
	j.created = s.now()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.wg.Add(1)
	s.mu.Unlock()

	s.mSubmitted.Inc()
	s.Logger.Info("job queued", "job", j.id,
		"genes", len(data.Genes), "samples", data.Expr.Cols(), "checkpoint", j.ckptPath != "")
	go s.run(j, data, cfg)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{"id": j.id})
}

// run executes one job: wait for a run slot, infer, record the
// terminal state. It owns the job's context (satellite fix: the cancel
// func is always released) and exports the run's counters on success.
func (s *Server) run(j *job, data *expr.Dataset, cfg core.Config) {
	defer s.wg.Done()
	defer j.cancel()

	select {
	case s.sem <- struct{}{}:
	case <-j.ctx.Done():
		s.finish(j, StateCanceled, "", nil)
		return
	}
	defer func() { <-s.sem }()
	if j.ctx.Err() != nil {
		s.finish(j, StateCanceled, "", nil)
		return
	}

	j.mu.Lock()
	j.state = StateRunning
	j.started = s.now()
	j.mu.Unlock()
	// Looked up now, not at submit: a chunk queued behind a sibling of
	// the same scan sees the sibling's threshold.
	if known := s.knownNull(j); known != nil {
		cfg.KnownNull = known
		s.mThresholdsReused.Inc()
	}
	s.Logger.Info("job running", "job", j.id, "known_threshold", cfg.KnownNull != nil)

	// Progress is monotonic: concurrent tile completions may report
	// out of order, and a resumed run restarts the fraction — never
	// move the published value backwards.
	cfg.Progress = func(d, total int) {
		if total <= 0 {
			return
		}
		f := float64(d) / float64(total)
		j.mu.Lock()
		if f > j.progress {
			j.progress = f
		}
		j.mu.Unlock()
	}

	res, err := core.InferContext(j.ctx, data.Expr, cfg)
	switch {
	case errors.Is(err, context.Canceled):
		s.finish(j, StateCanceled, "", nil)
	case err != nil:
		s.finish(j, StateFailed, err.Error(), nil)
	default:
		s.finish(j, StateDone, "", res)
	}
}

// knownNull returns the pooled-null outcome of a finished job of j's
// scan, or nil. Only successful jobs lend one, and ensemble jobs (no
// scanKey) neither lend nor borrow; the registry's TTL and MaxJobs
// bound how long one is remembered. Every chunk of a scan computes the
// identical threshold, so any finished sibling's value is the value j
// would compute.
func (s *Server) knownNull(j *job) *core.PooledNull {
	if j.scanKey == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		o := s.jobs[id]
		if o == j || o.scanKey != j.scanKey {
			continue
		}
		o.mu.Lock()
		st, res := o.state, o.result
		o.mu.Unlock()
		if st == StateDone && res != nil {
			return &core.PooledNull{Threshold: res.Threshold, Size: res.NullSize}
		}
	}
	return nil
}

// finish records a job's terminal state, exports its metrics, and
// cleans up its checkpoint when the result is final.
func (s *Server) finish(j *job, st JobState, errMsg string, res *core.Result) {
	if res != nil {
		// Serving a finished job reads only edge lists; drop the
		// adjacency indexes before the result is retained.
		res.Network.Compact()
		for _, net := range res.EnsembleNetworks {
			net.Compact()
		}
		// A finished network supersedes its checkpoint (and the
		// rotated last-good copy beside it). Remove both before the
		// done state is published, so no client sees a done job whose
		// checkpoint is still on disk.
		if j.ckptPath != "" {
			checkpoint.Remove(j.ckptPath)
		}
	}
	now := s.now()
	j.mu.Lock()
	j.state = st
	j.err = errMsg
	j.finished = now
	started := j.started
	if res != nil {
		j.progress = 1
		j.result = res
	}
	j.mu.Unlock()

	wall := 0.0
	if !started.IsZero() {
		wall = now.Sub(started).Seconds()
	}
	s.mTerminal[st].Inc()
	s.hJobSeconds.Observe(wall)
	if res != nil {
		for i, f := range core.CounterSchema() {
			if c := s.mCounters[i]; c != nil {
				c.Add(f.Value(&res.Counters))
			}
		}
		s.mPairs.Add(float64(res.PairsEvaluated + res.PermEvaluations))
		if res.Ensemble != nil {
			s.mEnsSupportEdges.Add(float64(res.Ensemble.Len()))
		}
		for phase, secs := range res.Timer.Seconds() {
			s.Metrics.Counter("tinge_phase_seconds_total",
				"Pipeline wall seconds by phase, summed over jobs.",
				metrics.Labels{"phase": phase}).Add(secs)
		}
	}
	attrs := []any{"job", j.id, "state", string(st), "wall_s", wall}
	if errMsg != "" {
		attrs = append(attrs, "error", errMsg)
	}
	if res != nil {
		attrs = append(attrs, "edges", res.Network.Len(), "threshold", res.Threshold,
			"evals", res.PairsEvaluated, "perm_evals", res.PermEvaluations)
	}
	s.Logger.Info("job finished", attrs...)
}

// evictLocked drops terminal jobs older than TTL and, past MaxJobs,
// the oldest terminal jobs regardless of age. Callers hold s.mu.
func (s *Server) evictLocked() {
	now := s.now()
	evict := func(j *job) bool {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.state.terminal() && now.Sub(j.finished) > s.TTL
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if evict(s.jobs[id]) {
			s.tombstoneLocked(id)
			delete(s.jobs, id)
			s.mEvicted.Inc()
		} else {
			kept = append(kept, id)
		}
	}
	s.order = kept
	if s.MaxJobs > 0 && len(s.order) > s.MaxJobs {
		kept = s.order[:0]
		over := len(s.order) - s.MaxJobs
		for _, id := range s.order {
			if over > 0 && s.jobs[id].snapshotState().terminal() {
				s.tombstoneLocked(id)
				delete(s.jobs, id)
				s.mEvicted.Inc()
				over--
			} else {
				kept = append(kept, id)
			}
		}
		s.order = kept
	}
}

// tombstoneLocked remembers an evicted job's content key so late reads
// get 410 Gone plus the key. The tombstone list is a FIFO capped at
// MaxJobs entries (256 when unset) — it must stay bounded under the
// same sustained traffic the registry cap exists for. Callers hold
// s.mu.
func (s *Server) tombstoneLocked(id string) {
	j := s.jobs[id]
	if j == nil {
		return
	}
	limit := s.MaxJobs
	if limit <= 0 {
		limit = 256
	}
	if _, dup := s.gone[id]; !dup {
		s.gone[id] = j.key
		s.goneOrder = append(s.goneOrder, id)
	}
	for len(s.goneOrder) > limit {
		delete(s.gone, s.goneOrder[0])
		s.goneOrder = s.goneOrder[1:]
	}
}

// Shutdown drains the server for a graceful exit: new submissions get
// 503, queued jobs are canceled, and running jobs either drain to
// completion (no CheckpointDir) or are canceled so they flush their
// progress to their checkpoint files for resume after restart. It
// returns once every job goroutine has exited, or with ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.init()
	s.mu.Lock()
	s.draining = true
	var toCancel []*job
	for _, id := range s.order {
		j := s.jobs[id]
		switch j.snapshotState() {
		case StateQueued:
			toCancel = append(toCancel, j)
		case StateRunning:
			if s.CheckpointDir != "" {
				toCancel = append(toCancel, j)
			}
		}
	}
	s.mu.Unlock()
	s.Logger.Info("shutdown draining", "canceling", len(toCancel), "checkpoint", s.CheckpointDir != "")
	for _, j := range toCancel {
		j.cancel()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.Logger.Info("shutdown complete")
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// statusResponse is the job-status JSON shape. Once the job is done,
// the embedded Counters (the finished result's, never modified after
// publication) add every counter under its schema key; evaluations and
// bootstrapsRun are the older status names of pairsEvaluated and
// ensembleBootstrapsRun. It is comparable, which the SSE stream uses
// for change detection.
type statusResponse struct {
	ID         string   `json:"id"`
	State      JobState `json:"state"`
	Progress   float64  `json:"progress"`
	Error      string   `json:"error,omitempty"`
	Created    string   `json:"created,omitempty"`
	Finished   string   `json:"finished,omitempty"`
	Edges      int      `json:"edges,omitempty"`
	Threshold  float64  `json:"threshold,omitempty"`
	Evals      int64    `json:"evaluations,omitempty"`
	Bootstraps int      `json:"bootstrapsRun,omitempty"`
	Support    int      `json:"supportEdges,omitempty"`
	*core.Counters
}

// status snapshots a job into the response shape. Callers must not
// hold j.mu.
func (j *job) status() statusResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	resp := statusResponse{ID: j.id, State: j.state, Progress: j.progress, Error: j.err}
	if !j.created.IsZero() {
		resp.Created = j.created.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		resp.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if j.result != nil {
		resp.Edges = j.result.Network.Len()
		resp.Threshold = j.result.Threshold
		resp.Evals = j.result.PairsEvaluated
		resp.Bootstraps = j.result.EnsembleBootstrapsRun
		resp.Counters = &j.result.Counters
		if j.result.Ensemble != nil {
			resp.Support = j.result.Ensemble.Len()
		}
	}
	return resp
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	return Lookup(w, r, func(id string) (*job, string, bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.evictLocked()
		key, gone := s.gone[id]
		return s.jobs[id], key, gone
	})
}

// outcome snapshots what the result routes serve: the state, the
// result (nil until done) and the gene names.
func (j *job) outcome() (JobState, *core.Result, []string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.result, j.geneNames
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.evictLocked()
	js := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		js = append(js, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]statusResponse, len(js))
	for i, j := range js {
		out[i] = j.status()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.status())
}

func (s *Server) handleNetwork(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		st, res, names := j.outcome()
		ServeNetwork(w, st, res, names)
	}
}

// handleSupport serves the ensemble support-weighted edge table as TSV
// (409 until done, 404 for jobs that did not run in ensemble mode).
func (s *Server) handleSupport(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		st, res, names := j.outcome()
		ServeSupport(w, st, res, names)
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		st, res, _ := j.outcome()
		ServeResult(w, st, res, j.id, j.key)
	}
}

// handleEvents streams job progress as Server-Sent Events (see
// StreamEvents); on disconnect clients reconnect here or fall back to
// polling — a late reconnect after eviction gets 410 with the content
// key.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		StreamEvents(w, r, s.EventPoll, func() (statusResponse, JobState) {
			st := j.status()
			return st, st.State
		})
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.cancel()
	s.Logger.Info("job cancel requested", "job", j.id)
	w.WriteHeader(http.StatusNoContent)
}
