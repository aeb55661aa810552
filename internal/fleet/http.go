package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/grn"
	"repro/internal/metrics"
	"repro/internal/server"
)

// Status is the fleet job-status JSON shape — the single-server
// statusResponse plus the fleet-only fields (content key, cache-hit
// flag, chunk accounting). It is comparable, which the SSE stream uses
// for change detection.
type Status struct {
	ID         string    `json:"id"`
	Key        string    `json:"key"`
	State      ScanState `json:"state"`
	Progress   float64   `json:"progress"`
	CacheHit   bool      `json:"cacheHit"`
	Error      string    `json:"error,omitempty"`
	Created    string    `json:"created,omitempty"`
	Finished   string    `json:"finished,omitempty"`
	Chunks     int       `json:"chunks,omitempty"`
	ChunksDone int       `json:"chunksDone,omitempty"`
	Resumed    int       `json:"resumedChunks,omitempty"`
	Edges      int       `json:"edges,omitempty"`
	RawEdges   int       `json:"rawEdges,omitempty"`
	Threshold  float64   `json:"threshold,omitempty"`
	Evals      int64     `json:"evaluations,omitempty"`
}

func (j *fleetJob) status() Status {
	j.mu.Lock()
	created := j.created
	hit := j.cacheHit
	canceled := j.canceled
	j.mu.Unlock()
	s := j.scan
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := Status{
		ID: j.id, Key: s.key, State: s.state, Progress: s.progress,
		CacheHit: hit, Error: s.err, Chunks: len(s.chunks), Resumed: s.resumed,
	}
	if canceled && !s.state.Terminal() {
		resp.State = StateCanceled
	}
	resp.ChunksDone = s.chunksDone
	if s.ledger != nil {
		resp.ChunksDone = len(s.chunks) - s.ledger.Remaining()
	}
	if !created.IsZero() {
		resp.Created = created.UTC().Format(time.RFC3339Nano)
	}
	if !s.finished.IsZero() {
		resp.Finished = s.finished.UTC().Format(time.RFC3339Nano)
	}
	if s.result != nil {
		resp.Edges = s.result.Network.Len()
		resp.RawEdges = s.result.RawEdges
		resp.Threshold = s.result.Threshold
		resp.Evals = s.result.PairsEvaluated
	}
	return resp
}

// Handler returns the coordinator's routed http.Handler. The surface
// mirrors the single-server API — same routes, same status shapes, the
// same 410 Gone contract after eviction — so existing tinged clients
// point at a coordinator unchanged.
func (c *Coordinator) Handler() http.Handler {
	c.init()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", c.instrument("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	}))
	mux.HandleFunc("POST /jobs", c.instrument("/jobs", c.handleSubmit))
	mux.HandleFunc("GET /jobs", c.instrument("/jobs", c.handleList))
	mux.HandleFunc("GET /jobs/{id}", c.instrument("/jobs/{id}", c.handleStatus))
	mux.HandleFunc("GET /jobs/{id}/network", c.instrument("/jobs/{id}/network", c.handleNetwork))
	mux.HandleFunc("GET /jobs/{id}/result", c.instrument("/jobs/{id}/result", c.handleResult))
	mux.HandleFunc("GET /jobs/{id}/support", c.instrument("/jobs/{id}/support", c.handleSupport))
	mux.HandleFunc("GET /jobs/{id}/events", c.instrument("/jobs/{id}/events", c.handleEvents))
	mux.HandleFunc("DELETE /jobs/{id}", c.instrument("/jobs/{id}", c.handleCancel))
	mux.Handle("GET /metrics", c.Metrics.Handler())
	return mux
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying Flusher so SSE streaming works
// through the instrumentation wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *Coordinator) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		c.Metrics.Counter("tinge_fleet_http_requests_total", "Coordinator HTTP requests by route and status.",
			metrics.Labels{"route": route, "code": fmt.Sprint(sw.code)}).Inc()
		c.Logger.Info("request",
			"method", r.Method, "route", route, "path", r.URL.Path,
			"status", sw.code, "dur_ms", float64(time.Since(start).Microseconds())/1000)
	}
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	cfg, err := server.ParseConfig(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.MaxBodyBytes))
	if err != nil {
		http.Error(w, fmt.Sprintf("read body: %v", err), http.StatusBadRequest)
		return
	}
	id, hit, err := c.Submit(body, cfg)
	switch {
	case err == nil:
	case err == errBusy:
		http.Error(w, "fleet scan limit reached", http.StatusTooManyRequests)
		return
	case err == errDraining:
		http.Error(w, "coordinator is shutting down", http.StatusServiceUnavailable)
		return
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	key := c.jobs[id].scan.key
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]any{"id": id, "key": key, "cached": hit})
}

func (c *Coordinator) lookup(w http.ResponseWriter, r *http.Request) *fleetJob {
	id := r.PathValue("id")
	c.mu.Lock()
	c.evictLocked()
	j := c.jobs[id]
	key, evicted := c.gone[id]
	c.mu.Unlock()
	if j == nil {
		if evicted {
			// Same contract as the single server: the job existed, its
			// entry aged out — 410 with the content key so the client can
			// resubmit and land a cache hit rather than a cold scan.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusGone)
			json.NewEncoder(w).Encode(map[string]string{
				"error": "job evicted", "key": key,
			})
			return nil
		}
		http.Error(w, "unknown job", http.StatusNotFound)
	}
	return j
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.evictLocked()
	js := make([]*fleetJob, 0, len(c.order))
	for _, id := range c.order {
		js = append(js, c.jobs[id])
	}
	c.mu.Unlock()
	out := make([]Status, len(js))
	for i, j := range js {
		out[i] = j.status()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := c.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.status())
}

// doneResult returns the job's merged result and gene names when its
// scan is done, or the state to report otherwise.
func (j *fleetJob) doneResult() (st ScanState, net *grn.Network, names []string, key string) {
	s := j.scan
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateDone && s.result != nil {
		return s.state, s.result.Network, s.genes, s.key
	}
	return s.state, nil, nil, s.key
}

func (c *Coordinator) handleNetwork(w http.ResponseWriter, r *http.Request) {
	j := c.lookup(w, r)
	if j == nil {
		return
	}
	st, net, names, _ := j.doneResult()
	if net == nil {
		http.Error(w, fmt.Sprintf("job is %s", st), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "text/tab-separated-values")
	if err := net.WriteTSV(w, names); err != nil && !strings.Contains(err.Error(), "broken pipe") {
		return
	}
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	j := c.lookup(w, r)
	if j == nil {
		return
	}
	s := j.scan
	s.mu.Lock()
	st := s.state
	res := s.result
	s.mu.Unlock()
	if st != StateDone || res == nil {
		http.Error(w, fmt.Sprintf("job is %s", st), http.StatusConflict)
		return
	}
	out := server.ResultResponse{
		ID:                    j.id,
		Key:                   s.key,
		Threshold:             res.Threshold,
		NullSize:              res.NullSize,
		RawEdges:              res.RawEdges,
		Edges:                 make([][3]float64, 0, res.Network.Len()),
		PairsEvaluated:        res.PairsEvaluated,
		PermEvaluations:       res.PermEvaluations,
		PermutationsSkipped:   res.PermutationsSkipped,
		PermutationsCertified: res.PermutationsCertified,
		PermCacheHits:         res.PermCacheHits,
		PermCacheMisses:       res.PermCacheMisses,
		CheckpointRecoveries:  res.CheckpointRecoveries,
		SpillReadRetries:      res.SpillReadRetries,
	}
	for _, e := range res.Network.Edges() {
		out.Edges = append(out.Edges, [3]float64{float64(e.I), float64(e.J), e.Weight})
	}
	if res.Ensemble != nil {
		out.EnsembleBootstraps = res.Ensemble.Bootstraps()
		for _, se := range res.Ensemble.Edges() {
			out.Support = append(out.Support, [4]float64{
				float64(se.I), float64(se.J), float64(se.Support), se.WeightSum,
			})
		}
	}
	out.EnsembleThresholds = res.EnsembleThresholds
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleSupport serves the merged ensemble support table as TSV — the
// same contract as the single server's route (409 until done, 404 for
// jobs that did not run in ensemble mode), so clients read support
// tables from a coordinator and a worker identically.
func (c *Coordinator) handleSupport(w http.ResponseWriter, r *http.Request) {
	j := c.lookup(w, r)
	if j == nil {
		return
	}
	s := j.scan
	s.mu.Lock()
	st := s.state
	var ens *grn.Ensemble
	var names []string
	if s.result != nil {
		ens = s.result.Ensemble
		names = s.genes
	}
	s.mu.Unlock()
	if st != StateDone {
		http.Error(w, fmt.Sprintf("job is %s", st), http.StatusConflict)
		return
	}
	if ens == nil {
		http.Error(w, "job was not an ensemble run", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/tab-separated-values")
	if err := ens.WriteSupportTSV(w, names); err != nil && !strings.Contains(err.Error(), "broken pipe") {
		return
	}
}

// handleEvents is the coordinator's SSE stream: "progress" events on
// every status change, one terminal event, then the stream closes —
// identical framing to the single server's, with the fleet Status
// payload (chunk counts included, so a client can render fan-out
// progress live).
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := c.lookup(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ticker := time.NewTicker(c.EventPoll)
	defer ticker.Stop()
	var last Status
	sent := false
	for {
		st := j.status()
		if !sent || st != last {
			name := "progress"
			if st.State.Terminal() {
				name = string(st.State)
			}
			if err := writeEvent(w, name, st); err != nil {
				return
			}
			fl.Flush()
			last, sent = st, true
		}
		if st.State.Terminal() {
			return
		}
		select {
		case <-ticker.C:
		case <-r.Context().Done():
			return
		}
	}
}

// writeEvent emits one SSE frame with a JSON payload.
func writeEvent(w io.Writer, name string, payload any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
	return err
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := c.lookup(w, r)
	if j == nil {
		return
	}
	c.cancelJob(j)
	c.Logger.Info("fleet job cancel requested", "job", j.id)
	w.WriteHeader(http.StatusNoContent)
}
