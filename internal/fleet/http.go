package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// Status is the fleet job-status JSON shape — the single-server
// status plus the fleet-only fields (content key, cache-hit flag, chunk
// accounting). Once the scan is done, the embedded Counters (the merged
// result's) add every counter under its schema key; evaluations is the
// older status name of pairsEvaluated. It is comparable, which the SSE
// stream uses for change detection.
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
	Threshold  float64   `json:"threshold,omitempty"`
	Evals      int64     `json:"evaluations,omitempty"`
	*core.Counters
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
		resp.Threshold = s.result.Threshold
		resp.Evals = s.result.PairsEvaluated
		resp.Counters = &s.result.Counters
	}
	return resp
}

// Handler returns the coordinator's routed http.Handler. The surface
// mirrors the single-server API — same routes, same status shapes, the
// same 410 Gone contract after eviction — so existing tinged clients
// point at a coordinator unchanged.
func (c *Coordinator) Handler() http.Handler {
	c.init()
	in := server.Instrument(c.Metrics, c.Logger, "tinge_fleet_http_requests_total", "Coordinator HTTP requests by route and status.")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", in("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	}))
	mux.HandleFunc("POST /jobs", in("/jobs", c.handleSubmit))
	mux.HandleFunc("GET /jobs", in("/jobs", c.handleList))
	mux.HandleFunc("GET /jobs/{id}", in("/jobs/{id}", c.handleStatus))
	mux.HandleFunc("GET /jobs/{id}/network", in("/jobs/{id}/network", c.handleNetwork))
	mux.HandleFunc("GET /jobs/{id}/result", in("/jobs/{id}/result", c.handleResult))
	mux.HandleFunc("GET /jobs/{id}/support", in("/jobs/{id}/support", c.handleSupport))
	mux.HandleFunc("GET /jobs/{id}/events", in("/jobs/{id}/events", c.handleEvents))
	mux.HandleFunc("DELETE /jobs/{id}", in("/jobs/{id}", c.handleCancel))
	mux.Handle("GET /metrics", c.Metrics.Handler())
	return mux
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
	return server.Lookup(w, r, func(id string) (*fleetJob, string, bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.evictLocked()
		key, gone := c.gone[id]
		return c.jobs[id], key, gone
	})
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

// outcome snapshots what the result routes serve: the scan's state, its
// merged result (nil until done) and the gene names.
func (j *fleetJob) outcome() (ScanState, *core.Result, []string) {
	s := j.scan
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state, s.result, s.genes
}

func (c *Coordinator) handleNetwork(w http.ResponseWriter, r *http.Request) {
	if j := c.lookup(w, r); j != nil {
		st, res, names := j.outcome()
		server.ServeNetwork(w, st, res, names)
	}
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	if j := c.lookup(w, r); j != nil {
		st, res, _ := j.outcome()
		server.ServeResult(w, st, res, j.id, j.scan.key)
	}
}

// handleSupport serves the merged ensemble support table with the
// single server's contract, so clients read support tables from a
// coordinator and a worker identically.
func (c *Coordinator) handleSupport(w http.ResponseWriter, r *http.Request) {
	if j := c.lookup(w, r); j != nil {
		st, res, names := j.outcome()
		server.ServeSupport(w, st, res, names)
	}
}

// handleEvents is the coordinator's SSE stream, framed like the single
// server's, with the fleet Status payload (chunk counts included, so a
// client can render fan-out progress live).
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	if j := c.lookup(w, r); j != nil {
		server.StreamEvents(w, r, c.EventPoll, func() (Status, ScanState) {
			st := j.status()
			return st, st.State
		})
	}
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
