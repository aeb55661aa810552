package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/grn"
	"repro/internal/metrics"
)

// This file is the job-API plumbing the single server and the fleet
// coordinator share: request instrumentation, the job lookup's 410/404
// contract, the SSE status stream, and the result routes. Each side's
// handlers only fetch their own state and call in here.

// statusWriter captures the response code for logs and metrics.
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

// Instrument returns a route wrapper that logs each request to logger
// and counts it in reg under the counter name, labeled by route and
// status code.
func Instrument(reg *metrics.Registry, logger *slog.Logger, name, help string) func(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(route string, h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
			h(sw, r)
			reg.Counter(name, help, metrics.Labels{"route": route, "code": strconv.Itoa(sw.code)}).Inc()
			logger.Info("request",
				"method", r.Method, "route", route, "path", r.URL.Path,
				"status", sw.code, "dur_ms", float64(time.Since(start).Microseconds())/1000)
		}
	}
}

// Lookup resolves the request's {id} with find, which reports the job
// or, for an evicted one, its content key. A miss is answered here: an
// evicted job gets 410 Gone plus the key, so a late poller (typically
// an SSE reconnect racing TTL eviction) can resubmit the identical scan
// and hit a cache or checkpoint instead of starting blind; an id that
// never existed gets 404. Lookup returns nil after answering.
func Lookup[J any](w http.ResponseWriter, r *http.Request, find func(id string) (j *J, goneKey string, gone bool)) *J {
	j, key, gone := find(r.PathValue("id"))
	switch {
	case j != nil:
	case gone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGone)
		json.NewEncoder(w).Encode(map[string]string{"error": "job evicted", "key": key})
	default:
		http.Error(w, "unknown job", http.StatusNotFound)
	}
	return j
}

// StreamEvents streams a job's status as Server-Sent Events: a
// "progress" event whenever the snapshot changes (sampled every poll),
// then a single event named by the terminal state, after which the
// stream closes. Clients that would otherwise hammer GET /jobs/{id}
// hold one connection instead.
func StreamEvents[S comparable](w http.ResponseWriter, r *http.Request, poll time.Duration, snapshot func() (S, JobState)) {
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

	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	var last S
	sent := false
	for {
		st, state := snapshot()
		if !sent || st != last {
			name := "progress"
			if state.terminal() {
				name = string(state)
			}
			if err := writeEvent(w, name, st); err != nil {
				return
			}
			fl.Flush()
			last, sent = st, true
		}
		if state.terminal() {
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

// done reports whether a result route may serve; otherwise it answers
// 409 with the job's state.
func done(w http.ResponseWriter, st JobState, res *core.Result) bool {
	if st != StateDone || res == nil {
		http.Error(w, fmt.Sprintf("job is %s", st), http.StatusConflict)
		return false
	}
	return true
}

// ServeNetwork serves a finished job's network as TSV (409 until done).
func ServeNetwork(w http.ResponseWriter, st JobState, res *core.Result, names []string) {
	if !done(w, st, res) {
		return
	}
	w.Header().Set("Content-Type", "text/tab-separated-values")
	// Once the response has started, a write error (a client hanging up)
	// leaves nothing useful to send.
	_ = res.Network.WriteTSV(w, names)
}

// ServeSupport serves an ensemble job's support-weighted edge table as
// TSV (409 until done, 404 for a job that did not run in ensemble
// mode).
func ServeSupport(w http.ResponseWriter, st JobState, res *core.Result, names []string) {
	if !done(w, st, res) {
		return
	}
	if res.Ensemble == nil {
		http.Error(w, "job was not an ensemble run", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/tab-separated-values")
	_ = res.Ensemble.WriteSupportTSV(w, names)
}

// ResultResponse is the machine-readable scan result served at
// GET /jobs/{id}/result. The network TSV rounds weights to 6
// significant digits — fine for humans, fatal for the fleet
// coordinator's bit-identity merge — while JSON float64s round-trip
// exactly (Go emits the shortest representation that parses back to
// the same bits). Edges are [i, j, weight] triples in sorted order.
// The embedded Counters put every counter of the run at the top level
// under its schema key.
type ResultResponse struct {
	ID        string       `json:"id"`
	Key       string       `json:"key"`
	Threshold float64      `json:"threshold"`
	Edges     [][3]float64 `json:"edges"`
	core.Counters

	// Ensemble extensions. Full ensemble runs serve the support table as
	// [i, j, support, weightSum] rows (weightSum, not the rounded mean:
	// the fleet's bit-identity contract extends to float64 sums) plus the
	// per-bootstrap thresholds; partial runs (bcount > 0) additionally
	// serve each bootstrap's edge list so the coordinator can fold them
	// in ascending bootstrap order.
	EnsembleBootstraps int            `json:"ensembleBootstraps,omitempty"`
	EnsembleThresholds []float64      `json:"ensembleThresholds,omitempty"`
	Support            [][4]float64   `json:"support,omitempty"`
	BootstrapEdges     [][][3]float64 `json:"bootstrapEdges,omitempty"`
}

// ServeResult serves a finished job's ResultResponse (409 until done).
func ServeResult(w http.ResponseWriter, st JobState, res *core.Result, id, key string) {
	if !done(w, st, res) {
		return
	}
	out := ResultResponse{
		ID: id, Key: key, Threshold: res.Threshold,
		Edges:              edgeTriples(res.Network.Edges()),
		Counters:           res.Counters,
		EnsembleThresholds: res.EnsembleThresholds,
	}
	if res.Ensemble != nil {
		out.EnsembleBootstraps = res.Ensemble.Bootstraps()
		for _, se := range res.Ensemble.Edges() {
			out.Support = append(out.Support, [4]float64{
				float64(se.I), float64(se.J), float64(se.Support), se.WeightSum,
			})
		}
	}
	for _, net := range res.EnsembleNetworks {
		out.BootstrapEdges = append(out.BootstrapEdges, edgeTriples(net.Edges()))
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// edgeTriples renders edges as the [i, j, weight] triples of the
// result JSON.
func edgeTriples(edges []grn.Edge) [][3]float64 {
	out := make([][3]float64, 0, len(edges))
	for _, e := range edges {
		out = append(out, [3]float64{float64(e.I), float64(e.J), e.Weight})
	}
	return out
}
