package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
)

// Output names emitted before the counter schema existed, each with the
// Counters fields whose sum it reports. They must keep their values.
var (
	legacyMetrics = map[string][]string{
		"tinge_pairs_evaluated_total":          {"PairsEvaluated", "PermEvaluations"},
		"tinge_perm_evaluations_total":         {"PermEvaluations"},
		"tinge_permutations_skipped_total":     {"PermutationsSkipped"},
		"tinge_permutations_certified_total":   {"PermutationsCertified"},
		"tinge_permcache_hits_total":           {"PermCacheHits"},
		"tinge_permcache_misses_total":         {"PermCacheMisses"},
		"tinge_rank_failures_total":            {"RankFailures"},
		"tinge_recovery_runs_total":            {"RecoveryRuns"},
		"tinge_recovered_tiles_total":          {"RecoveredTiles"},
		"tinge_checkpoint_corrupt_total":       {"CheckpointRecoveries"},
		"tinge_spill_read_retries_total":       {"SpillReadRetries"},
		"tinge_fault_delayed_messages_total":   {"FaultDelayedMessages"},
		"tinge_fault_dropped_messages_total":   {"FaultDroppedMessages"},
		"tinge_dpi_edges_removed_total":        {"DPIEdgesRemoved"},
		"tinge_cmi_edges_removed_total":        {"CMIEdgesRemoved"},
		"tinge_ensemble_bootstraps_total":      {"EnsembleBootstrapsRun"},
		"tinge_ensemble_stencils_reused_total": {"EnsembleStencilsReused"},
	}
	// The worker's status keys were omitted when zero.
	legacyWorkerStatus = map[string][]string{
		"evaluations":          {"PairsEvaluated"},
		"rawEdges":             {"RawEdges"},
		"permEvaluations":      {"PermEvaluations"},
		"dpiEdgesRemoved":      {"DPIEdgesRemoved"},
		"cmiEdgesRemoved":      {"CMIEdgesRemoved"},
		"simSeconds":           {"SimSeconds"},
		"checkpointRecoveries": {"CheckpointRecoveries"},
		"bootstrapsRun":        {"EnsembleBootstrapsRun"},
	}
	legacyFleetStatus = map[string][]string{
		"evaluations": {"PairsEvaluated"},
		"rawEdges":    {"RawEdges"},
	}
	legacyResult = map[string][]string{
		"nullSize":              {"NullSize"},
		"rawEdges":              {"RawEdges"},
		"pairsEvaluated":        {"PairsEvaluated"},
		"permEvaluations":       {"PermEvaluations"},
		"permutationsSkipped":   {"PermutationsSkipped"},
		"permutationsCertified": {"PermutationsCertified"},
		"permCacheHits":         {"PermCacheHits"},
		"permCacheMisses":       {"PermCacheMisses"},
		"checkpointRecoveries":  {"CheckpointRecoveries"},
		"spillReadRetries":      {"SpillReadRetries"},
	}
)

// sumFields adds the named Counters fields of c.
func sumFields(t *testing.T, c *core.Counters, names []string) float64 {
	t.Helper()
	total := 0.0
	for _, name := range names {
		found := false
		for _, f := range core.CounterSchema() {
			if f.Name == name {
				total += f.Value(c)
				found = true
			}
		}
		if !found {
			t.Fatalf("no counter %s in the schema", name)
		}
	}
	return total
}

// getJSON decodes a JSON object served at url.
func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	var out map[string]any
	if err := json.Unmarshal([]byte(getBody(t, url)), &out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return out
}

// submitJob posts body with cfg's query parameters and returns the job id.
func submitJob(t *testing.T, base string, body []byte, cfg core.Config) string {
	t.Helper()
	resp, err := http.Post(base+"/jobs?"+server.ConfigParams(cfg).Encode(), "text/tab-separated-values", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit to %s: status %d, %v", base, resp.StatusCode, err)
	}
	return sub.ID
}

// checkSchemaKeys requires every counter of the schema in doc under its
// key, with its value in want.
func checkSchemaKeys(t *testing.T, label string, doc map[string]any, want *core.Counters) {
	t.Helper()
	for _, f := range core.CounterSchema() {
		got, ok := doc[f.Key].(float64)
		if !ok || got != f.Value(want) {
			t.Errorf("%s: %s = %v (present %v), want %v", label, f.Key, doc[f.Key], ok, f.Value(want))
		}
	}
}

// checkLegacy requires each legacy key in doc with its old value; keys
// that were omitted when zero (omitEmpty) may still be absent then.
func checkLegacy(t *testing.T, label string, doc map[string]any, legacy map[string][]string, c *core.Counters, omitEmpty bool) {
	t.Helper()
	for key, fields := range legacy {
		want := sumFields(t, c, fields)
		got, ok := doc[key].(float64)
		if (ok || want != 0 || !omitEmpty) && got != want {
			t.Errorf("%s: legacy %s = %v (present %v), want %v", label, key, doc[key], ok, want)
		}
	}
}

// TestCounterSchemaOutputs drives a plain and an ensemble job through
// one worker and through a coordinator, and checks that every output
// reads the counter schema: every sum-rule counter is on the worker's
// /metrics, and every counter is in the worker's status and result
// JSON and the coordinator's status and result JSON, each with its
// value; and the metric names and JSON keys emitted before the schema
// keep their values. Apart from the legacy name lists it iterates
// core.CounterSchema, so a new counter is covered without editing it.
func TestCounterSchemaOutputs(t *testing.T) {
	body := fleetBody(t, 24, 16, 4)
	plain := scanConfig(t)
	plain.CMIFilter = true
	worker := newWorker(t)
	c, _ := newFleet(t, 2)
	coord := httptest.NewServer(c.Handler())
	t.Cleanup(coord.Close)

	var total core.Counters // the worker's jobs, as its /metrics sums them
	for _, cfg := range []core.Config{plain, ensembleScanConfig(t)} {
		label := "plain"
		if cfg.Ensemble.Enabled() {
			label = "ensemble"
		}
		want := reference(t, body, cfg)

		id := submitJob(t, worker.URL, body, cfg)
		waitHTTP(t, worker, id, StateDone)
		status := getJSON(t, worker.URL+"/jobs/"+id)
		raw := []byte(getBody(t, worker.URL+"/jobs/"+id+"/result"))
		var result map[string]any
		var res server.ResultResponse
		if err := json.Unmarshal(raw, &result); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		// The served counters are the run's: the deterministic ones match
		// an in-process run of the same scan.
		for _, f := range []string{"PairsEvaluated", "PermEvaluations", "RawEdges", "DPIEdgesRemoved", "CMIEdgesRemoved", "NullSize", "EnsembleBootstrapsRun"} {
			got, exp := sumFields(t, &res.Counters, []string{f}), sumFields(t, &want.Counters, []string{f})
			if got != exp {
				t.Errorf("%s worker: %s = %v, in-process %v", label, f, got, exp)
			}
		}
		checkSchemaKeys(t, label+" worker status", status, &res.Counters)
		checkSchemaKeys(t, label+" worker result", result, &res.Counters)
		checkLegacy(t, label+" worker status", status, legacyWorkerStatus, &res.Counters, true)
		checkLegacy(t, label+" worker result", result, legacyResult, &res.Counters, false)
		total.Fold(&res.Counters)

		cid := submitJob(t, coord.URL, body, cfg)
		merged, err := c.Wait(context.Background(), cid)
		if err != nil {
			t.Fatal(err)
		}
		if fw := fleetReference(t, body, cfg); merged.PairsEvaluated != fw.PairsEvaluated || merged.RawEdges != fw.RawEdges {
			t.Errorf("%s coordinator: %d pairs, %d raw edges; in-process %d, %d", label,
				merged.PairsEvaluated, merged.RawEdges, fw.PairsEvaluated, fw.RawEdges)
		}
		cstatus := getJSON(t, coord.URL+"/jobs/"+cid)
		cresult := getJSON(t, coord.URL+"/jobs/"+cid+"/result")
		checkSchemaKeys(t, label+" coordinator status", cstatus, &merged.Counters)
		checkSchemaKeys(t, label+" coordinator result", cresult, &merged.Counters)
		checkLegacy(t, label+" coordinator status", cstatus, legacyFleetStatus, &merged.Counters, true)
		checkLegacy(t, label+" coordinator result", cresult, legacyResult, &merged.Counters, false)
	}

	metrics := map[string]float64{}
	for _, line := range strings.Split(getBody(t, worker.URL+"/metrics"), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				metrics[line[:i]] = v
			}
		}
	}
	for _, f := range core.CounterSchema() {
		if f.Rule != core.Sum {
			continue
		}
		if got, ok := metrics[f.Metric]; !ok || got != f.Value(&total) {
			t.Errorf("/metrics %s = %v (present %v), want %v", f.Metric, got, ok, f.Value(&total))
		}
	}
	for name, fields := range legacyMetrics {
		if got, want := metrics[name], sumFields(t, &total, fields); got != want {
			t.Errorf("/metrics legacy %s = %v, want %v", name, got, want)
		}
	}
}

// TestFleetMergeIndependentOfCommitOrder: the coordinator folds the
// chunks' counters in ascending chunk order at merge, so one scan whose
// chunks commit in two different orders merges to identical Counters,
// the last-rule gauges included.
func TestFleetMergeIndependentOfCommitOrder(t *testing.T) {
	body := fleetBody(t, 24, 16, 4)
	cfg := scanConfig(t)
	c := New(nil)
	c.ChunksPerScan = 4
	c.init()
	plan := PlanChunks(24, cfg.TileSize, c.ChunksPerScan)
	results := make([]*server.ResultResponse, len(plan))
	for ci, ch := range plan {
		cc := cfg
		cc.DPI = false
		cc.ChunkStart, cc.ChunkTiles = ch.TileStart, ch.TileCount
		part := reference(t, body, cc)
		// Distinct gauges per chunk make the last-rule fold order visible.
		part.Imbalance = float64(ci + 1)
		part.HybridPhiShare = float64(ci+1) / 8
		var edges [][3]float64
		for _, e := range part.Network.Edges() {
			edges = append(edges, [3]float64{float64(e.I), float64(e.J), e.Weight})
		}
		results[ci] = &server.ResultResponse{Threshold: part.Threshold, Edges: edges, Counters: part.Counters}
	}
	merge := func(order ...int) core.Counters {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s := &scan{key: "order", cfg: cfg, ctx: ctx, cancel: cancel, done: make(chan struct{}), body: body}
		if err := c.prepare(s); err != nil {
			t.Fatal(err)
		}
		for _, ci := range order {
			if err := c.commitChunk(s, ci, results[ci]); err != nil {
				t.Fatal(err)
			}
		}
		c.merge(s)
		if s.result == nil {
			t.Fatalf("merge failed: %s", s.err)
		}
		return s.result.Counters
	}
	a, b := merge(0, 1, 2, 3), merge(3, 1, 0, 2)
	if a != b {
		t.Fatalf("merged counters depend on commit order:\n%+v\n%+v", a, b)
	}
	if a.Imbalance != 4 || a.HybridPhiShare != 0.5 {
		t.Fatalf("last-rule gauges %v, %v; want chunk 3's 4, 0.5", a.Imbalance, a.HybridPhiShare)
	}
}
