package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/grn"
	"repro/internal/metrics"
	"repro/internal/server"
)

// fleetBody generates a deterministic expression matrix TSV.
func fleetBody(t testing.TB, n, m int, seed uint64) []byte {
	t.Helper()
	d := expr.MustGenerate(expr.GenConfig{
		Genes: n, Experiments: m, AvgRegulators: 1, Noise: 0.05, Seed: seed,
	})
	var buf bytes.Buffer
	if err := d.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newWorker starts one stock tinged worker.
func newWorker(t testing.TB) *httptest.Server {
	t.Helper()
	srv := server.New()
	srv.MaxRunning = 2
	srv.MaxQueued = 64
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// newFleet starts count workers and a coordinator over them, tuned for
// test speed.
func newFleet(t testing.TB, count int) (*Coordinator, []*httptest.Server) {
	t.Helper()
	workers := make([]*httptest.Server, count)
	urls := make([]string, count)
	for i := range workers {
		workers[i] = newWorker(t)
		urls[i] = workers[i].URL
	}
	c := New(urls)
	c.PollInterval = 5 * time.Millisecond
	c.RetryBackoff = 20 * time.Millisecond
	c.EventPoll = 5 * time.Millisecond
	c.ChunkTimeout = 30 * time.Second
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	})
	return c, workers
}

// scanConfig is the shared small-but-nontrivial test scan: enough
// tiles (21 at tile=4 over 24 genes) for a real fan-out.
func scanConfig(t testing.TB) core.Config {
	t.Helper()
	cfg := core.Config{
		Permutations: 8, TileSize: 4, Seed: 11, DPI: true, DPITolerance: -1,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// reference runs the single-process scan the fleet must reproduce
// bit-for-bit.
func reference(t testing.TB, body []byte, cfg core.Config) *core.Result {
	t.Helper()
	data, err := expr.StreamTSV(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if data.MissingCount() > 0 {
		data.ImputeRowMean()
	}
	res, err := core.Infer(data.Expr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fleetReference is what a fleet scan of cfg must reproduce: the
// threshold and network of a single-process run of cfg, and the counts
// of a single-process run of its chunk config. Chunk jobs run with DPI
// and CMI off and test every threshold survivor, and the merge filters
// once, so a DPI-on fleet scan tests more pairs than the single
// process, which tests only those the DPI schedule needs. An ensemble
// fleet scan runs each bootstrap, filters included, on a worker, so its
// reference is the single-process run.
func fleetReference(t testing.TB, body []byte, cfg core.Config) *core.Result {
	t.Helper()
	want := reference(t, body, cfg)
	if cfg.Ensemble.Enabled() {
		return want
	}
	chunk := cfg
	chunk.DPI, chunk.CMIFilter = false, false
	out := *reference(t, body, chunk)
	out.Network = want.Network
	return &out
}

// assertBitIdentical fails unless got reproduces want exactly: same
// threshold bits, same edge set, same weight bits, and the same pair
// and permutation evaluation counts.
func assertBitIdentical(t testing.TB, got, want *core.Result) {
	t.Helper()
	if got.Threshold != want.Threshold {
		t.Fatalf("threshold %v != single-process %v", got.Threshold, want.Threshold)
	}
	if got.NullSize != want.NullSize {
		t.Fatalf("null size %d != single-process %d", got.NullSize, want.NullSize)
	}
	ge, we := got.Network.Edges(), want.Network.Edges()
	if len(ge) != len(we) {
		t.Fatalf("edge count %d != single-process %d", len(ge), len(we))
	}
	for i := range ge {
		if ge[i] != we[i] {
			t.Fatalf("edge %d: fleet %+v != single-process %+v", i, ge[i], we[i])
		}
	}
	if got.RawEdges != want.RawEdges {
		t.Fatalf("raw edges %d != single-process %d", got.RawEdges, want.RawEdges)
	}
	if got.PairsEvaluated != want.PairsEvaluated {
		t.Fatalf("pairs evaluated %d != single-process %d", got.PairsEvaluated, want.PairsEvaluated)
	}
	if got.PermEvaluations != want.PermEvaluations {
		t.Fatalf("perm evaluations %d != single-process %d", got.PermEvaluations, want.PermEvaluations)
	}
}

// TestFleetBitIdentity is the tentpole invariant: a scan fanned out
// over 3 workers merges to the exact network a single process
// produces, with DPI alone and with the CMI filter after it.
func TestFleetBitIdentity(t *testing.T) {
	body := fleetBody(t, 24, 16, 4)
	for _, tc := range []struct {
		name string
		mut  func(*core.Config)
	}{
		{"float64_dpi_cmi", func(c *core.Config) { c.CMIFilter = true }},
		{"float64_dpi", func(c *core.Config) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := scanConfig(t)
			tc.mut(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			want := fleetReference(t, body, cfg)

			c, _ := newFleet(t, 3)
			id, hit, err := c.Submit(body, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if hit {
				t.Fatal("fresh submission reported a cache hit")
			}
			got, err := c.Wait(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, got, want)
			if got.PermutationsCertified != want.PermutationsCertified {
				t.Fatalf("certified permutations %d != single-process %d", got.PermutationsCertified, want.PermutationsCertified)
			}
			if v := c.mDispatched.Value(); v < 2 {
				t.Fatalf("only %v chunk dispatches — no real fan-out", v)
			}
		})
	}
}

// TestFleetThresholdOncePerWorker: with single-slot workers (the
// production default), a scan fanned out as more chunks than workers
// computes its pooled null at most once per worker — every later chunk
// on a worker borrows it from the worker's finished sibling — and the
// merge is still bit-identical to a single-process scan.
func TestFleetThresholdOncePerWorker(t *testing.T) {
	body := fleetBody(t, 24, 16, 4)
	cfg := scanConfig(t)
	want := fleetReference(t, body, cfg)

	srvs := make([]*server.Server, 2)
	urls := make([]string, len(srvs))
	for i := range srvs {
		srvs[i] = server.New()
		srvs[i].MaxQueued = 64
		ts := httptest.NewServer(srvs[i].Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	c := New(urls)
	c.ChunksPerScan = 6
	c.PollInterval = 5 * time.Millisecond
	t.Cleanup(func() { c.Shutdown(context.Background()) })

	id, _, err := c.Submit(body, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got, want)

	chunks := 0.0
	for i, srv := range srvs {
		done := srv.Metrics.Counter("tinge_jobs_finished_total", "", metrics.Labels{"state": "done"}).Value()
		reused := srv.Metrics.Counter("tinge_thresholds_reused_total", "", nil).Value()
		if computed := done - reused; computed > 1 {
			t.Fatalf("worker %d computed the threshold %v times over %v chunks", i, computed, done)
		}
		chunks += done
	}
	if chunks < 4 {
		t.Fatalf("only %v chunks ran — the scan did not fan out", chunks)
	}
}

// TestFleetWorkerKillMidScan kills a worker once it has accepted work
// and requires the scan to converge bit-identically, with at least one
// chunk reassigned to a surviving worker.
func TestFleetWorkerKillMidScan(t *testing.T) {
	body := fleetBody(t, 24, 16, 4)
	cfg := scanConfig(t)
	want := fleetReference(t, body, cfg)

	c, workers := newFleet(t, 3)
	c.ChunksPerScan = 8
	c.MaxChunkRetries = 50
	c.RetryBackoff = 10 * time.Millisecond

	// Wrap worker 0 so its first accepted job triggers the kill: close
	// the server (connection refused from then on) while its chunk is
	// mid-flight at the coordinator.
	var accepted atomic.Int64
	victim := workers[0]
	inner := victim.Config.Handler
	killed := make(chan struct{})
	victim.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(w, r)
		if r.Method == http.MethodPost && accepted.Add(1) == 1 {
			go func() {
				victim.CloseClientConnections()
				victim.Close()
				close(killed)
			}()
		}
	})

	id, _, err := c.Submit(body, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-killed:
	default:
		t.Fatal("victim worker was never killed — kill hook did not fire")
	}
	assertBitIdentical(t, got, want)
	if v := c.mReassigned.Value(); v < 1 {
		t.Fatalf("chunks_reassigned_total = %v, want >= 1", v)
	}
	if v := c.mRetried.Value(); v < 1 {
		t.Fatalf("chunks_retried_total = %v, want >= 1", v)
	}
}

// TestFleetCacheDedupe submits 10 identical scans concurrently over
// HTTP and requires at least 9 to collapse onto the single-flight /
// cache path, all returning the identical network.
// TestFleetCacheBounded pins the result cache's count cap: with
// MaxJobs = 2, a third finished scan evicts the oldest, so resubmitting
// that one recomputes while resubmitting the newest still hits.
func TestFleetCacheBounded(t *testing.T) {
	body := fleetBody(t, 12, 16, 4)
	c, _ := newFleet(t, 1)
	c.MaxJobs = 2
	submit := func(seed uint64) bool {
		t.Helper()
		cfg := scanConfig(t)
		cfg.Seed = seed
		id, hit, err := c.Submit(body, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		return hit
	}
	for seed := uint64(1); seed <= 3; seed++ {
		if submit(seed) {
			t.Fatalf("first submission of seed %d hit the cache", seed)
		}
	}
	if submit(1) {
		t.Fatal("the oldest of 3 finished scans survived a cache capped at 2")
	}
	if !submit(3) {
		t.Fatal("the newest finished scan was evicted")
	}
	c.mu.Lock()
	cached := len(c.scans)
	c.mu.Unlock()
	if cached > c.MaxJobs {
		t.Fatalf("%d scans cached, cap %d", cached, c.MaxJobs)
	}
}

func TestFleetCacheDedupe(t *testing.T) {
	body := fleetBody(t, 24, 16, 4)
	c, _ := newFleet(t, 3)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	params := "permutations=8&tile=4&seed=11&dpi=1"

	const clients = 10
	type submitResp struct {
		ID     string `json:"id"`
		Key    string `json:"key"`
		Cached bool   `json:"cached"`
	}
	results := make([]submitResp, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/jobs?"+params, "text/tab-separated-values", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %d: status %d", i, resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&results[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	hits := 0
	for i, r := range results {
		if r.Cached {
			hits++
		}
		if r.Key != results[0].Key {
			t.Fatalf("submission %d keyed %s, others %s", i, r.Key, results[0].Key)
		}
	}
	if hits < clients-1 {
		t.Fatalf("%d/%d submissions hit the cache, want >= %d", hits, clients, clients-1)
	}
	if v := c.mCacheMisses.Value(); v != 1 {
		t.Fatalf("cache_misses_total = %v, want exactly 1", v)
	}
	if v := c.mCacheHits.Value(); v < float64(clients-1) {
		t.Fatalf("cache_hits_total = %v, want >= %d", v, clients-1)
	}

	// Every watcher sees the same terminal network.
	var first string
	for _, r := range results {
		waitHTTP(t, ts, r.ID, StateDone)
		tsv := getBody(t, ts.URL+"/jobs/"+r.ID+"/network")
		if first == "" {
			first = tsv
		} else if tsv != first {
			t.Fatalf("job %s serves a different network", r.ID)
		}
	}
	if first == "" || len(strings.Split(strings.TrimSpace(first), "\n")) == 0 {
		t.Fatal("empty network TSV")
	}

	// A late identical submission after completion is a pure result-cache
	// hit: done immediately, no new dispatches.
	before := c.mDispatched.Value()
	id, hit, err := c.Submit(body, mustParams(t, params))
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("post-completion resubmission missed the result cache")
	}
	if _, err := c.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if after := c.mDispatched.Value(); after != before {
		t.Fatalf("cache hit dispatched %v new chunks", after-before)
	}
}

func mustParams(t testing.TB, params string) core.Config {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/jobs?"+params, nil)
	cfg, err := server.ParseConfig(req)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func getBody(t testing.TB, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func waitHTTP(t testing.TB, ts *httptest.Server, id string, want ScanState) Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State == StateFailed {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return Status{}
}

// TestFleetSSECompleteness reads a job's whole event stream: ordered
// progress, a single terminal "done" event, then EOF.
func TestFleetSSECompleteness(t *testing.T) {
	body := fleetBody(t, 24, 16, 4)
	c, _ := newFleet(t, 3)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/jobs?permutations=8&tile=4&seed=11&dpi=1",
		"text/tab-separated-values", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	stream, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	type event struct {
		name string
		st   Status
	}
	var events []event
	sc := bufio.NewScanner(stream.Body)
	var name string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var st Status
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				t.Fatalf("bad event payload: %v", err)
			}
			events = append(events, event{name, st})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events received")
	}
	last := events[len(events)-1]
	if last.name != "done" || last.st.State != StateDone {
		t.Fatalf("stream ended with %q (%s), want done", last.name, last.st.State)
	}
	if last.st.Progress != 1 || last.st.Edges == 0 {
		t.Fatalf("terminal event incomplete: %+v", last.st)
	}
	prev := -1.0
	for i, e := range events {
		if i < len(events)-1 && e.name != "progress" {
			t.Fatalf("event %d named %q, want progress", i, e.name)
		}
		if e.st.Progress < prev {
			t.Fatalf("progress went backwards: %v after %v", e.st.Progress, prev)
		}
		prev = e.st.Progress
	}
}

// TestFleetGone410 pins the eviction contract: a TTL-evicted fleet job
// answers 410 Gone with its content key, not 404.
func TestFleetGone410(t *testing.T) {
	body := fleetBody(t, 16, 12, 4)
	c, _ := newFleet(t, 2)
	c.TTL = time.Millisecond
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	id, _, err := c.Submit(body, scanConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)

	resp, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("status = %d, want 410", resp.StatusCode)
	}
	var gone struct {
		Error string `json:"error"`
		Key   string `json:"key"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&gone); err != nil {
		t.Fatal(err)
	}
	if gone.Key == "" || gone.Error == "" {
		t.Fatalf("410 payload missing key/error: %+v", gone)
	}

	// A never-existing id stays a plain 404.
	resp2, err := http.Get(ts.URL + "/jobs/no-such-job")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id status = %d, want 404", resp2.StatusCode)
	}
}

// TestFleetLedgerResume hand-plants a half-finished chunk ledger and
// requires a fresh coordinator to resume it: the pre-done chunk is
// never redispatched and the merged result stays bit-identical.
func TestFleetLedgerResume(t *testing.T) {
	body := fleetBody(t, 24, 16, 4)
	cfg := scanConfig(t)
	want := fleetReference(t, body, cfg)
	dir := t.TempDir()

	const chunks = 4
	key := server.JobKey(body, cfg)
	plan := PlanChunks(24, cfg.TileSize, chunks)
	if len(plan) != chunks {
		t.Fatalf("planned %d chunks, want %d", len(plan), chunks)
	}

	// Compute chunk 0's honest partial result single-process.
	chunkCfg := cfg
	chunkCfg.DPI = false
	chunkCfg.ChunkStart = plan[0].TileStart
	chunkCfg.ChunkTiles = plan[0].TileCount
	part := reference(t, body, chunkCfg)

	st := checkpoint.NewState(core.Fingerprint(24, 16, cfg), chunks)
	st.Threshold = part.Threshold
	st.NullSize = part.NullSize
	st.Done[0] = true
	st.Edges = append(st.Edges, part.Network.Edges()...)
	ledger := dir + "/" + key + ".fleet.ckpt"
	if err := checkpoint.SaveFile(ledger, st); err != nil {
		t.Fatal(err)
	}

	c, _ := newFleet(t, 2)
	c.ChunksPerScan = chunks
	c.CheckpointDir = dir
	id, _, err := c.Submit(body, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	// The resumed scan counts only the chunks this session ran.
	session := *want
	session.PairsEvaluated -= part.PairsEvaluated
	session.PermEvaluations -= part.PermEvaluations
	assertBitIdentical(t, got, &session)
	if v := c.mDispatched.Value(); v != chunks-1 {
		t.Fatalf("dispatched %v chunks, want %d (chunk 0 resumed from ledger)", v, chunks-1)
	}
	c.mu.Lock()
	resumed := c.jobs[id].scan.resumed
	c.mu.Unlock()
	if resumed != 1 {
		t.Fatalf("resumed = %d, want 1", resumed)
	}
	if _, err := checkpoint.LoadFile(ledger); err != nil {
		t.Fatalf("ledger state after completion: %v", err)
	} else if s, _ := checkpoint.LoadFile(ledger); s != nil {
		t.Fatal("ledger not removed after successful merge")
	}
}

// TestFleetSubmitValidation pins the rejection paths: chunked configs,
// non-host engines, and empty fleets never reach dispatch.
func TestFleetSubmitValidation(t *testing.T) {
	body := fleetBody(t, 16, 12, 4)
	c, _ := newFleet(t, 1)

	cfg := scanConfig(t)
	cfg.ChunkStart, cfg.ChunkTiles = 0, 2
	if _, _, err := c.Submit(body, cfg); err == nil {
		t.Fatal("chunked submission accepted")
	}

	cfg = scanConfig(t)
	cfg.Engine = core.Phi
	if _, _, err := c.Submit(body, cfg); err == nil {
		t.Fatal("phi-engine submission accepted")
	}

	empty := New(nil)
	if _, _, err := empty.Submit(body, scanConfig(t)); err == nil {
		t.Fatal("empty fleet accepted a submission")
	}
}

// TestFleetWorkerChunkEquivalence is the chunk-semantics unit check
// underlying the whole design: the union of chunked single-process
// scans equals the unchunked scan.
func TestFleetWorkerChunkEquivalence(t *testing.T) {
	body := fleetBody(t, 24, 16, 4)
	cfg := scanConfig(t)
	cfg.DPI = false
	want := reference(t, body, cfg)

	merged := grn.New(24)
	for _, ch := range PlanChunks(24, cfg.TileSize, 5) {
		cc := cfg
		cc.ChunkStart, cc.ChunkTiles = ch.TileStart, ch.TileCount
		part := reference(t, body, cc)
		if part.Threshold != want.Threshold {
			t.Fatalf("chunk %d threshold %v != %v", ch.Index, part.Threshold, want.Threshold)
		}
		for _, e := range part.Network.Edges() {
			merged.AddEdge(e.I, e.J, e.Weight)
		}
	}
	ge, we := merged.Edges(), want.Network.Edges()
	if len(ge) != len(we) {
		t.Fatalf("merged %d edges, want %d", len(ge), len(we))
	}
	for i := range ge {
		if ge[i] != we[i] {
			t.Fatalf("edge %d: %+v != %+v", i, ge[i], we[i])
		}
	}
}

func TestFleetShutdown(t *testing.T) {
	body := fleetBody(t, 24, 16, 4)
	c, _ := newFleet(t, 2)
	id, _, err := c.Submit(body, scanConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The scan either finished before the drain or was canceled by it;
	// Wait must return either way, immediately.
	wctx, wcancel := context.WithTimeout(context.Background(), time.Second)
	defer wcancel()
	res, err := c.Wait(wctx, id)
	if err == nil && res == nil {
		t.Fatal("nil result without error")
	}
	if _, _, err := c.Submit(body, scanConfig(t)); err != errDraining {
		t.Fatalf("post-shutdown submit error = %v, want errDraining", err)
	}
}

var _ = fmt.Sprintf // keep fmt linked for debug edits
