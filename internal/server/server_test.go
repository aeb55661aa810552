package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/expr"
)

func tsvBody(t *testing.T, n, m int) *bytes.Buffer {
	t.Helper()
	d := expr.MustGenerate(expr.GenConfig{
		Genes: n, Experiments: m, AvgRegulators: 1, Noise: 0.05, Seed: 4,
	})
	var buf bytes.Buffer
	if err := d.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func startJob(t *testing.T, ts *httptest.Server, body io.Reader, params string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs?"+params, "text/tab-separated-values", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["id"] == "" {
		t.Fatal("no job id")
	}
	return out["id"]
}

func getStatus(t *testing.T, ts *httptest.Server, id string) statusResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status code = %d", resp.StatusCode)
	}
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitFor(t *testing.T, ts *httptest.Server, id string, want JobState) statusResponse {
	t.Helper()
	// Generous: the permutation-heavy lifecycle jobs run ~10x slower
	// under -race.
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State == StateFailed {
			t.Fatalf("job failed: %s", st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return statusResponse{}
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

func TestSubmitRunFetch(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	id := startJob(t, ts, tsvBody(t, 25, 60), "permutations=5&seed=1&workers=2&dpi=1")
	st := waitFor(t, ts, id, StateDone)
	if st.Edges == 0 || st.Threshold <= 0 {
		t.Fatalf("done status = %+v", st)
	}
	if st.Progress != 1 {
		t.Fatalf("progress = %v", st.Progress)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + id + "/network")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("network status = %d", resp.StatusCode)
	}
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != st.Edges {
		t.Fatalf("network TSV has %d lines, status says %d edges", lines, st.Edges)
	}
	// Gene names substituted.
	if !strings.HasPrefix(buf.String(), "G") {
		t.Fatalf("network should use gene names: %q", buf.String()[:20])
	}
}

func TestNetworkBeforeDoneConflicts(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	// Big enough to still be running when we poll.
	id := startJob(t, ts, tsvBody(t, 80, 200), "permutations=30&seed=1&workers=1")
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/network")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("early network fetch = %d, want 409", resp.StatusCode)
	}
	waitFor(t, ts, id, StateDone)
}

func TestCancelJob(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	id := startJob(t, ts, tsvBody(t, 100, 300), "permutations=50&seed=1&workers=1")
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("cancel = %d", resp.StatusCode)
	}
	waitFor(t, ts, id, StateCanceled)
}

func TestUnknownJob404(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d", resp.StatusCode)
	}
}

func TestBadSubmissions(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	// Well-formed values that fail Validate are refused at submit too,
	// with a matrix the job could otherwise run on.
	valid := tsvBody(t, 6, 8).String()
	cases := []struct {
		params string
		body   string
	}{
		{"", "not a tsv"},
		{"permutations=abc", "gene\tE0\nG0\t1\n"},
		{"alpha=zzz", "gene\tE0\nG0\t1\n"},
		{"engine=quantum", "gene\tE0\nG0\t1\n"},
		{"seed=-1", "gene\tE0\nG0\t1\n"},
		{"alpha=2", valid},
		{"alpha=NaN", valid},
		{"bins=2&order=3", valid},
		{"nullpairs=-1", valid},
		{"dpitolerance=NaN", valid},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/jobs?"+c.params, "text/plain", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("params %q: status %d, want 400", c.params, resp.StatusCode)
		}
	}
}

func TestBodyLimit(t *testing.T) {
	s := New()
	s.MaxBodyBytes = 64
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/jobs", "text/plain", tsvBody(t, 20, 50))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize body = %d, want 400", resp.StatusCode)
	}
}

func TestJobsSerializeAndBothFinish(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	a := startJob(t, ts, tsvBody(t, 30, 60), "permutations=5&seed=1")
	b := startJob(t, ts, tsvBody(t, 30, 60), "permutations=5&seed=2")
	waitFor(t, ts, a, StateDone)
	waitFor(t, ts, b, StateDone)
}

// cancelJob issues DELETE /jobs/{id} and asserts 204.
func cancelJob(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("cancel = %d", resp.StatusCode)
	}
}

// fakeClock is an injectable lifecycle clock for eviction tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestCancelWhileQueued(t *testing.T) {
	s := New()
	s.MaxRunning = 1
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	running := startJob(t, ts, tsvBody(t, 100, 300), "permutations=50&seed=1&workers=1")
	queued := startJob(t, ts, tsvBody(t, 30, 60), "permutations=5&seed=2")
	if st := getStatus(t, ts, queued); st.State != StateQueued {
		t.Fatalf("second job state = %s, want queued", st.State)
	}
	cancelJob(t, ts, queued)
	waitFor(t, ts, queued, StateCanceled)
	// The running job is unaffected by the queued cancellation.
	if st := getStatus(t, ts, running); st.State != StateRunning {
		t.Fatalf("first job state = %s, want running", st.State)
	}
	cancelJob(t, ts, running)
	waitFor(t, ts, running, StateCanceled)
}

func TestBackpressure429(t *testing.T) {
	s := New()
	s.MaxRunning = 1
	s.MaxQueued = 1
	s.RetryAfter = 3 * time.Second
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a := startJob(t, ts, tsvBody(t, 100, 300), "permutations=50&seed=1&workers=1")
	b := startJob(t, ts, tsvBody(t, 100, 300), "permutations=50&seed=2&workers=1")

	// Third submission exceeds MaxRunning+MaxQueued and is shed.
	resp, err := http.Post(ts.URL+"/jobs", "text/tab-separated-values", tsvBody(t, 30, 60))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}

	// Capacity frees once jobs reach a terminal state.
	cancelJob(t, ts, a)
	cancelJob(t, ts, b)
	waitFor(t, ts, a, StateCanceled)
	waitFor(t, ts, b, StateCanceled)
	c := startJob(t, ts, tsvBody(t, 25, 60), "permutations=5&seed=3")
	waitFor(t, ts, c, StateDone)
}

func TestTTLEvictionAndRetentionCap(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	s := New()
	s.TTL = time.Minute
	s.now = clk.now
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := startJob(t, ts, tsvBody(t, 25, 60), "permutations=5&seed=1")
	waitFor(t, ts, id, StateDone)

	// Within TTL the job stays queryable.
	clk.advance(30 * time.Second)
	if st := getStatus(t, ts, id); st.State != StateDone {
		t.Fatalf("state = %s", st.State)
	}
	// Past TTL it is evicted on the next registry access: 410 Gone with
	// the content key (not 404 — the job existed; see TestEvictedJobGone).
	clk.advance(31 * time.Second)
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted job status = %d, want 410", resp.StatusCode)
	}

	// Retention cap: with MaxJobs=2, finishing a third job evicts the
	// oldest terminal one even inside TTL.
	s.MaxJobs = 2
	var ids []string
	for seed := 2; seed <= 4; seed++ {
		id := startJob(t, ts, tsvBody(t, 25, 60), "permutations=5&seed="+strconv.Itoa(seed))
		waitFor(t, ts, id, StateDone)
		ids = append(ids, id)
	}
	resp, err = http.Get(ts.URL + "/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("capped-out job status = %d, want 410", resp.StatusCode)
	}
	if st := getStatus(t, ts, ids[2]); st.State != StateDone {
		t.Fatalf("newest job state = %s", st.State)
	}
}

func TestJobsList(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	a := startJob(t, ts, tsvBody(t, 25, 60), "permutations=5&seed=1")
	waitFor(t, ts, a, StateDone)
	b := startJob(t, ts, tsvBody(t, 25, 60), "permutations=5&seed=2")
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != a || list[1].ID != b {
		t.Fatalf("list = %+v", list)
	}
	if list[0].State != StateDone || list[0].Created == "" || list[0].Finished == "" {
		t.Fatalf("terminal entry = %+v", list[0])
	}
	waitFor(t, ts, b, StateDone)
}

// metricValue extracts the value of the first sample line starting
// with prefix from a /metrics scrape.
func metricValue(t *testing.T, scrape, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(line, prefix) {
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no metric line with prefix %q in scrape:\n%s", prefix, scrape)
	return 0
}

func TestMetricsEndpoint(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	id := startJob(t, ts, tsvBody(t, 25, 60), "permutations=5&seed=1&workers=2")
	waitFor(t, ts, id, StateDone)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	scrape := string(raw)

	if v := metricValue(t, scrape, "tinge_jobs_submitted_total"); v != 1 {
		t.Fatalf("submitted = %v", v)
	}
	if v := metricValue(t, scrape, `tinge_jobs_finished_total{state="done"}`); v != 1 {
		t.Fatalf("finished done = %v", v)
	}
	if v := metricValue(t, scrape, `tinge_jobs{state="done"}`); v != 1 {
		t.Fatalf("jobs gauge = %v", v)
	}
	if v := metricValue(t, scrape, `tinge_jobs{state="queued"}`); v != 0 {
		t.Fatalf("queued gauge = %v", v)
	}
	if v := metricValue(t, scrape, "tinge_pairs_evaluated_total"); v <= 0 {
		t.Fatalf("pairs evaluated = %v", v)
	}
	if v := metricValue(t, scrape, `tinge_phase_seconds_total{phase="mi"}`); v <= 0 {
		t.Fatalf("mi phase seconds = %v", v)
	}
	if v := metricValue(t, scrape, "tinge_job_seconds_count"); v != 1 {
		t.Fatalf("job histogram count = %v", v)
	}
	if v := metricValue(t, scrape, "tinge_queue_capacity"); v != 9 {
		t.Fatalf("queue capacity = %v", v)
	}
	// The permuted-row cache counters are still exported and read 0:
	// the scan builds no cache.
	for _, name := range []string{"tinge_permcache_hits_total", "tinge_permcache_misses_total"} {
		if v := metricValue(t, scrape, name); v != 0 {
			t.Fatalf("%s = %v, want 0", name, v)
		}
	}
	metricValue(t, scrape, "tinge_permutations_skipped_total")
	metricValue(t, scrape, "tinge_permutations_certified_total")
	metricValue(t, scrape, "tinge_pairs_certified_total")
	// Fault-tolerance counters are pre-registered (zero on a healthy
	// run — their absence would hide a recovery from the dashboards).
	if v := metricValue(t, scrape, "tinge_rank_failures_total"); v != 0 {
		t.Fatalf("rank failures = %v on a healthy run", v)
	}
	if v := metricValue(t, scrape, "tinge_recovery_runs_total"); v != 0 {
		t.Fatalf("recovery runs = %v on a healthy run", v)
	}
	metricValue(t, scrape, "tinge_recovered_tiles_total")
	metricValue(t, scrape, "tinge_fault_delayed_messages_total")
	metricValue(t, scrape, "tinge_fault_dropped_messages_total")
	if v := metricValue(t, scrape, `tinge_http_requests_total{code="202",route="/jobs"}`); v != 1 {
		t.Fatalf("request counter = %v", v)
	}
}

func TestShutdownDrainsRunningJob(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id := startJob(t, ts, tsvBody(t, 30, 60), "permutations=5&seed=1")
	// Shutdown cancels jobs that are still queued; this test is about a
	// running one, so let the job take its run slot first.
	deadline := time.Now().Add(120 * time.Second)
	for getStatus(t, ts, id).State == StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never left the queue")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Without a checkpoint dir, the running job drains to completion.
	if st := getStatus(t, ts, id); st.State != StateDone {
		t.Fatalf("drained job state = %s, want done", st.State)
	}
	// New submissions are shed while draining.
	resp, err := http.Post(ts.URL+"/jobs", "text/tab-separated-values", tsvBody(t, 25, 60))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
}

func TestShutdownCancelsQueuedJobs(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// The first job must be slow enough to still hold the run slot
	// when Shutdown snapshots states (cancellation and draining are
	// observed at tile boundaries, so it needs several tiles of work).
	running := startJob(t, ts, tsvBody(t, 80, 200), "permutations=30&seed=1&workers=1")
	waitFor(t, ts, running, StateRunning)
	queued := startJob(t, ts, tsvBody(t, 30, 60), "permutations=5&seed=2")

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if st := getStatus(t, ts, running); st.State != StateDone {
		t.Fatalf("running job = %s, want done", st.State)
	}
	if st := getStatus(t, ts, queued); st.State != StateCanceled {
		t.Fatalf("queued job = %s, want canceled", st.State)
	}
}

// fetchNetworkLines returns the sorted TSV lines of a done job's
// network.
func fetchNetworkLines(t *testing.T, ts *httptest.Server, id string) []string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/network")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	sort.Strings(lines)
	return lines
}

func TestGracefulShutdownCheckpointResume(t *testing.T) {
	// A deliberately slow scan: single worker, small tiles, heavy
	// permutation testing.
	const params = "permutations=200&seed=3&workers=1&tile=8&nullpairs=30&ckptevery=1"
	body := tsvBody(t, 100, 200).Bytes()

	// Reference: the same job run to completion without interruption.
	ref := New()
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	refID := startJob(t, refTS, bytes.NewReader(body), params)
	refSt := waitFor(t, refTS, refID, StateDone)
	refNet := fetchNetworkLines(t, refTS, refID)

	// First server: interrupt the job mid-scan via graceful shutdown.
	dir := t.TempDir()
	s1 := New()
	s1.CheckpointDir = dir
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	id1 := startJob(t, ts1, bytes.NewReader(body), params)
	deadline := time.Now().Add(120 * time.Second)
	for {
		st := getStatus(t, ts1, id1)
		if st.State == StateRunning && st.Progress > 0 && st.Progress < 0.9 {
			break
		}
		if st.State.terminal() {
			t.Fatalf("job finished before shutdown could interrupt it (state %s); grow the workload", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never made partial progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if st := getStatus(t, ts1, id1); st.State != StateCanceled {
		t.Fatalf("interrupted job state = %s, want canceled", st.State)
	}

	// The checkpoint holds partial progress. Rotation may leave the
	// previous snapshot beside the current one, but nothing else.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ckptPath := ""
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".prev") {
			continue
		}
		if ckptPath != "" {
			t.Fatalf("checkpoint dir has more than one checkpoint: %v", entries)
		}
		ckptPath = filepath.Join(dir, e.Name())
	}
	if ckptPath == "" {
		t.Fatalf("checkpoint dir has no checkpoint: %v", entries)
	}
	state, err := checkpoint.LoadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	doneTiles := len(state.Done) - state.Remaining()
	if doneTiles == 0 || state.Remaining() == 0 {
		t.Fatalf("checkpoint not partial: %d done, %d remaining", doneTiles, state.Remaining())
	}

	// Second server (simulated restart): an identical resubmission
	// resumes from the checkpoint instead of recomputing.
	s2 := New()
	s2.CheckpointDir = dir
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	id2 := startJob(t, ts2, bytes.NewReader(body), params)
	st2 := waitFor(t, ts2, id2, StateDone)

	if st2.Threshold != refSt.Threshold {
		t.Fatalf("resumed threshold %v != reference %v", st2.Threshold, refSt.Threshold)
	}
	if st2.Evals >= refSt.Evals {
		t.Fatalf("resumed run evaluated %d pairs, reference %d — no work was skipped",
			st2.Evals, refSt.Evals)
	}
	net2 := fetchNetworkLines(t, ts2, id2)
	if len(net2) != len(refNet) {
		t.Fatalf("resumed network has %d edges, reference %d", len(net2), len(refNet))
	}
	for i := range net2 {
		if net2[i] != refNet[i] {
			t.Fatalf("edge %d differs: %q vs %q", i, net2[i], refNet[i])
		}
	}
	// A completed job deletes its checkpoint and the rotated copy.
	if _, err := os.Stat(ckptPath); !os.IsNotExist(err) {
		t.Fatalf("checkpoint not removed after completion: %v", err)
	}
	if _, err := os.Stat(checkpoint.PrevPath(ckptPath)); !os.IsNotExist(err) {
		t.Fatalf("rotated checkpoint not removed after completion: %v", err)
	}
}

// TestResumeCorruptCheckpointStartsFresh pins the corruption-tolerant
// resume contract at the HTTP layer: a resubmission whose on-disk
// checkpoint (and rotated fallback) fail verification must not fail
// the job — it recomputes from scratch, produces the reference
// network, reports the recovery in its status, and bumps the
// corruption counter.
func TestResumeCorruptCheckpointStartsFresh(t *testing.T) {
	const params = "permutations=50&seed=7&workers=2&tile=8&ckptevery=1"
	body := tsvBody(t, 60, 100).Bytes()

	// Reference run, no checkpointing.
	ref := New()
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	refID := startJob(t, refTS, bytes.NewReader(body), params)
	refSt := waitFor(t, refTS, refID, StateDone)
	refNet := fetchNetworkLines(t, refTS, refID)

	// Interrupt a checkpointed run mid-scan so a partial checkpoint
	// exists on disk.
	dir := t.TempDir()
	s1 := New()
	s1.CheckpointDir = dir
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	id1 := startJob(t, ts1, bytes.NewReader(body), params)
	deadline := time.Now().Add(120 * time.Second)
	for {
		st := getStatus(t, ts1, id1)
		if st.State == StateRunning && st.Progress > 0 && st.Progress < 0.9 {
			break
		}
		if st.State.terminal() {
			t.Fatalf("job finished before shutdown could interrupt it (state %s); grow the workload", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never made partial progress")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Corrupt every checkpoint file in the directory — current and
	// rotated alike — by flipping a payload byte.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no checkpoint written before shutdown")
	}
	for _, e := range entries {
		p := filepath.Join(dir, e.Name())
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x40
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Restart: the identical resubmission must succeed from scratch.
	s2 := New()
	s2.CheckpointDir = dir
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	id2 := startJob(t, ts2, bytes.NewReader(body), params)
	st2 := waitFor(t, ts2, id2, StateDone)

	if st2.CheckpointRecoveries == 0 {
		t.Fatal("status does not report the checkpoint recovery")
	}
	if st2.Evals != refSt.Evals {
		t.Fatalf("recovered run evaluated %d pairs, reference %d — corrupt state was not discarded",
			st2.Evals, refSt.Evals)
	}
	net2 := fetchNetworkLines(t, ts2, id2)
	if len(net2) != len(refNet) {
		t.Fatalf("recovered network has %d edges, reference %d", len(net2), len(refNet))
	}
	for i := range net2 {
		if net2[i] != refNet[i] {
			t.Fatalf("edge %d differs: %q vs %q", i, net2[i], refNet[i])
		}
	}
	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, string(scrape), "tinge_checkpoint_corrupt_total"); got < 1 {
		t.Fatalf("tinge_checkpoint_corrupt_total = %v, want >= 1", got)
	}
}

// TestParseConfigFilterParams pins the filter query-param contract:
// an explicit dpitolerance=0 must survive as strict DPI all the way
// through Validate, an absent parameter must resolve to the paper
// default, and the CMI flags must round-trip.
func TestParseConfigFilterParams(t *testing.T) {
	req := httptest.NewRequest("POST", "/jobs?dpi=1&dpitolerance=0&cmi=1&cmiratio=0.5", nil)
	cfg, err := ParseConfig(req)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DPITolerance != 0 || !cfg.CMIFilter || cfg.CMIRatio != 0.5 {
		t.Fatalf("parsed %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.DPITolerance != 0 {
		t.Fatalf("strict tolerance coerced to %v", cfg.DPITolerance)
	}

	req = httptest.NewRequest("POST", "/jobs?dpi=1", nil)
	if cfg, err = ParseConfig(req); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.DPITolerance != core.DefaultDPITolerance {
		t.Fatalf("default tolerance = %v, want %v", cfg.DPITolerance, core.DefaultDPITolerance)
	}
	if cfg.CMIFilter {
		t.Fatal("cmi on by default")
	}

	for _, bad := range []string{"dpitolerance=x", "cmiratio=y", "dpitolerance=2"} {
		req = httptest.NewRequest("POST", "/jobs?"+bad, nil)
		cfg, err = ParseConfig(req)
		if err == nil {
			err = cfg.Validate()
		}
		if err == nil {
			t.Fatalf("%s accepted", bad)
		}
	}
}
