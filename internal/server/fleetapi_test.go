package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestEvictedJobGone is the regression test for the SSE-reconnect
// eviction race: a client that reconnects to a TTL-evicted job must
// get 410 Gone carrying the scan's content key — resubmission bait —
// never a blank 404.
func TestEvictedJobGone(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	s := New()
	s.TTL = time.Minute
	s.now = clk.now
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := startJob(t, ts, tsvBody(t, 25, 60), "permutations=5&seed=1")
	waitFor(t, ts, id, StateDone)
	s.mu.Lock()
	wantKey := s.jobs[id].key
	s.mu.Unlock()
	if wantKey == "" {
		t.Fatal("job has no content key")
	}

	clk.advance(2 * time.Minute)
	for _, path := range []string{"", "/events", "/result", "/network"} {
		resp, err := http.Get(ts.URL + "/jobs/" + id + path)
		if err != nil {
			t.Fatal(err)
		}
		var gone struct {
			Error string `json:"error"`
			Key   string `json:"key"`
		}
		err = json.NewDecoder(resp.Body).Decode(&gone)
		resp.Body.Close()
		if resp.StatusCode != http.StatusGone {
			t.Fatalf("GET /jobs/{id}%s after eviction = %d, want 410", path, resp.StatusCode)
		}
		if err != nil {
			t.Fatalf("410 payload on %s: %v", path, err)
		}
		if gone.Key != wantKey {
			t.Fatalf("410 key on %s = %q, want %q", path, gone.Key, wantKey)
		}
	}

	// Unknown ids are still 404, not 410.
	resp, err := http.Get(ts.URL + "/jobs/never-existed")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id = %d, want 404", resp.StatusCode)
	}
}

// TestEventsStream reads a job's SSE stream end to end: progress
// events, then exactly one terminal "done" event and EOF.
func TestEventsStream(t *testing.T) {
	s := New()
	s.EventPoll = 5 * time.Millisecond
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := startJob(t, ts, tsvBody(t, 25, 60), "permutations=5&seed=1")
	stream, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var names []string
	var last statusResponse
	sc := bufio.NewScanner(stream.Body)
	var name string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			names = append(names, name)
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
				t.Fatalf("bad payload: %v", err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no events")
	}
	if got := names[len(names)-1]; got != "done" {
		t.Fatalf("last event = %q, want done", got)
	}
	for _, n := range names[:len(names)-1] {
		if n != "progress" {
			t.Fatalf("non-terminal event named %q", n)
		}
	}
	if last.State != StateDone || last.Edges == 0 {
		t.Fatalf("terminal payload incomplete: %+v", last)
	}
}

// TestResultEndpoint checks the full-precision JSON result: sorted
// [i,j,weight] triples consistent with the TSV network and the status
// counters.
func TestResultEndpoint(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()

	id := startJob(t, ts, tsvBody(t, 25, 60), "permutations=5&seed=1&dpi=1")

	// Before completion the endpoint refuses with 409.
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusOK {
		t.Fatalf("early result status = %d", resp.StatusCode)
	}

	st := waitFor(t, ts, id, StateDone)
	resp, err = http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", resp.StatusCode)
	}
	var res ResultResponse
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.ID != id || res.Key == "" {
		t.Fatalf("result identity: %+v", res)
	}
	if len(res.Edges) != st.Edges {
		t.Fatalf("result has %d edges, status reports %d", len(res.Edges), st.Edges)
	}
	if res.Threshold != st.Threshold {
		t.Fatalf("result threshold %v != status %v", res.Threshold, st.Threshold)
	}
	for i, e := range res.Edges {
		if e[0] >= e[1] || e[2] <= 0 {
			t.Fatalf("edge %d malformed: %v", i, e)
		}
		if i > 0 && (e[0] < res.Edges[i-1][0] ||
			(e[0] == res.Edges[i-1][0] && e[1] <= res.Edges[i-1][1])) {
			t.Fatalf("edges not sorted at %d: %v after %v", i, e, res.Edges[i-1])
		}
	}
}

// TestConfigParamsRoundTrip pins the wire-format inverse the fleet
// coordinator depends on: re-parsing ConfigParams(cfg) must land on a
// config with the identical content address.
func TestConfigParamsRoundTrip(t *testing.T) {
	base := url.Values{}
	cases := []url.Values{
		base,
		{"permutations": {"30"}, "dpi": {"1"}},
		{"permutations": {"8"}, "tile": {"4"}, "seed": {"11"}, "dpi": {"1"}, "dpitolerance": {"0"}},
		{"precision": {"float32"}, "prescreen": {"1"}, "alpha": {"1e-4"}},
		{"order": {"5"}, "bins": {"14"}, "nullpairs": {"5000"}, "cmi": {"1"}, "cmiratio": {"0.7"}},
		{"tilestart": {"3"}, "tilecount": {"5"}, "tile": {"8"}},
		{"kernel": {"scalar"}, "seed": {"99"}},
	}
	body := []byte("g1\t1\t2\t3\ng2\t4\t5\t6\n")
	for i, q := range cases {
		cfg, err := ParseConfigValues(q)
		if err != nil {
			t.Fatalf("case %d: parse: %v", i, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("case %d: validate: %v", i, err)
		}
		cfg2, err := ParseConfigValues(ConfigParams(cfg))
		if err != nil {
			t.Fatalf("case %d: reparse: %v", i, err)
		}
		if err := cfg2.Validate(); err != nil {
			t.Fatalf("case %d: revalidate: %v", i, err)
		}
		if a, b := JobKey(body, cfg), JobKey(body, cfg2); a != b {
			t.Fatalf("case %d: round-trip changed the content address:\n  %+v\n  %+v", i, cfg, cfg2)
		}
	}
}

// TestJobKeyStable pins JobKey byte for byte against keys computed
// while scans still had prescreen, kernel and precision options, whose
// slots in the key now hash their defaults: checkpoint files and cached
// fleet results keyed before their removal still match. An old
// client's ?prescreen=1, ?kernel=vec or ?precision=float32 is ignored
// and keyed like its absence.
func TestJobKeyStable(t *testing.T) {
	body := []byte("g1\t1\t2\t3\ng2\t4\t5\t6\n")
	for _, c := range []struct {
		q   url.Values
		key string
	}{
		{url.Values{}, "73cd0d6dbefad515"},
		{url.Values{"precision": {"float32"}, "alpha": {"1e-4"}, "dpi": {"1"}, "seed": {"11"}}, "068af08a910ffbb6"},
		{url.Values{"engine": {"ooc"}, "kernel": {"scalar"}, "cmi": {"1"}, "cmiratio": {"0.7"}, "permutations": {"8"}}, "68b81914b400d644"},
		{url.Values{"tilestart": {"3"}, "tilecount": {"5"}, "tile": {"8"}, "seed": {"99"}}, "6863ebb711b70d84"},
		{url.Values{"bootstraps": {"4"}, "subsample": {"0.75"}, "eseed": {"3"}, "support": {"0.5"}, "engine": {"cluster"}}, "2768f4363c29eb73"},
		{url.Values{"prescreen": {"1"}}, "73cd0d6dbefad515"},
		{url.Values{"kernel": {"vec"}}, "73cd0d6dbefad515"},
		{url.Values{"precision": {"float32"}}, "73cd0d6dbefad515"},
	} {
		cfg, err := ParseConfigValues(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := JobKey(body, cfg); got != c.key {
			t.Fatalf("%s: key %s, want %s", c.q.Encode(), got, c.key)
		}
	}
}

// TestJobKeyChunkSensitivity: the chunk range is part of the content
// address — different chunks of one scan must not collide in worker
// checkpoints or caches — while the whole-scan key ignores it.
func TestJobKeyChunkSensitivity(t *testing.T) {
	body := []byte("g1\t1\t2\t3\ng2\t4\t5\t6\n")
	cfg := core.Config{Permutations: 8, TileSize: 4, Seed: 11, DPITolerance: -1}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	whole := JobKey(body, cfg)
	a := cfg
	a.ChunkStart, a.ChunkTiles = 0, 3
	b := cfg
	b.ChunkStart, b.ChunkTiles = 3, 3
	if ka, kb := JobKey(body, a), JobKey(body, b); ka == kb || ka == whole || kb == whole {
		t.Fatalf("chunk keys collide: whole=%s a=%s b=%s", whole, ka, kb)
	}
}
