package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"repro/internal/core"
)

// jobResult returns a finished job's in-process Result.
func jobResult(t *testing.T, s *Server, id string) *core.Result {
	t.Helper()
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		t.Fatalf("job %s has no result", id)
	}
	return j.result
}

// ranThreshold reports whether the run computed phase 3.
func ranThreshold(res *core.Result) bool {
	for _, ph := range res.Timer.Phases() {
		if ph == "threshold" {
			return true
		}
	}
	return false
}

// runJob submits one job and waits for it to finish.
func runJob(t *testing.T, s *Server, ts *httptest.Server, body []byte, q url.Values) *core.Result {
	t.Helper()
	id := startJob(t, ts, bytes.NewReader(body), q.Encode())
	waitFor(t, ts, id, StateDone)
	return jobResult(t, s, id)
}

// TestSiblingChunksReuseThreshold pins the worker half of the fleet's
// once-per-worker threshold: a chunk job that takes its run slot after
// a sibling chunk of the same scan finished borrows the sibling's
// pooled null — same threshold and null size, no threshold phase, and
// tinge_thresholds_reused_total +1 — and still emits exactly the
// network it computes on its own. A job differing only in a field that
// defines the threshold computes its own.
func TestSiblingChunksReuseThreshold(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	reused := func() float64 {
		return s.Metrics.Counter("tinge_thresholds_reused_total", "", nil).Value()
	}
	body := tsvBody(t, 24, 40).Bytes()
	chunk := func(start int, kv ...string) url.Values {
		q := url.Values{"permutations": {"6"}, "seed": {"3"}, "tile": {"4"},
			"tilestart": {strconv.Itoa(start)}, "tilecount": {"5"}}
		for i := 0; i < len(kv); i += 2 {
			q.Set(kv[i], kv[i+1])
		}
		return q
	}

	first := runJob(t, s, ts, body, chunk(0))
	if !ranThreshold(first) || reused() != 0 {
		t.Fatalf("first chunk: threshold phase %v, reused %v", ranThreshold(first), reused())
	}
	second := runJob(t, s, ts, body, chunk(5))
	if ranThreshold(second) {
		t.Fatal("second chunk recomputed the threshold its finished sibling already had")
	}
	if reused() != 1 {
		t.Fatalf("tinge_thresholds_reused_total = %v, want 1", reused())
	}
	if second.Threshold != first.Threshold || second.NullSize != first.NullSize {
		t.Fatalf("borrowed threshold %v/%d != sibling's %v/%d",
			second.Threshold, second.NullSize, first.Threshold, first.NullSize)
	}
	// The borrowed threshold changes nothing: the same chunk computed
	// from scratch on a fresh server is identical.
	alone := New()
	tsAlone := httptest.NewServer(alone.Handler())
	defer tsAlone.Close()
	want := runJob(t, alone, tsAlone, body, chunk(5))
	if !ranThreshold(want) || want.Threshold != second.Threshold {
		t.Fatalf("fresh chunk threshold %v (phase %v) != borrowed %v", want.Threshold, ranThreshold(want), second.Threshold)
	}
	ge, we := second.Network.Edges(), want.Network.Edges()
	if len(ge) != len(we) {
		t.Fatalf("borrowed-threshold chunk has %d edges, fresh %d", len(ge), len(we))
	}
	for i := range ge {
		if ge[i] != we[i] {
			t.Fatalf("edge %d: %+v != fresh %+v", i, ge[i], we[i])
		}
	}

	for _, kv := range [][]string{
		{"seed", "4"}, {"precision", "float32"}, {"alpha", "0.02"},
		{"permutations", "7"}, {"nullpairs", "120"},
	} {
		res := runJob(t, s, ts, body, chunk(10, kv...))
		if !ranThreshold(res) {
			t.Fatalf("%s=%s borrowed a threshold from a different scan", kv[0], kv[1])
		}
	}
	// Ensemble jobs have one threshold per bootstrap: they neither lend
	// nor borrow.
	ens := url.Values{"permutations": {"6"}, "seed": {"3"}, "bootstraps": {"2"}}
	runJob(t, s, ts, body, ens)
	if res := runJob(t, s, ts, body, ens); !ranThreshold(res) {
		t.Fatal("an ensemble job borrowed a threshold")
	}
	if reused() != 1 {
		t.Fatalf("tinge_thresholds_reused_total = %v after unrelated jobs, want 1", reused())
	}
}

// TestSubmitKeysValidatedConfig: the worker keys the validated config,
// so omitting a default and spelling it out address the same scan (the
// same checkpoint file, and the same threshold to reuse).
func TestSubmitKeysValidatedConfig(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	body := tsvBody(t, 12, 30).Bytes()
	key := func(params string) string {
		id := startJob(t, ts, bytes.NewReader(body), params)
		waitFor(t, ts, id, StateDone)
		resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var res ResultResponse
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return res.Key
	}
	if a, b := key("permutations=4&seed=2"), key("permutations=4&seed=2&nullpairs=500&alpha=0.01&order=3"); a != b {
		t.Fatalf("omitted defaults keyed %s, spelled-out defaults %s", a, b)
	}
}

// FuzzJobKey pins the content address the worker's checkpoints, the
// coordinator's cache, and threshold reuse all trust:
//
//   - query values → ParseConfigValues → Validate → ConfigParams →
//     parsed and validated again gives the same JobKey and scan key;
//   - the chunk range never changes the scan key;
//   - changing the matrix or any field that defines the pooled null
//     always changes the scan key — a collision would hand a worker
//     another scan's threshold.
func FuzzJobKey(f *testing.F) {
	body := []byte("g1\t1\t2\t3\ng2\t4\t5\t6\n")
	f.Add(body, 0, 0, 0, 0, 0.0, uint64(0), uint8(0), uint8(0), 0, 0, 0, uint8(0), -1.0, 0.0, 0, 0.0, 0.0, uint64(0))
	f.Add(body, 3, 10, 30, 500, 0.01, uint64(1), uint8(0), uint8(0), 0, 0, 32, uint8(1), 0.1, 0.3, 0, 0.0, 0.0, uint64(0))
	f.Add(body, 4, 12, 8, 50, 1e-4, uint64(99), uint8(2), uint8(1), 3, 5, 8, uint8(7), 0.0, 0.7, 0, 0.0, 0.0, uint64(0))
	f.Add(body, 2, 6, 5, 20, 0.5, uint64(7), uint8(1), uint8(0), 0, 0, 4, uint8(2), 0.2, 0.0, 3, 0.8, 0.5, uint64(5))
	f.Fuzz(func(t *testing.T, body []byte, order, bins, perms, nullpairs int, alpha float64, seed uint64,
		kernel, prec uint8, tileStart, tileCount, tileSize int, flags uint8, dpiTol, cmiRatio float64,
		bootstraps int, subsample, support float64, eseed uint64) {
		q := url.Values{}
		setInt := func(name string, v int) {
			if v != 0 {
				q.Set(name, strconv.Itoa(v))
			}
		}
		setFloat := func(name string, v float64) {
			if v != 0 {
				q.Set(name, strconv.FormatFloat(v, 'g', -1, 64))
			}
		}
		setInt("order", order)
		setInt("bins", bins)
		setInt("permutations", perms)
		setInt("nullpairs", nullpairs)
		setInt("tilestart", tileStart)
		setInt("tilecount", tileCount)
		setInt("tile", tileSize)
		setInt("bootstraps", bootstraps)
		setFloat("alpha", alpha)
		setFloat("dpitolerance", dpiTol)
		setFloat("cmiratio", cmiRatio)
		setFloat("subsample", subsample)
		setFloat("support", support)
		if seed != 0 {
			q.Set("seed", strconv.FormatUint(seed, 10))
		}
		if eseed != 0 {
			q.Set("eseed", strconv.FormatUint(eseed, 10))
		}
		// kernel and prescreen name retired options: a server ignores
		// both, and they stay here so the seed corpus still decodes.
		q.Set("kernel", []string{"bucketed", "vec", "scalar"}[kernel%3])
		q.Set("precision", []string{"float64", "float32"}[prec%2])
		q.Set("engine", []string{"host", "phi", "cluster", "hybrid", "ooc"}[int(flags>>4)%5])
		for bit, name := range []string{"dpi", "cmi", "prescreen"} {
			if flags&(1<<bit) != 0 {
				q.Set(name, "1")
			}
		}

		cfg, err := ParseConfigValues(q)
		if err != nil {
			t.Fatalf("parse of well-formed values %v: %v", q, err)
		}
		if cfg.Validate() != nil {
			return // the server answers 400; nothing is keyed
		}
		again, err := ParseConfigValues(ConfigParams(cfg))
		if err != nil {
			t.Fatalf("reparse of ConfigParams(%+v): %v", cfg, err)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("ConfigParams(%+v) no longer validates: %v", cfg, err)
		}
		if a, b := JobKey(body, cfg), JobKey(body, again); a != b {
			t.Fatalf("round trip changed the key:\n  %+v\n  %+v", cfg, again)
		}
		base := scanKey(body, cfg)
		if scanKey(body, again) != base {
			t.Fatalf("round trip changed the scan key:\n  %+v\n  %+v", cfg, again)
		}
		chunked := cfg
		chunked.ChunkStart, chunked.ChunkTiles = cfg.ChunkStart+1, cfg.ChunkTiles+1
		if scanKey(body, chunked) != base {
			t.Fatal("the chunk range changed the scan key")
		}
		if scanKey(append(append([]byte(nil), body...), '\n'), cfg) == base {
			t.Fatal("a different matrix kept the scan key")
		}
		for name, mutate := range map[string]func(*core.Config){
			"order":        func(c *core.Config) { c.Order++ },
			"bins":         func(c *core.Config) { c.Bins++ },
			"permutations": func(c *core.Config) { c.Permutations++ },
			"nullpairs":    func(c *core.Config) { c.NullSamplePairs++ },
			"alpha": func(c *core.Config) {
				toward := 0.5
				if c.Alpha == toward {
					toward = 0
				}
				c.Alpha = math.Nextafter(c.Alpha, toward)
			},
			"seed":      func(c *core.Config) { c.Seed++ },
			"precision": func(c *core.Config) { c.Precision ^= 1 },
		} {
			m := cfg
			mutate(&m)
			if m.Validate() != nil {
				continue
			}
			if scanKey(body, m) == base {
				t.Fatalf("changing %s kept the scan key: %+v vs %+v", name, cfg, m)
			}
		}
	})
}
