package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// chaosTransport gives workers stable URLs ("http://w0", "http://w1",
// ...) that survive kill/restart cycles: requests are rewritten to the
// current live httptest server for that slot, fail with a synthetic
// connection error while the slot is down, and optionally carry a
// seeded injected delay — the mpi.FaultPlan idiom applied to HTTP.
type chaosTransport struct {
	mu      sync.Mutex
	targets map[string]*httptest.Server
	rng     *rand.Rand // guarded by mu; seeded, so a soak replays
	maxWait time.Duration
}

func newChaosTransport(seed int64, maxWait time.Duration) *chaosTransport {
	return &chaosTransport{
		targets: make(map[string]*httptest.Server),
		rng:     rand.New(rand.NewSource(seed)),
		maxWait: maxWait,
	}
}

func (ct *chaosTransport) set(slot string, ts *httptest.Server) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.targets[slot] = ts
}

func (ct *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ct.mu.Lock()
	target := ct.targets[req.URL.Host]
	var delay time.Duration
	if ct.maxWait > 0 {
		delay = time.Duration(ct.rng.Int63n(int64(ct.maxWait)))
	}
	ct.mu.Unlock()
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if target == nil {
		return nil, fmt.Errorf("chaos: worker %s is down", req.URL.Host)
	}
	clone := req.Clone(req.Context())
	clone.URL.Scheme = "http"
	clone.URL.Host = target.Listener.Addr().String()
	return http.DefaultTransport.RoundTrip(clone)
}

// TestFleetChaosSoak hammers a coordinator with repeated scans while a
// seeded schedule kills and restarts workers and injects transport
// delays. Every submission must converge to the exact fingerprint-keyed
// reference result. Gated on FLEET_SOAK_DURATION (e.g. "20m" in the
// nightly workflow, "5s" for a local smoke run); FLEET_SOAK_SEED
// replays a schedule.
func TestFleetChaosSoak(t *testing.T) {
	durStr := os.Getenv("FLEET_SOAK_DURATION")
	if durStr == "" {
		t.Skip("set FLEET_SOAK_DURATION to run the chaos soak")
	}
	dur, err := time.ParseDuration(durStr)
	if err != nil {
		t.Fatalf("FLEET_SOAK_DURATION: %v", err)
	}
	seed := int64(1)
	if s := os.Getenv("FLEET_SOAK_SEED"); s != "" {
		if seed, err = strconv.ParseInt(s, 10, 64); err != nil {
			t.Fatalf("FLEET_SOAK_SEED: %v", err)
		}
	}
	t.Logf("soak: duration=%v seed=%d", dur, seed)

	const workers = 3
	ct := newChaosTransport(seed, 2*time.Millisecond)
	starter := func() *httptest.Server { return newWorker(t) }
	for i := 0; i < workers; i++ {
		ct.set(fmt.Sprintf("w%d", i), starter())
	}
	urls := make([]string, workers)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://w%d", i)
	}

	c := New(urls)
	c.Client = &http.Client{Transport: ct, Timeout: 30 * time.Second}
	c.PollInterval = 10 * time.Millisecond
	c.RetryBackoff = 25 * time.Millisecond
	c.MaxChunkRetries = 10000 // chaos must never exhaust a chunk
	c.ChunkTimeout = 60 * time.Second
	c.ChunksPerScan = 8
	c.CacheTTL = 3 * time.Second // let the cache both hit and expire mid-soak
	c.CheckpointDir = t.TempDir()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	}()

	// Reference results for the soak's scan mix, keyed by content
	// address — "every job completes with the correct fingerprint-keyed
	// result" is checked against these.
	type variant struct {
		body []byte
		cfg  core.Config
		want *core.Result
	}
	variants := make([]variant, 0, 3)
	for i, mut := range []func(*core.Config){
		func(cfg *core.Config) {},
		func(cfg *core.Config) { cfg.Seed = 77 },
		func(cfg *core.Config) { cfg.CMIFilter = true },
	} {
		body := fleetBody(t, 24, 16, uint64(4+i))
		cfg := scanConfig(t)
		mut(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		variants = append(variants, variant{body, cfg, fleetReference(t, body, cfg)})
	}
	wantKeys := make(map[int]string, len(variants))
	for i, v := range variants {
		wantKeys[i] = server.JobKey(v.body, v.cfg)
	}

	// Seeded kill/restart schedule, independent of the transport rng.
	schedule := rand.New(rand.NewSource(seed ^ 0x5851f42d4c957f2d))
	stopChaos := make(chan struct{})
	var chaosWG sync.WaitGroup
	var kills, restarts int64
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		down := make(map[int]bool)
		for {
			select {
			case <-stopChaos:
				// Leave every slot alive so in-flight scans can finish.
				for i := range down {
					ct.set(fmt.Sprintf("w%d", i), starter())
				}
				return
			case <-time.After(time.Duration(200+schedule.Intn(800)) * time.Millisecond):
			}
			i := schedule.Intn(workers)
			slot := fmt.Sprintf("w%d", i)
			if down[i] {
				ct.set(slot, starter())
				delete(down, i)
				restarts++
			} else if len(down) < workers-1 { // always keep one worker alive
				ct.mu.Lock()
				old := ct.targets[slot]
				ct.mu.Unlock()
				ct.set(slot, nil)
				if old != nil {
					old.CloseClientConnections()
					old.Close()
				}
				down[i] = true
				kills++
			}
		}
	}()

	deadline := time.Now().Add(dur)
	jobs := 0
	for time.Now().Before(deadline) {
		v := variants[jobs%len(variants)]
		id, _, err := c.Submit(v.body, v.cfg)
		if err != nil {
			t.Fatalf("job %d: submit: %v", jobs, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		got, err := c.Wait(ctx, id)
		cancel()
		if err != nil {
			t.Fatalf("job %d: %v", jobs, err)
		}
		if key := wantKeys[jobs%len(variants)]; c.jobKeyOf(id) != key {
			t.Fatalf("job %d keyed %s, want %s", jobs, c.jobKeyOf(id), key)
		}
		assertBitIdentical(t, got, v.want)
		jobs++
		// Throttle: cache hits return instantly; without a pause the
		// soak would spin millions of no-op lookups instead of spending
		// its budget on cold scans and kill windows.
		time.Sleep(10 * time.Millisecond)
	}
	close(stopChaos)
	chaosWG.Wait()

	t.Logf("soak: %d jobs correct; %d kills, %d restarts; dispatched=%v retried=%v reassigned=%v cache hits=%v misses=%v",
		jobs, kills, restarts,
		c.mDispatched.Value(), c.mRetried.Value(), c.mReassigned.Value(),
		c.mCacheHits.Value(), c.mCacheMisses.Value())
	if jobs == 0 {
		t.Fatal("soak completed zero jobs")
	}
	if dur >= time.Minute && kills == 0 {
		t.Fatal("soak ran a minute without a single worker kill")
	}
}

// jobKeyOf returns a job's scan content key (test helper).
func (c *Coordinator) jobKeyOf(id string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if j := c.jobs[id]; j != nil {
		return j.scan.key
	}
	return ""
}
