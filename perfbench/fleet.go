package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/tinge"
)

// Served-fleet traffic: a closed loop of fleetClients clients, each
// sending its next job only after it has read the previous network.
const (
	fleetClients       = 2
	fleetWorkers       = 2
	fleetSamples       = 128 // experiments per job
	fleetMinGenes      = 75
	fleetMaxGenes      = 130
	blockJobs          = 20 // submissions are dealt in blocks of this many, one an ensemble
	repeatsPerBlock    = 4  // one in five repeats an earlier submission exactly
	ensembleBootstraps = 3
	verifyOneIn        = 4 // distinct submissions checked against an in-process reference
	// fleetMinJobs extends a window shorter than the time 100 jobs take,
	// so that ten latency samples lie beyond the p90.
	fleetMinJobs = 100
	jobTimeout   = 60 * time.Second
	// fleetSetupProbes fleets are started and stopped before the measured
	// one, for set-up samples.
	fleetSetupProbes = 6
)

// jobSpec is one distinct submission: a generated body and its config.
type jobSpec struct {
	id       int
	genes    int
	genSeed  uint64 // the compendium, the same for every --seed
	permSeed uint64
	nameSeed uint64 // gene names and scale factors, drawn from --seed
	ensemble bool
	verify   bool // in the seeded subset checked against tinge.Infer

	once sync.Once
	data *tinge.Dataset
	body []byte
	err  error
}

// prepare generates the body the first time the spec is sent.
func (s *jobSpec) prepare() error {
	s.once.Do(func() {
		s.data, s.err = tinge.Generate(tinge.GenConfig{Genes: s.genes, Experiments: fleetSamples, Seed: s.genSeed})
		if s.err == nil {
			relabel(s.data, s.nameSeed)
			var b bytes.Buffer
			s.err = s.data.WriteTSV(&b)
			s.body = b.Bytes()
		}
	})
	return s.err
}

func (s *jobSpec) query() string {
	q := url.Values{}
	q.Set("permutations", strconv.Itoa(permutations))
	q.Set("dpi", "1")
	q.Set("dpitolerance", strconv.FormatFloat(dpiTolerance, 'g', -1, 64))
	q.Set("seed", strconv.FormatUint(s.permSeed, 10))
	if s.ensemble {
		q.Set("bootstraps", strconv.Itoa(ensembleBootstraps))
		q.Set("eseed", strconv.FormatUint(s.permSeed, 10))
	}
	return q.Encode()
}

// config is the in-process equivalent of query().
func (s *jobSpec) config() tinge.Config {
	cfg := tinge.Config{Permutations: permutations, DPI: true, DPITolerance: dpiTolerance, Seed: s.permSeed, Workers: batchWorkers}
	if s.ensemble {
		cfg.Ensemble = tinge.EnsembleConfig{Bootstraps: ensembleBootstraps, Seed: s.permSeed}
	}
	return cfg
}

// jobSequence deals submissions in blocks of blockJobs. The new
// submissions of a block are the same work for every seed: one per
// gene-count stratum of [fleetMinGenes, fleetMaxGenes], each a fixed
// compendium with a fixed permutation seed, and one of them an ensemble.
// The seed draws their order, the positions of the block's
// repeatsPerBlock exact repeats and the earlier submissions they repeat,
// each body's gene names and scale factors (relabel), and the subset
// checked against an in-process reference. Fresh compendia per seed
// would add their own spread in work and F1 to every metric. The k-th
// submission of a run is the same for every run with the same seed,
// whichever client sends it.
type jobSequence struct {
	mu    sync.Mutex
	rng   *rand.Rand
	block int
	specs []*jobSpec // distinct specs, in order of first use
	queue []*jobSpec // the rest of the current block; nil marks a repeat
}

func newJobSequence(seed uint64) *jobSequence {
	return &jobSequence{rng: rand.New(rand.NewPCG(seed, 0x666c656574))}
}

func (q *jobSequence) refill() {
	fresh := blockJobs - repeatsPerBlock
	span := fleetMaxGenes - fleetMinGenes + 1
	q.queue = make([]*jobSpec, blockJobs)
	for k := range fresh {
		slot := uint64(q.block*fresh + k)
		q.queue[k] = &jobSpec{
			genes:    fleetMinGenes + (2*k+1)*span/(2*fresh),
			genSeed:  1 + slot,
			permSeed: 1 + slot,
			nameSeed: q.rng.Uint64(),
			ensemble: k == q.block%fresh,
			verify:   q.rng.IntN(verifyOneIn) == 0,
		}
	}
	q.rng.Shuffle(blockJobs, func(i, j int) { q.queue[i], q.queue[j] = q.queue[j], q.queue[i] })
	if q.block == 0 {
		// Nothing to repeat yet: open with a new submission.
		i := slices.IndexFunc(q.queue, func(s *jobSpec) bool { return s != nil })
		q.queue[0], q.queue[i] = q.queue[i], q.queue[0]
	}
	q.block++
}

func (q *jobSequence) next() *jobSpec {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.queue) == 0 {
		q.refill()
	}
	s := q.queue[0]
	q.queue = q.queue[1:]
	if s == nil {
		return q.specs[q.rng.IntN(len(q.specs))]
	}
	s.id = len(q.specs)
	q.specs = append(q.specs, s)
	return s
}

// jobRecord is one job as its client saw it.
type jobRecord struct {
	spec                       *jobSpec
	client                     int
	start                      time.Time
	submit, wait, fetch, total time.Duration
	network                    []byte
	err                        error
}

// runJob submits s, waits for the terminal event on the job's SSE
// stream and reads the whole network.
func runJob(ctx context.Context, hc *http.Client, base string, s *jobSpec) *jobRecord {
	rec := &jobRecord{spec: s, start: time.Now()}
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	var sub struct {
		ID string `json:"id"`
	}
	body, err := httpDo(ctx, hc, http.MethodPost, base+"/jobs?"+s.query(), s.body, http.StatusAccepted)
	if err == nil {
		err = json.Unmarshal(body, &sub)
	}
	t1 := time.Now()
	rec.submit = t1.Sub(rec.start)
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	if rec.err = awaitDone(ctx, hc, base+"/jobs/"+sub.ID+"/events"); rec.err != nil {
		return rec
	}
	t2 := time.Now()
	rec.wait = t2.Sub(t1)
	rec.network, err = httpDo(ctx, hc, http.MethodGet, base+"/jobs/"+sub.ID+"/network", nil, http.StatusOK)
	t3 := time.Now()
	rec.fetch, rec.total = t3.Sub(t2), t3.Sub(rec.start)
	if err != nil {
		rec.err = fmt.Errorf("network: %w", err)
	}
	return rec
}

// httpDo performs one request and returns the body when the status is
// want (a refusal such as 429 or 503 is an error).
func httpDo(ctx context.Context, hc *http.Client, method, u string, body []byte, want int) ([]byte, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, r)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %s: %s", method, u, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// awaitDone reads a job's SSE stream until its terminal event, which
// must be "done".
func awaitDone(ctx context.Context, hc *http.Client, u string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		name, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok || name == "progress" {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		if name != "done" {
			return fmt.Errorf("job ended %s", name)
		}
		return nil
	}
	return fmt.Errorf("events: stream ended without a terminal event: %v", sc.Err())
}

// fleet is a running coordinator with its workers.
type fleet struct {
	cmds  []*exec.Cmd
	urls  []string      // the coordinator's, then the workers'
	setup time.Duration // spawn until every process answers /healthz
}

// startFleet spawns fleetWorkers worker tinged processes (GOMAXPROCS=1
// each) and a coordinator fronting them, on loopback.
func startFleet(ctx context.Context, tinged string) (*fleet, error) {
	ports, err := freePorts(1 + fleetWorkers)
	if err != nil {
		return nil, err
	}
	f := &fleet{}
	for _, p := range ports {
		f.urls = append(f.urls, fmt.Sprintf("http://127.0.0.1:%d", p))
	}
	start := time.Now()
	for _, p := range ports[1:] {
		// A registry cap above one run's chunk jobs keeps every one of
		// them listed by the worker's GET /jobs at the last scrape.
		err = f.spawn(ctx, tinged, []string{"GOMAXPROCS=1"}, "-addr", fmt.Sprintf("127.0.0.1:%d", p), "-max-jobs", "100000")
		if err != nil {
			f.stop()
			return nil, err
		}
	}
	err = f.spawn(ctx, tinged, nil, "-coordinator", "-addr", fmt.Sprintf("127.0.0.1:%d", ports[0]), "-workers", strings.Join(f.urls[1:], ","))
	if err != nil {
		f.stop()
		return nil, err
	}
	hc := &http.Client{Timeout: time.Second}
	deadline := start.Add(30 * time.Second)
	for _, u := range f.urls {
		for {
			if _, err := httpDo(ctx, hc, http.MethodGet, u+"/healthz", nil, http.StatusOK); err == nil {
				break
			}
			if time.Now().After(deadline) || ctx.Err() != nil {
				f.stop()
				return nil, fmt.Errorf("%s never answered /healthz", u)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	f.setup = time.Since(start)
	hc.CloseIdleConnections()
	return f, nil
}

func (f *fleet) spawn(ctx context.Context, bin string, env []string, args ...string) error {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start tinged: %w", err)
	}
	f.cmds = append(f.cmds, cmd)
	return nil
}

// stop terminates every process, waits for each, and returns the sum of
// their peak RSS.
func (f *fleet) stop() (rssMiB float64) {
	for _, c := range f.cmds {
		c.Process.Signal(syscall.SIGTERM)
	}
	for _, c := range f.cmds {
		done := make(chan struct{})
		go func() {
			c.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			c.Process.Kill()
			<-done
		}
		if ru, ok := c.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rssMiB += float64(ru.Maxrss) / 1024
		}
	}
	return rssMiB
}

// freePorts reserves n distinct loopback ports and releases them for the
// servers to bind.
func freePorts(n int) ([]int, error) {
	var ports []int
	for range n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// fleetWindow is one timed window of closed-loop traffic.
type fleetWindow struct {
	jobs    []*jobRecord
	seconds float64
}

// drive runs the closed loop for seconds, and on until minJobs jobs have
// completed; jobs already sent then still complete and count.
func drive(ctx context.Context, base string, seq *jobSequence, seconds float64, minJobs int) (*fleetWindow, error) {
	w := &fleetWindow{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errc := make(chan error, fleetClients)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	more := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return (time.Now().Before(deadline) || len(w.jobs) < minJobs) && ctx.Err() == nil
	}
	for c := range fleetClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One connection per client: sequential requests reuse it.
			hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer hc.CloseIdleConnections()
			for more() {
				s := seq.next()
				if err := s.prepare(); err != nil {
					errc <- err
					return
				}
				rec := runJob(ctx, hc, base, s)
				rec.client = c
				mu.Lock()
				w.jobs = append(w.jobs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.seconds = time.Since(start).Seconds()
	close(errc)
	if err := <-errc; err != nil {
		return nil, err
	}
	return w, ctx.Err()
}

// fleetRun is the state of one served-fleet run.
type fleetRun struct {
	env  *runEnv
	o    *outcome
	refs map[*jobSpec][]byte // in-process reference networks
}

func runFleet(ctx context.Context, env *runEnv) (*outcome, error) {
	r := &fleetRun{env: env, o: newOutcome(), refs: map[*jobSpec][]byte{}}
	var setups []float64
	for range fleetSetupProbes {
		f, err := startFleet(ctx, env.tinged)
		if err != nil {
			return nil, err
		}
		setups = append(setups, f.setup.Seconds())
		f.stop()
	}
	f, err := startFleet(ctx, env.tinged)
	if err != nil {
		return nil, err
	}
	setups = append(setups, f.setup.Seconds())
	// A traced run's untraced window is only the baseline of the tracing
	// overhead; it needs no p90.
	minJobs := fleetMinJobs
	if env.trace {
		minJobs = 0
	}
	w, err := drive(ctx, f.urls[0], newJobSequence(env.seed), env.seconds, minJobs)
	rss := f.stop()
	if err != nil {
		return nil, err
	}
	verified, f1s, err := r.verify(w)
	if err != nil {
		return nil, err
	}
	lat := w.latencies()
	fmt.Fprintf(os.Stderr, "perfbench: window %.1f s, %d jobs; job time p10 %.3f p25 %.3f p50 %.3f p75 %.3f p90 %.3f s\n",
		w.seconds, len(lat), quantile(lat, 0.1), quantile(lat, 0.25), median(lat), quantile(lat, 0.75), quantile(lat, 0.9))
	e := r.o.e2e
	e["wall_s"] = mean(lat)
	e["setup_s"] = median(setups)
	e["peak_rss_mb"] = rss
	e["f1"] = mean(f1s)
	e["job_p50_s"] = median(lat)
	e["job_p90_s"] = quantile(lat, 0.9)
	e["jobs_per_s"] = float64(verified) / w.seconds
	if env.trace {
		if err := r.traced(ctx, median(lat)); err != nil {
			return nil, err
		}
	}
	return r.o, nil
}

func (w *fleetWindow) latencies() []float64 {
	var lat []float64
	for _, j := range w.jobs {
		if j.err == nil {
			lat = append(lat, j.total.Seconds())
		}
	}
	return lat
}

// verify checks every job of the window and returns how many passed and
// their networks' F1 against the generator's truth. A job passes when it
// completed, its network parses as WriteTSV output over the job's genes,
// and it equals byte for byte its reference: for the seeded subset of
// submissions that fits the run, the in-process tinge.Infer network for
// the same body and config, computed after the window; for the rest, the
// first network served for the same submission in the window.
func (r *fleetRun) verify(w *fleetWindow) (verified int, f1s []float64, err error) {
	first := map[*jobSpec][]byte{}
	for k, j := range w.jobs {
		r.o.attempted++
		if j.err != nil {
			r.o.fail("job %d (spec %d): %v", k, j.spec.id, j.err)
			continue
		}
		var ref []byte
		if j.spec.verify {
			if ref, err = r.reference(j.spec); err != nil {
				return 0, nil, err
			}
		} else if ref = first[j.spec]; ref == nil {
			first[j.spec], ref = j.network, j.network
		}
		if !checkServed(r.o, j, ref) {
			continue
		}
		score, _ := f1(j.network, j.spec.data)
		f1s = append(f1s, score)
		verified++
	}
	if verified == 0 {
		return 0, nil, fmt.Errorf("no served job passed its checks")
	}
	return verified, f1s, nil
}

// reference is the in-process network for s, computed once per run.
func (r *fleetRun) reference(s *jobSpec) ([]byte, error) {
	if ref, ok := r.refs[s]; ok {
		return ref, nil
	}
	res, err := tinge.Infer(s.data.Expr, s.config())
	if err != nil {
		return nil, fmt.Errorf("reference for spec %d: %w", s.id, err)
	}
	var b bytes.Buffer
	if err := res.Network.WriteTSV(&b, s.data.Genes); err != nil {
		return nil, err
	}
	r.refs[s] = b.Bytes()
	return r.refs[s], nil
}

// checkServed reports whether a completed job's network is well formed
// and equals the reference, counting a failure otherwise.
func checkServed(o *outcome, j *jobRecord, ref []byte) bool {
	if _, err := parseNetwork(j.network, j.spec.data.Genes); err != nil {
		o.fail("spec %d: served network: %v", j.spec.id, err)
		return false
	}
	if !bytes.Equal(j.network, ref) {
		o.fail("spec %d: served network differs from its reference", j.spec.id)
		return false
	}
	return true
}

// traced runs a second window on a fresh fleet with per-job spans,
// scraping the servers just before and just after it.
func (r *fleetRun) traced(ctx context.Context, untracedP50 float64) error {
	f, err := startFleet(ctx, r.env.tinged)
	if err != nil {
		return err
	}
	before, err := scrapeFleet(ctx, f)
	if err != nil {
		f.stop()
		return err
	}
	w, err := drive(ctx, f.urls[0], newJobSequence(r.env.seed), r.env.seconds, fleetMinJobs)
	var after *fleetScrape
	if err == nil {
		after, err = scrapeFleet(ctx, f)
	}
	f.stop()
	if err != nil {
		return err
	}
	if _, _, err := r.verify(w); err != nil {
		return err
	}

	rec := tinge.NewTraceRecorder()
	var submit, wait, fetch []float64
	var inJobs float64
	for _, j := range w.jobs {
		if j.err != nil {
			continue
		}
		tid := j.client + 1
		t1 := j.start.Add(j.submit)
		t2 := t1.Add(j.wait)
		rec.Record(tid, fmt.Sprintf("job spec %d", j.spec.id), j.start, j.total)
		rec.Record(tid, "POST /jobs", j.start, j.submit)
		rec.Record(tid, "SSE wait", t1, j.wait)
		rec.Record(tid, "GET network", t2, j.fetch)
		submit = append(submit, j.submit.Seconds())
		wait = append(wait, j.wait.Seconds())
		fetch = append(fetch, j.fetch.Seconds())
		inJobs += j.total.Seconds()
	}
	l := r.o.layer
	l["fleet.submit_s"] = median(submit)
	l["fleet.wait_s"] = median(wait)
	l["fleet.fetch_s"] = median(fetch)
	// A job's submit, wait and fetch spans tile it, so what no layer
	// accounts for is the clients' time between jobs.
	l["bench.unattributed_frac"] = 1 - inJobs/(fleetClients*w.seconds)
	l["bench.trace_overhead_frac"] = (median(w.latencies()) - untracedP50) / untracedP50

	coord, workers := after.coord.minus(before.coord), after.workers.minus(before.workers)
	scans := coord.sum("tinge_fleet_scans_started_total", "")
	jobSecs := workers.sum("tinge_job_seconds_sum", "")
	chunks := workers.sum("tinge_job_seconds_count", "")
	phase := func(p string) float64 { return workers.sum("tinge_phase_seconds_total", `phase="`+p+`"`) }
	l["fleet.chunks_per_job"] = ratio(coord.sum("tinge_fleet_chunks_dispatched_total", ""), scans)
	l["fleet.cache_hit_ratio"] = ratio(coord.sum("tinge_cache_hits_total", ""), float64(len(w.jobs)))
	l["fleet.chunks_retried"] = coord.sum("tinge_fleet_chunks_retried_total", "")
	l["server.chunk_s"] = ratio(jobSecs, chunks)
	l["server.threshold_s_per_job"] = ratio(phase("threshold"), scans)
	l["server.prep_s_per_job"] = ratio(phase("normalize")+phase("precompute"), scans)
	l["server.scan_s_per_job"] = ratio(phase("mi"), scans)
	l["server.threshold_share"] = ratio(phase("threshold"), jobSecs)
	l["server.busy_frac"] = ratio(jobSecs, fleetWorkers*w.seconds)
	l["server.queue_s"] = ratio(after.residence(before)-jobSecs, chunks)
	return writeResults(r.env, r.o, rec)
}

// promText is a parsed Prometheus text exposition: series → value.
type promText map[string]float64

// sum adds every series of the metric name whose labels contain match.
func (p promText) sum(name, match string) float64 {
	s := 0.0
	for series, v := range p {
		n, labels, _ := strings.Cut(series, "{")
		if n == name && strings.Contains(labels, match) {
			s += v
		}
	}
	return s
}

// minus is p − q series by series.
func (p promText) minus(q promText) promText {
	out := promText{}
	for series, v := range p {
		out[series] = v - q[series]
	}
	return out
}

func parseProm(b []byte) promText {
	p := promText{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); i > 0 && err == nil {
			p[line[:i]] = v
		}
	}
	return p
}

// workerJob is the slice of a worker's GET /jobs entry the scrape reads.
type workerJob struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Created  string `json:"created"`
	Finished string `json:"finished"`
}

// fleetScrape is one snapshot of the coordinator's and the workers'
// /metrics and of the workers' GET /jobs.
type fleetScrape struct {
	coord   promText
	workers promText             // summed over the workers
	jobs    map[string]workerJob // by worker URL + job id
}

func scrapeFleet(ctx context.Context, f *fleet) (*fleetScrape, error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	s := &fleetScrape{workers: promText{}, jobs: map[string]workerJob{}}
	for i, u := range f.urls {
		b, err := httpDo(ctx, hc, http.MethodGet, u+"/metrics", nil, http.StatusOK)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			s.coord = parseProm(b)
			continue
		}
		for series, v := range parseProm(b) {
			s.workers[series] += v
		}
		b, err = httpDo(ctx, hc, http.MethodGet, u+"/jobs", nil, http.StatusOK)
		if err != nil {
			return nil, err
		}
		var js []workerJob
		if err := json.Unmarshal(b, &js); err != nil {
			return nil, err
		}
		for _, j := range js {
			s.jobs[u+" "+j.ID] = j
		}
	}
	return s, nil
}

// residence sums finished − created over the worker jobs that finished
// after the before snapshot.
func (s *fleetScrape) residence(before *fleetScrape) float64 {
	t := 0.0
	for k, j := range s.jobs {
		if old, ok := before.jobs[k]; ok && old.Finished != "" || j.Finished == "" {
			continue
		}
		c, err1 := time.Parse(time.RFC3339Nano, j.Created)
		f, err2 := time.Parse(time.RFC3339Nano, j.Finished)
		if err1 == nil && err2 == nil {
			t += f.Sub(c).Seconds()
		}
	}
	return t
}
