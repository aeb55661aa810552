// Command perfbench is the repository benchmark. It runs one workload of
// the TINGe pipeline, from a generated input to a verified network, and
// prints the workload's metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through run.sh, which builds this
// package and cmd/tinged from source first:
//
//	bash perfbench/run.sh --workload dense-resident --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run that
// measures for --seconds. With --trace 1 it makes an untraced baseline
// and one traced run, and reports the per-layer metrics; the Chrome trace
// and the full result are written under <work>/results. README.md records
// the workloads and defines every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// metricDef is one reported metric: its name and unit. BENCHMARK.json
// lists the same names (checked by TestCatalogMatchesBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user sees, reported by --trace 0 runs. Every
// workload reports every one; README.md defines them per workload.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"f1", "ratio"},
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},
	{"jobs_per_s", "1/s"},
}

// perLayer are the single-layer metrics a --trace 1 run reports. A layer
// the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"expr.parse_s", "s"},
	{"expr.ingest_s", "s"},
	{"mat.normalize_s", "s"},
	{"bspline.precompute_s", "s"},
	{"core.threshold_s", "s"},
	{"perm.null_size", "count"},
	{"core.scan_s", "s"},
	{"core.imbalance", "ratio"},
	{"core.ooc_overhead_s", "s"},
	{"core.peak_tile_mb", "MiB"},
	{"mi.pair_evals", "count"},
	{"mi.perm_evals", "count"},
	{"mi.perm_share", "ratio"},
	{"mi.survivor_frac", "ratio"},
	{"mi.perm_skipped", "count"},
	{"mi.permcache_hit_ratio", "ratio"},
	{"mi.pair_ns", "ns"},
	{"mi.perm_ns", "ns"},
	{"grn.raw_edges", "count"},
	{"grn.edges", "count"},
	{"grn.dpi_s", "s"},
	{"grn.write_s", "s"},
	{"panelstore.loads", "count"},
	{"panelstore.hits", "count"},
	{"panelstore.evictions", "count"},
	{"panelstore.mb_loaded", "MiB"},
	{"panelstore.mb_spilled", "MiB"},
	{"panelstore.peak_mb", "MiB"},
	{"checkpoint.kb", "KiB"},
	{"checkpoint.saves", "count"},
	{"checkpoint.save_s", "s"},
	{"fleet.submit_s", "s"},
	{"fleet.wait_s", "s"},
	{"fleet.fetch_s", "s"},
	{"fleet.chunks_per_job", "ratio"},
	{"fleet.cache_hit_ratio", "ratio"},
	{"fleet.chunks_retried", "count"},
	{"server.chunk_s", "s"},
	{"server.threshold_s_per_job", "s"},
	{"server.prep_s_per_job", "s"},
	{"server.scan_s_per_job", "s"},
	{"server.threshold_share", "ratio"},
	{"server.busy_frac", "ratio"},
	{"server.queue_s", "s"},
	{"bench.unattributed_frac", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
}

// buildDir holds, relative to the repository root, everything run.sh
// and the benchmark write: build cache, binaries, inputs and results.
const buildDir = ".bench_build"

// runEnv is what every workload runner receives.
type runEnv struct {
	seed    uint64
	seconds float64
	trace   bool
	tinged  string // tinged binary built by run.sh (served-fleet)
	dir     string // this run's scratch directory, removed at exit
	results string // where traced runs write their trace and result
	name    string // workload name
}

// outcome is a workload run's result: operations attempted and failed
// (an inference or a served job), end-to-end metrics, and — for traced
// runs — per-layer metrics.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail counts one failed operation and says why on standard error.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

// errorRate is failed ÷ attempted operations.
func (o *outcome) errorRate() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.failed) / float64(o.attempted)
}

var workloads = map[string]func(context.Context, *runEnv) (*outcome, error){
	"dense-resident": denseResident.run,
	"served-fleet":   runFleet,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: dense-resident or served-fleet")
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 40, "how long one run measures")
		traceArg = flag.Int("trace", 0, "1: also make a traced run and report per-layer metrics")
		pipeline = flag.Bool("pipeline", false, "run the pipeline spec on standard input and print its result; used by the benchmark's own child processes")
	)
	flag.Parse()
	if *pipeline {
		os.Exit(pipelineMain())
	}
	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q (have dense-resident, served-fleet)", *workload)
	}
	if *seconds <= 0 || (*traceArg != 0 && *traceArg != 1) {
		fatalf("need --seconds > 0 and --trace 0 or 1")
	}
	build, err := filepath.Abs(buildDir)
	if err != nil {
		fatalf("%v", err)
	}
	env := &runEnv{
		seed: *seed, seconds: *seconds, trace: *traceArg == 1,
		tinged:  filepath.Join(build, "bin", "tinged"),
		dir:     filepath.Join(build, "work", fmt.Sprintf("%s-seed%d", *workload, *seed)),
		results: filepath.Join(build, "results"),
		name:    *workload,
	}
	if err := os.RemoveAll(env.dir); err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(env.dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	out, err := run(ctx, env)
	stop()
	os.RemoveAll(env.dir)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	if err := report(os.Stdout, out, env.trace); err != nil {
		fatalf("%v", err)
	}
}

// report prints one line per metric, then the result object as the last
// line. error_rate is printed with the metrics; the result object carries
// it as failed ÷ attempted.
func report(w *os.File, o *outcome, traced bool) error {
	defs, values := endToEnd, o.e2e
	if traced {
		defs, values = perLayer, o.layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !traced {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = metric{v, d.unit}
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(w, "%-28s %14.6g ratio (%d of %d operations failed)\n", "error_rate", o.errorRate(), o.failed, o.attempted)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
