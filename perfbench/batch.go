package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/tinge"
)

// Pipeline settings shared by the workloads.
const (
	batchWorkers = 2   // workers per batch inference: the machine's CPUs
	permutations = 30  // q
	dpiTolerance = 0.1 // the paper's DPI near-tie tolerance
	tileSize     = 32  // Config's default tile, also the ooc panel height
	setupProbes  = 5   // set-up probes per batch run, before its inferences
	// minInferences a timed run makes even when they outlast --seconds,
	// so that its median rejects one disturbed inference.
	minInferences = 3
	ckptEvery     = 32 // the out-of-core reference checkpoints every 32 tiles
	runSeed       = 1  // Config.Seed of every inference: permutations and null sample
	inputFile     = "input.tsv"
)

// batchWorkload is one inference workload: a generated expression TSV
// in, an edge TSV out, on the resident host engine at float64.
type batchWorkload struct {
	gen tinge.GenConfig // the compendium; --seed names and scales its genes
}

// denseResident is T2's largest row on the resident host engine:
// permutation MI is about 90% of MI evaluations, and DPI prunes most raw
// edges.
var denseResident = batchWorkload{
	gen: tinge.GenConfig{Genes: 1000, Experiments: 337, Seed: 1},
}

// batchRun is the state of one run of a batch workload.
type batchRun struct {
	w     batchWorkload
	env   *runEnv
	o     *outcome
	data  *tinge.Dataset
	first []byte // the run's first network, which every later one must equal
}

func (w batchWorkload) spec(env *runEnv, out string) pipelineSpec {
	return pipelineSpec{
		Engine: "resident",
		In:     filepath.Join(env.dir, inputFile), Out: out,
		Genes: w.gen.Genes, Samples: w.gen.Experiments,
		Workers: batchWorkers, Permutations: permutations, DPITolerance: dpiTolerance,
		Seed: runSeed,
	}
}

// oocSpec is the same inference on the out-of-core engine: the input
// streamed into a panel store spilled under the run's directory, the
// memory budget at its minimum, a checkpoint every ckptEvery tiles.
func (w batchWorkload) oocSpec(env *runEnv, out string) pipelineSpec {
	s := w.spec(env, out)
	s.Engine, s.SpillDir = "ooc", env.dir
	s.Checkpoint, s.CheckpointEvery = filepath.Join(env.dir, "run.ckpt"), ckptEvery
	return s
}

// input is this run's expression data: the workload's fixed compendium
// relabelled from seed. Fresh compendia per seed move the dense-resident
// wall time between 17 and 31 s: more than any bound could absorb.
func (w batchWorkload) input(seed uint64) (*tinge.Dataset, error) {
	d, err := tinge.Generate(w.gen)
	if err != nil {
		return nil, err
	}
	relabel(d, seed)
	return d, nil
}

// relabel gives d gene names and per-gene scale factors drawn from seed.
// The factors are powers of two, exact in float32, so every gene keeps
// its ranks and the rank-based pipeline does the same work and finds the
// same network under the new names, while no two seeds share an input.
func relabel(d *tinge.Dataset, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0x696e707574))
	prefix := fmt.Sprintf("g%04x", rng.IntN(1<<16))
	for g := range d.Genes {
		d.Genes[g] = fmt.Sprintf("%s_%04d", prefix, g)
		scale := float32(math.Ldexp(1, rng.IntN(9)-4))
		row := d.Expr.Row(g)
		for s := range row {
			row[s] *= scale
		}
	}
}

func (w batchWorkload) run(ctx context.Context, env *runEnv) (*outcome, error) {
	data, err := w.input(env.seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := data.WriteTSV(&buf); err != nil {
		return nil, err
	}
	b := &batchRun{w: w, env: env, o: newOutcome(), data: data}
	if err := os.WriteFile(filepath.Join(env.dir, inputFile), buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if !env.trace {
		_, err := b.timed(ctx, env.seconds, minInferences)
		return b.o, err
	}
	// The traced run's baseline is one untraced inference.
	walls, err := b.timed(ctx, 0, 1)
	if err != nil {
		return nil, err
	}
	return b.o, b.traced(ctx, median(walls))
}

// infer runs one full inference into out and checks its network against
// the run's first. It returns nil when the inference failed.
func (b *batchRun) infer(ctx context.Context, s pipelineSpec, label string) (*pipelineResult, []byte) {
	b.o.attempted++
	if s.Checkpoint != "" {
		// A finished checkpoint would turn the next run into a resume.
		os.Remove(s.Checkpoint)
		os.Remove(s.Checkpoint + ".prev")
	}
	r, err := runChild(ctx, s)
	if err != nil {
		b.o.fail("%s: %v", label, err)
		return nil, nil
	}
	net, err := os.ReadFile(s.Out)
	if err != nil {
		b.o.fail("%s: %v", label, err)
		return nil, nil
	}
	if !b.accept(label, net) {
		return nil, nil
	}
	return r, net
}

// accept checks a written network against the run's first one, which
// every inference of the run must reproduce byte for byte, and counts a
// failure when it differs.
func (b *batchRun) accept(label string, net []byte) bool {
	if b.first == nil {
		b.first = net
	}
	if !bytes.Equal(net, b.first) {
		b.o.fail("%s: edge TSV differs from the run's first network", label)
		return false
	}
	return true
}

// timed starts inferences until seconds have passed since the first
// began and least of them have succeeded, and sets the end-to-end
// metrics. Set-up probes run first; they also warm the CPUs, the page
// cache and the binary before the first timed inference. It returns the
// inferences' wall times.
func (b *batchRun) timed(ctx context.Context, seconds float64, least int) ([]float64, error) {
	var walls, setups, rss []float64
	probe := b.w.spec(b.env, "")
	probe.SetupOnly = true
	for range setupProbes {
		b.o.attempted++
		r, err := runChild(ctx, probe)
		if err != nil {
			b.o.fail("set-up probe: %v", err)
			continue
		}
		setups = append(setups, r.SetupS)
	}
	start := time.Now()
	for k := 0; ; k++ {
		out := filepath.Join(b.env.dir, fmt.Sprintf("edges-%d.tsv", k))
		if r, _ := b.infer(ctx, b.w.spec(b.env, out), fmt.Sprintf("inference %d", k)); r != nil {
			fmt.Fprintf(os.Stderr, "perfbench: inference %d: wall %.3f s, cpu %.3f s, set-up %.3f s, phases %v\n", k, r.WallS, r.CPUS, r.SetupS, r.Phases)
			walls = append(walls, r.WallS)
			setups = append(setups, r.SetupS)
			rss = append(rss, r.MaxRSSMiB)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if k > 0 {
			os.Remove(out)
		}
		if len(walls) == 0 || len(walls) >= least && time.Since(start).Seconds() >= seconds {
			break
		}
	}
	window := time.Since(start).Seconds()
	if len(walls) == 0 {
		return nil, fmt.Errorf("no inference succeeded")
	}
	score, err := f1(b.first, b.data)
	if err != nil {
		b.o.fail("network: %v", err)
	}
	e := b.o.e2e
	e["wall_s"] = median(walls)
	e["setup_s"] = median(setups)
	e["peak_rss_mb"] = median(rss)
	e["f1"] = score
	// One inference is one job of a batch workload.
	e["job_p50_s"] = median(walls)
	e["job_p90_s"] = quantile(walls, 0.9)
	e["jobs_per_s"] = float64(len(walls)) / window
	return walls, nil
}

// traced makes one more inference with its spans recorded, the checks
// and per-layer measurements that need one, and writes the Chrome trace
// and the result next to each other.
func (b *batchRun) traced(ctx context.Context, untracedWall float64) error {
	rec := tinge.NewTraceRecorder()
	out := filepath.Join(b.env.dir, "edges-traced.tsv")
	spec := b.w.spec(b.env, out)
	r, net := b.infer(ctx, spec, "traced inference")
	if r == nil {
		return fmt.Errorf("traced inference failed")
	}
	record(rec, 1, r.Spans)
	l := b.o.layer
	for k, v := range r.Counters {
		l[k] = v
	}
	for k, v := range layerSeconds(r.Spans) {
		l[k] = v
	}
	pairs := float64(tinge.TotalPairs(b.w.gen.Genes))
	l["mi.perm_share"] = ratio(l["mi.perm_evals"], l["mi.pair_evals"]+l["mi.perm_evals"])
	l["mi.survivor_frac"] = l["grn.raw_edges"] / pairs
	l["mi.permcache_hit_ratio"] = ratio(l["mi.permcache_hits"], l["mi.permcache_hits"]+l["mi.permcache_misses"])
	delete(l, "mi.permcache_hits")
	delete(l, "mi.permcache_misses")
	l["bench.unattributed_frac"] = unattributedFrac(r.Spans)
	l["bench.trace_overhead_frac"] = (r.WallS - untracedWall) / untracedWall

	// The out-of-core engine on the same input: infer checks that its
	// network equals the resident one byte for byte, and it exercises the
	// panel store and the checkpoint writer the resident engine bypasses.
	ooc := b.w.oocSpec(b.env, filepath.Join(b.env.dir, "edges-ooc.tsv"))
	if o, _ := b.infer(ctx, ooc, "out-of-core inference"); o != nil {
		record(rec, 2, o.Spans)
		for k, v := range o.Counters {
			if strings.HasPrefix(k, "panelstore.") {
				l[k] = v
			}
		}
		l["expr.ingest_s"] = layerSeconds(o.Spans)["expr.ingest_s"]
		l["core.ooc_overhead_s"] = o.Phases["mi"] - r.Phases["mi"]
		st, err := os.Stat(ooc.Checkpoint)
		if err != nil {
			return err
		}
		l["checkpoint.kb"] = float64(st.Size()) / 1024
		// Saved every ckptEvery completed tiles, plus once at the end of
		// the scan; computed, not observed.
		l["checkpoint.saves"] = float64(len(tinge.DecomposePairs(b.w.gen.Genes, tileSize))/ckptEvery + 1)
		if l["checkpoint.save_s"], err = checkpointSaveSeconds(ooc.Checkpoint, filepath.Join(b.env.dir, "probe.ckpt")); err != nil {
			return err
		}
	}

	parsed, err := parseNetwork(net, b.data.Genes)
	if err != nil {
		return err
	}
	b.o.attempted++
	start := time.Now()
	pairNs, permNs, err := kernelTimings(b.data.Expr, parsed.Edges(), runSeed, b.env.seed, batchWorkers)
	if err != nil {
		b.o.fail("kernel timings: %v", err)
	}
	rec.Record(3, "mi kernel micro-timings", start, time.Since(start))
	l["mi.pair_ns"], l["mi.perm_ns"] = pairNs, permNs
	return writeResults(b.env, b.o, rec)
}

// writeResults writes the traced run's Chrome trace and its metrics next
// to each other under env.results.
func writeResults(env *runEnv, o *outcome, rec *tinge.TraceRecorder) error {
	if err := os.MkdirAll(env.results, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(env.results, fmt.Sprintf("%s-seed%d", env.name, env.seed))
	f, err := os.Create(stem + ".trace.json")
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{
		"workload": env.name, "seed": env.seed, "seconds": env.seconds,
		"attempted": o.attempted, "failed": o.failed,
		"end_to_end": o.e2e, "per_layer": o.layer,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(stem+".json", b, 0o644)
}
