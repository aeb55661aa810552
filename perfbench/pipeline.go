package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"

	"repro/tinge"
)

// pipelineSpec is one inference run in a child process of the benchmark,
// so that the child's peak RSS is the pipeline's alone, without the
// input generator.
type pipelineSpec struct {
	Engine          string  `json:"engine"` // "resident" or "ooc", at float64
	In              string  `json:"in"`
	Out             string  `json:"out"`
	SpillDir        string  `json:"spillDir"`
	Checkpoint      string  `json:"checkpoint"`
	CheckpointEvery int     `json:"checkpointEvery"`
	Genes           int     `json:"genes"` // the input's shape, which sizes the ooc memory budget
	Samples         int     `json:"samples"`
	Workers         int     `json:"workers"`
	Permutations    int     `json:"permutations"`
	DPITolerance    float64 `json:"dpiTolerance"`
	Seed            uint64  `json:"seed"`
	// SetupOnly stops once the first pair could be scored on the
	// resident engine and writes no network: a set-up probe.
	SetupOnly bool `json:"setupOnly"`
}

// pipelineResult is what the child reports back.
type pipelineResult struct {
	// WallS runs from opening the input TSV until the edge TSV is
	// written and closed.
	WallS float64 `json:"wallS"`
	// SetupS is the time until the first pair can be scored on the
	// resident engine: parse, normalize and precompute.
	SetupS   float64            `json:"setupS"`
	Phases   map[string]float64 `json:"phases"`
	Counters map[string]float64 `json:"counters"`
	Spans    []span             `json:"spans"`
	// MaxRSSMiB is the child's peak RSS and CPUS its user + system CPU
	// time, filled in by the parent.
	MaxRSSMiB float64 `json:"-"`
	CPUS      float64 `json:"-"`
}

func (s pipelineSpec) config() (tinge.Config, error) {
	cfg := tinge.Config{
		Permutations:    s.Permutations,
		DPI:             true,
		DPITolerance:    s.DPITolerance,
		Workers:         s.Workers,
		TileSize:        tileSize,
		Seed:            s.Seed,
		CheckpointPath:  s.Checkpoint,
		CheckpointEvery: s.CheckpointEvery,
	}
	switch s.Engine {
	case "resident":
		cfg.Engine = tinge.Host
	case "ooc":
		cfg.Engine = tinge.OutOfCore
		cfg.PanelRows = tileSize
		cfg.SpillDir = s.SpillDir
	default:
		return cfg, fmt.Errorf("unknown engine %q", s.Engine)
	}
	return cfg, nil
}

// runPipeline is one inference: TSV file in, edge TSV out, with a span
// around every public call it makes.
func runPipeline(s pipelineSpec) (*pipelineResult, error) {
	cfg, err := s.config()
	if err != nil {
		return nil, err
	}
	var l spanLog
	root := l.begin("inference "+s.Engine, "", -1)
	f, err := os.Open(s.In)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res := &pipelineResult{}
	var r *tinge.Result
	var names []string
	switch cfg.Engine {
	case tinge.OutOfCore:
		i := l.begin("tinge.MinMemoryBudget", "", root)
		budget, err := tinge.MinMemoryBudget(s.Genes, s.Samples, cfg)
		l.end(i)
		if err != nil {
			return nil, err
		}
		cfg.MemoryBudget = budget
		i = l.begin("tinge.IngestExpressionTSV", "expr.ingest_s", root)
		store, genes, err := tinge.IngestExpressionTSV(f, s.SpillDir, cfg.PanelRows, budget)
		l.end(i)
		if err != nil {
			return nil, err
		}
		defer store.Close()
		names = genes
		i = l.begin("tinge.InferStore", "", root)
		r, err = tinge.InferStore(store, cfg)
		l.end(i)
		if err != nil {
			return nil, err
		}
		l.layoutPhases(i, r.Timer)
	default:
		i := l.begin("tinge.ReadExpressionTSV", "expr.parse_s", root)
		data, err := tinge.ReadExpressionTSV(f)
		parse := l.end(i)
		if err != nil {
			return nil, err
		}
		names = data.Genes
		if s.SetupOnly {
			// A one-tile chunk without the filter repeats the set-up
			// phases exactly and skips the scan, which is most of a run.
			cfg.ChunkTiles, cfg.DPI = 1, false
		}
		i = l.begin("tinge.Infer", "", root)
		r, err = tinge.Infer(data.Expr, cfg)
		l.end(i)
		if err != nil {
			return nil, err
		}
		l.layoutPhases(i, r.Timer)
		res.SetupS = (parse + r.Timer.Get("normalize") + r.Timer.Get("precompute")).Seconds()
		if s.SetupOnly {
			return res, nil
		}
	}
	out, err := os.Create(s.Out)
	if err != nil {
		return nil, err
	}
	i := l.begin("Network.WriteTSV", "grn.write_s", root)
	err = r.Network.WriteTSV(out, names)
	l.end(i)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("write network: %w", err)
	}
	res.WallS = l.end(root).Seconds()
	res.Phases = r.Timer.Seconds()
	res.Counters = resultCounters(r)
	res.Spans = l.spans
	return res, nil
}

// resultCounters are the engine's Result counters under their per-layer
// metric names.
func resultCounters(r *tinge.Result) map[string]float64 {
	return map[string]float64{
		"perm.null_size":        float64(r.NullSize),
		"core.imbalance":        r.Imbalance,
		"core.peak_tile_mb":     float64(r.PeakTileBytes) / mib,
		"mi.pair_evals":         float64(r.PairsEvaluated),
		"mi.perm_evals":         float64(r.PermEvaluations),
		"mi.perm_skipped":       float64(r.PermutationsSkipped),
		"mi.permcache_hits":     float64(r.PermCacheHits),
		"mi.permcache_misses":   float64(r.PermCacheMisses),
		"grn.raw_edges":         float64(r.RawEdges),
		"grn.edges":             float64(r.Network.Len()),
		"panelstore.loads":      float64(r.PanelLoads),
		"panelstore.hits":       float64(r.PanelHits),
		"panelstore.evictions":  float64(r.PanelEvictions),
		"panelstore.mb_loaded":  float64(r.PanelBytesLoaded) / mib,
		"panelstore.mb_spilled": float64(r.PanelBytesSpilled) / mib,
		"panelstore.peak_mb":    float64(r.StorePeakBytes) / mib,
	}
}

// pipelineMain is the child side: run the spec read from standard input,
// print the result as JSON.
func pipelineMain() int {
	var s pipelineSpec
	if err := json.NewDecoder(os.Stdin).Decode(&s); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench pipeline:", err)
		return 1
	}
	res, err := runPipeline(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench pipeline:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench pipeline:", err)
		return 1
	}
	return 0
}

// runChild runs spec in a fresh child process and returns its result
// with the child's peak RSS.
func runChild(ctx context.Context, s pipelineSpec) (*pipelineResult, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, "-pipeline")
	cmd.Stdin, cmd.Stdout, cmd.Stderr = bytes.NewReader(b), &stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("pipeline child: %w", err)
	}
	var res pipelineResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("pipeline child output: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.MaxRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	res.CPUS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	return &res, nil
}
