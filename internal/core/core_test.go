package core

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/expr"
	"repro/internal/grn"
	"repro/internal/mat"
	"repro/internal/phi"
	"repro/internal/tile"
	"repro/internal/trace"
)

func testDataset(t testing.TB, n, m int, seed uint64) *expr.Dataset {
	t.Helper()
	return expr.MustGenerate(expr.GenConfig{
		Genes: n, Experiments: m, AvgRegulators: 2, Noise: 0.05, Seed: seed,
	})
}

func TestConfigValidateDefaults(t *testing.T) {
	cfg := Config{}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Order != 3 || cfg.Bins != 10 || cfg.Permutations != 30 {
		t.Fatalf("defaults: order=%d bins=%d perms=%d", cfg.Order, cfg.Bins, cfg.Permutations)
	}
	if cfg.Alpha != 0.01 || cfg.NullSamplePairs != 500 {
		t.Fatalf("defaults: alpha=%v nullSample=%d", cfg.Alpha, cfg.NullSamplePairs)
	}
	if cfg.Workers < 1 || cfg.TileSize != 32 {
		t.Fatalf("defaults: workers=%d tile=%d", cfg.Workers, cfg.TileSize)
	}
	// A caller that leaves the policy unset schedules dynamically, as
	// Config.Policy documents.
	if name := tile.NewScheduler(cfg.Policy, 1, 1).Name(); name != "dynamic" {
		t.Fatalf("default policy schedules %s, want dynamic", name)
	}
	phiCfg := Config{Engine: Phi}
	if err := phiCfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if phiCfg.Device.Cores != 60 || phiCfg.ThreadsPerCore != 4 {
		t.Fatalf("phi defaults: cores=%d tpc=%d", phiCfg.Device.Cores, phiCfg.ThreadsPerCore)
	}
	clCfg := Config{Engine: Cluster}
	if err := clCfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if clCfg.Ranks != 4 {
		t.Fatalf("cluster default ranks=%d", clCfg.Ranks)
	}
}

func TestConfigValidateErrors(t *testing.T) {
	bad := []Config{
		{Order: 9},
		{Order: 3, Bins: 2},
		{Permutations: -1},
		{Alpha: 1.5},
		{NullSamplePairs: -1},
		{DPITolerance: 1.5},
		{CMIRatio: 1.5},
		{Workers: -2},
		{TileSize: -1},
		{Engine: Phi, ThreadsPerCore: 9},
		{Engine: Cluster, Ranks: -1},
		{Engine: EngineKind(42)},
		{Alpha: math.NaN()},
		{DPITolerance: math.NaN()},
		{CMIRatio: math.NaN()},
		{Ensemble: EnsembleConfig{Bootstraps: 2, SubsampleFrac: math.NaN()}},
		{Ensemble: EnsembleConfig{Bootstraps: 2, SupportCutoff: math.NaN()}},
		{KnownNull: &PooledNull{Threshold: 0.1, Size: 10}, Ensemble: EnsembleConfig{Bootstraps: 2}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d should fail validation", i)
		}
	}
}

func TestEngineKindString(t *testing.T) {
	if Host.String() != "host" || Phi.String() != "phi" || Cluster.String() != "cluster" {
		t.Fatal("engine names wrong")
	}
	if EngineKind(9).String() != "engine(9)" {
		t.Fatal("unknown engine name wrong")
	}
}

func TestInferInputValidation(t *testing.T) {
	if _, err := Infer(mat.NewDense(1, 10), Config{}); err == nil {
		t.Fatal("1 gene should fail")
	}
	if _, err := Infer(mat.NewDense(5, 3), Config{}); err == nil {
		t.Fatal("3 experiments should fail")
	}
	if _, err := Infer(mat.NewDense(5, 10), Config{Order: 99}); err == nil {
		t.Fatal("bad config should fail")
	}
}

func TestInferBasicProperties(t *testing.T) {
	d := testDataset(t, 40, 150, 1)
	res, err := Infer(d.Expr, Config{Seed: 7, Permutations: 20, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Network == nil || res.Network.N() != 40 {
		t.Fatalf("network N = %v", res.Network)
	}
	if res.Threshold <= 0 {
		t.Fatalf("threshold = %v, want > 0", res.Threshold)
	}
	if res.NullSize == 0 {
		t.Fatal("null distribution empty")
	}
	if res.PairsEvaluated < int64(tile.TotalPairs(40)) {
		t.Fatalf("PairsEvaluated = %d, want >= %d", res.PairsEvaluated, tile.TotalPairs(40))
	}
	if res.Network.Len() == 0 {
		t.Fatal("no edges recovered on strongly coupled data")
	}
	// Input must be unmodified (Infer clones).
	d2 := testDataset(t, 40, 150, 1)
	if !d.Expr.Equal(d2.Expr, 0) {
		t.Fatal("Infer mutated the input matrix")
	}
	// Phase timer must cover the pipeline.
	for _, phase := range []string{"normalize", "precompute", "threshold", "mi"} {
		if res.Timer.Get(phase) <= 0 {
			t.Fatalf("phase %q not timed", phase)
		}
	}
}

func TestInferDeterministic(t *testing.T) {
	d := testDataset(t, 30, 100, 2)
	cfg := Config{Seed: 11, Permutations: 15, Workers: 3, Policy: tile.Dynamic}
	a, err := Infer(d.Expr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Infer(d.Expr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Threshold != b.Threshold {
		t.Fatalf("thresholds differ: %v vs %v", a.Threshold, b.Threshold)
	}
	if !sameEdges(a.Network, b.Network) {
		t.Fatal("networks differ across identical runs")
	}
}

func sameEdges(a, b *grn.Network) bool {
	if a.Len() != b.Len() {
		return false
	}
	ae, be := a.Edges(), b.Edges()
	for k := range ae {
		if ae[k].I != be[k].I || ae[k].J != be[k].J ||
			math.Abs(ae[k].Weight-be[k].Weight) > 1e-12 {
			return false
		}
	}
	return true
}

func TestEnginesProduceIdenticalNetworks(t *testing.T) {
	d := testDataset(t, 25, 80, 3)
	base := Config{Seed: 5, Permutations: 10, Workers: 4, TileSize: 8}

	hostCfg := base
	hostCfg.Engine = Host
	hres, err := Infer(d.Expr, hostCfg)
	if err != nil {
		t.Fatal(err)
	}

	phiCfg := base
	phiCfg.Engine = Phi
	pres, err := Infer(d.Expr, phiCfg)
	if err != nil {
		t.Fatal(err)
	}

	clCfg := base
	clCfg.Engine = Cluster
	clCfg.Ranks = 3
	cres, err := Infer(d.Expr, clCfg)
	if err != nil {
		t.Fatal(err)
	}

	if !sameEdges(hres.Network, pres.Network) {
		t.Fatal("host and phi networks differ")
	}
	if !sameEdges(hres.Network, cres.Network) {
		t.Fatal("host and cluster networks differ")
	}
	if hres.Threshold != cres.Threshold {
		t.Fatalf("thresholds differ: %v vs %v", hres.Threshold, cres.Threshold)
	}
}

func TestPhiEngineSimulatedTime(t *testing.T) {
	d := testDataset(t, 30, 100, 6)
	cfg := Config{Engine: Phi, Seed: 1, Permutations: 10, Workers: 4}
	res, err := Infer(d.Expr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimSeconds <= 0 {
		t.Fatalf("SimSeconds = %v, want > 0", res.SimSeconds)
	}
	if res.SimTransferSeconds <= 0 || res.SimTransferSeconds >= res.SimSeconds {
		t.Fatalf("SimTransferSeconds = %v vs total %v", res.SimTransferSeconds, res.SimSeconds)
	}
}

func TestPhiThreadsPerCoreShape(t *testing.T) {
	// Needs tiles >> cores and a compute-dominated kernel so the
	// issue-gap effect is visible through the offload pipeline.
	d := testDataset(t, 64, 500, 7)
	sim := func(tpc int) float64 {
		cfg := Config{
			Engine: Phi, Seed: 2, Permutations: 20, Workers: 4,
			ThreadsPerCore: tpc, TileSize: 2,
		}
		res, err := Infer(d.Expr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.SimSeconds
	}
	t1, t2 := sim(1), sim(2)
	if t2 >= t1*0.95 {
		t.Fatalf("2 threads/core (%v) should beat 1 (%v) on the Phi model", t2, t1)
	}
}

func TestClusterTrafficAndScaling(t *testing.T) {
	d := testDataset(t, 30, 80, 8)
	cfg := Config{Engine: Cluster, Ranks: 4, Seed: 3, Permutations: 10}
	res, err := Infer(d.Expr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages == 0 || res.TrafficBytes == 0 {
		t.Fatalf("traffic = %d msgs / %d bytes, want > 0", res.Messages, res.TrafficBytes)
	}
	if res.Imbalance < 1 {
		t.Fatalf("imbalance = %v, want >= 1", res.Imbalance)
	}
}

func TestDPIReducesEdges(t *testing.T) {
	d := testDataset(t, 40, 200, 9)
	plain := Config{Seed: 4, Permutations: 10, Workers: 4}
	withDPI := plain
	withDPI.DPI = true
	withDPI.DPITolerance = DefaultDPITolerance
	a, err := Infer(d.Expr, plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Infer(d.Expr, withDPI)
	if err != nil {
		t.Fatal(err)
	}
	// Without DPI every survivor is tested; with it the schedule tests
	// a subset, and the pre-filter network is the passing part of it.
	if a.PairsTested != a.PairsSurvived || a.RawEdges != a.Network.Len() {
		t.Fatalf("without DPI: %d of %d survivors tested, %d raw edges for %d",
			a.PairsTested, a.PairsSurvived, a.RawEdges, a.Network.Len())
	}
	if b.PairsSurvived != a.PairsSurvived || b.PairsTested >= a.PairsTested || b.RawEdges > a.Network.Len() {
		t.Fatalf("with DPI: %d of %d survivors tested (%d without), %d raw edges of %d",
			b.PairsTested, b.PairsSurvived, a.PairsTested, b.RawEdges, a.Network.Len())
	}
	if b.Network.Len() > b.RawEdges {
		t.Fatal("DPI cannot add edges")
	}
	if b.Network.Len() == 0 {
		t.Fatal("DPI removed everything")
	}
}

// On low-noise, well-sampled synthetic data, the recovered network
// (after DPI) should beat random: precision well above the density of
// the true network.
func TestRecoveryAccuracy(t *testing.T) {
	d := expr.MustGenerate(expr.GenConfig{
		Genes: 50, Experiments: 400, AvgRegulators: 1, Noise: 0.05, Seed: 10,
	})
	cfg := Config{Seed: 6, Permutations: 20, Workers: 4, DPI: true, DPITolerance: DefaultDPITolerance}
	res, err := Infer(d.Expr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	truth := d.TrueEdgeSet()
	score := res.Network.ScoreAgainst(truth)
	density := float64(len(truth)) / float64(tile.TotalPairs(50))
	if score.Recall < 0.5 {
		t.Fatalf("recall = %v, want >= 0.5 (TP=%d FN=%d)", score.Recall, score.TP, score.FN)
	}
	// Indirect edges along regulatory chains carry genuinely
	// significant MI, so precision sits well below 1 even for a perfect
	// estimator; require it to clearly beat the chance level.
	if score.Precision < 3*density {
		t.Fatalf("precision %v not above chance %v", score.Precision, density)
	}
}

// A higher alpha (less strict) must not produce fewer edges.
func TestAlphaMonotone(t *testing.T) {
	d := testDataset(t, 30, 100, 12)
	edgesAt := func(alpha float64) int {
		res, err := Infer(d.Expr, Config{Seed: 8, Permutations: 10, Alpha: alpha, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res.Network.Len()
	}
	strict := edgesAt(0.001)
	loose := edgesAt(0.2)
	if loose < strict {
		t.Fatalf("alpha 0.2 gave %d edges, alpha 0.001 gave %d", loose, strict)
	}
}

func TestAllSchedulingPoliciesAgree(t *testing.T) {
	d := testDataset(t, 25, 60, 13)
	var ref *Result
	for _, p := range []tile.Policy{tile.StaticBlock, tile.StaticCyclic, tile.Dynamic, tile.Stealing} {
		res, err := Infer(d.Expr, Config{Seed: 2, Permutations: 8, Workers: 3, Policy: p, TileSize: 4})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !sameEdges(ref.Network, res.Network) {
			t.Fatalf("policy %v produced different network", p)
		}
	}
}

func TestSmallestValidProblem(t *testing.T) {
	m := mat.NewDense(2, 4)
	for j := 0; j < 4; j++ {
		m.Set(0, j, float32(j))
		m.Set(1, j, float32(j*j))
	}
	res, err := Infer(m, Config{Seed: 1, Permutations: 5, Workers: 1, Bins: 3, Order: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Network.N() != 2 {
		t.Fatalf("N = %d", res.Network.N())
	}
}

func TestCustomDeviceValidation(t *testing.T) {
	bad := phi.Device{Cores: 4} // missing everything else
	cfg := Config{Engine: Phi, Device: bad}
	if err := cfg.Validate(); err == nil {
		t.Fatal("invalid custom device should fail validation")
	}
}

func TestProfileTiles(t *testing.T) {
	d := testDataset(t, 30, 80, 20)
	prof, err := ProfileTiles(d.Expr, Config{Seed: 1, Permutations: 8, Workers: 1, TileSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Tiles) == 0 || len(prof.EvalsPerTile) != len(prof.Tiles) {
		t.Fatalf("profile shapes: %d tiles, %d eval entries", len(prof.Tiles), len(prof.EvalsPerTile))
	}
	if prof.EvalSeconds <= 0 {
		t.Fatalf("EvalSeconds = %v", prof.EvalSeconds)
	}
	var total int64
	for _, e := range prof.EvalsPerTile {
		total += e
	}
	// EvalsPerTile carries the combined exact+permutation counts the time
	// model replays; the Result splits them.
	if combined := prof.Result.PairsEvaluated + prof.Result.PermEvaluations; total != combined {
		t.Fatalf("per-tile evals %d != total %d", total, combined)
	}
	// Simulated makespans: monotone nonincreasing in worker count and
	// bounded by the serial time.
	serial := prof.SimMakespan(1, tile.Dynamic)
	costs := prof.TileSeconds()
	var sum float64
	for _, c := range costs {
		sum += c
	}
	if math.Abs(serial-sum) > 1e-9 {
		t.Fatalf("serial makespan %v != cost sum %v", serial, sum)
	}
	prev := serial
	for _, w := range []int{2, 4, 16, 64} {
		ms := prof.SimMakespan(w, tile.Dynamic)
		if ms > prev*1.0001 {
			t.Fatalf("makespan increased with workers: %v -> %v at w=%d", prev, ms, w)
		}
		prev = ms
	}
}

func TestProfileTilesValidation(t *testing.T) {
	if _, err := ProfileTiles(mat.NewDense(1, 10), Config{}); err == nil {
		t.Fatal("1 gene should fail")
	}
	if _, err := ProfileTiles(mat.NewDense(5, 2), Config{}); err == nil {
		t.Fatal("2 experiments should fail")
	}
	if _, err := ProfileTiles(mat.NewDense(5, 10), Config{Order: 99}); err == nil {
		t.Fatal("bad config should fail")
	}
}

func TestInferContextCancellation(t *testing.T) {
	d := testDataset(t, 60, 200, 30)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the scan must abort promptly
	_, err := InferContext(ctx, d.Expr, Config{Seed: 1, Permutations: 20, Workers: 2})
	if err == nil {
		t.Fatal("cancelled context should surface an error")
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestInferContextTimeout(t *testing.T) {
	d := testDataset(t, 120, 300, 31)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := InferContext(ctx, d.Expr, Config{Seed: 1, Permutations: 30, Workers: 2})
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestInferContextClusterCancellation(t *testing.T) {
	d := testDataset(t, 60, 200, 32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := InferContext(ctx, d.Expr, Config{
		Engine: Cluster, Ranks: 2, Seed: 1, Permutations: 20,
	})
	if err != context.Canceled {
		t.Fatalf("cluster err = %v, want context.Canceled", err)
	}
}

func TestInferNilContext(t *testing.T) {
	d := testDataset(t, 10, 20, 33)
	if _, err := InferContext(nil, d.Expr, Config{}); err == nil { //nolint:staticcheck
		t.Fatal("nil context should error")
	}
}

// TestProgressAndTraceHooks: every engine reports Progress once per
// committed tile of both passes — the observed tiles, then each test
// round's — plus at most one call when the schedule finishes, against
// a fixed total of two units per tile, with done never decreasing and
// ending at done == total. On the rows of the workers (or ranks) it
// records one tile-<i> span per observed tile and one test-<i> span per
// test-round tile, and on the phase row after them the threshold, one
// select-<round> span per schedule round (the last one requesting
// nothing), dpi and cmi.
func TestProgressAndTraceHooks(t *testing.T) {
	d := testDataset(t, 20, 60, 40)
	nTiles := len(tile.Decompose(20, 4))
	for _, eng := range []EngineKind{Host, Phi, Cluster, Hybrid, OutOfCore} {
		var mu sync.Mutex
		var calls [][2]int
		rec := trace.NewRecorder()
		res, err := Infer(d.Expr, Config{
			Engine: eng, Seed: 1, Permutations: 5, Workers: 2, Ranks: 2, TileSize: 4,
			DPI: true, DPITolerance: 0, CMIFilter: true,
			Progress: func(done, tot int) {
				mu.Lock()
				calls = append(calls, [2]int{done, tot})
				mu.Unlock()
			},
			Trace: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(calls) == 0 {
			t.Fatalf("%v: no progress calls", eng)
		}
		for x, c := range calls {
			if c[0] < 1 || c[1] != 2*nTiles || (x > 0 && c[0] < calls[x-1][0]) {
				t.Fatalf("%v: progress call %d = %v after %v, total want %d", eng, x, c, calls[max(x-1, 0)], 2*nTiles)
			}
		}
		if last := calls[len(calls)-1]; last[0] != last[1] {
			t.Fatalf("%v: progress ends at %v", eng, last)
		}
		if res.PairsTested <= 0 {
			t.Fatalf("%v: no pair tested", eng)
		}

		rows := 2
		counts := map[string]int{}
		rounds := 0
		for _, ev := range rec.Events() {
			name, _, _ := strings.Cut(ev.Name, " ")
			kind, num, _ := strings.Cut(name, "-")
			onWorker := ev.Worker >= 0 && ev.Worker < rows
			switch {
			case (kind == "tile" || kind == "test") && onWorker:
				counts[kind]++
			case kind == "select" && ev.Worker == rows:
				rounds++
				if num != strconv.Itoa(rounds) {
					t.Fatalf("%v: span %q is schedule round %d", eng, ev.Name, rounds)
				}
			case (name == "threshold" || name == "dpi" || name == "cmi") && ev.Worker == rows:
				counts[name]++
			default:
				t.Fatalf("%v: unexpected span %q on row %d", eng, ev.Name, ev.Worker)
			}
		}
		want := map[string]int{"tile": nTiles, "threshold": 1, "dpi": 1, "cmi": 1}
		for name, n := range want {
			if counts[name] != n {
				t.Fatalf("%v: %d %s spans, want %d", eng, counts[name], name, n)
			}
		}
		if tiles := counts["tile"] + counts["test"]; len(calls) != tiles && len(calls) != tiles+1 {
			t.Fatalf("%v: %d progress calls for %d committed tiles", eng, len(calls), tiles)
		}
		if rounds < 2 {
			t.Fatalf("%v: %d select spans, want the test rounds plus the empty last one", eng, rounds)
		}
		if util := rec.Utilization(rows); len(util) != rows {
			t.Fatalf("%v: utilization = %v", eng, util)
		}
	}
}

// TestCheckpointResumeTogglesDPI: a checkpoint records survivors and
// verdicts, not the DPI setting, so a scan resumes under the other
// setting to that setting's network. A finished DPI run resumed
// without DPI tests exactly the survivors the first session left
// untested and observes nothing. Without DPI a tile's survivors are
// tested as it is observed, so that session's progress advances two
// units per tile and stops at the first count at or past stopAt.
func TestCheckpointResumeTogglesDPI(t *testing.T) {
	d := testDataset(t, 40, 80, 12)
	off := Config{Seed: 12, Permutations: 8, Workers: 2, TileSize: 8, CheckpointEvery: 1, DPITolerance: DefaultDPITolerance}
	on := off
	on.DPI = true
	wantOff, err := Infer(d.Expr, off)
	if err != nil {
		t.Fatal(err)
	}
	wantOn, err := Infer(d.Expr, on)
	if err != nil {
		t.Fatal(err)
	}
	nTiles := len(tile.Decompose(40, 8))
	for _, tc := range []struct {
		name          string
		first, second Config
		want          *Result
		stopAt        int // progress count to cancel the first session at; 0 runs it to the end
	}{
		{"on, stopped testing, resumed off", on, off, wantOff, nTiles + 2},
		{"on, finished, resumed off", on, off, wantOff, 0},
		{"off, stopped late, resumed on", off, on, wantOn, nTiles + 2},
		{"off, stopped early, resumed on", off, on, wantOn, nTiles / 2},
	} {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		first := tc.first
		first.CheckpointPath = path
		ctx, cancel := context.WithCancel(context.Background())
		if tc.stopAt > 0 {
			first.Progress = func(done, total int) {
				if done >= tc.stopAt {
					cancel()
				}
			}
		}
		_, err := InferContext(ctx, d.Expr, first)
		cancel()
		if (err != nil) != (tc.stopAt > 0) {
			t.Fatalf("%s: first session returned %v", tc.name, err)
		}
		second := tc.second
		second.CheckpointPath = path
		got, err := Infer(d.Expr, second)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		identicalEdges(t, tc.name, tc.want, got)
		if tc.stopAt == 0 && (got.PairsEvaluated != 0 || got.PairsTested != wantOff.PairsTested-wantOn.PairsTested) {
			t.Fatalf("%s: observed %d pairs and tested %d, want 0 and the %d left untested",
				tc.name, got.PairsEvaluated, got.PairsTested, wantOff.PairsTested-wantOn.PairsTested)
		}
	}
}

func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	d := testDataset(t, 50, 120, 50)
	base := Config{Seed: 3, Permutations: 10, Workers: 2, TileSize: 4}

	// Reference: uninterrupted run without checkpointing.
	ref, err := Infer(d.Expr, base)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after ~20 tiles, persisting progress.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ckCfg := base
	ckCfg.CheckpointPath = path
	ckCfg.CheckpointEvery = 4
	ctx, cancel := context.WithCancel(context.Background())
	var done int64
	ckCfg.Progress = func(d, total int) {
		if atomic.AddInt64(&done, 1) == 20 {
			cancel()
		}
	}
	_, err = InferContext(ctx, d.Expr, ckCfg)
	if err != context.Canceled {
		t.Fatalf("interrupted run err = %v, want Canceled", err)
	}

	// The checkpoint must exist with partial progress.
	st, err := checkpoint.LoadFile(path)
	if err != nil || st == nil {
		t.Fatalf("checkpoint missing: %v, %v", st, err)
	}
	totalTiles := len(tile.Decompose(50, 4))
	if st.Remaining() == 0 || st.Remaining() == totalTiles {
		t.Fatalf("Remaining = %d of %d, want partial", st.Remaining(), totalTiles)
	}

	// Resume: the final network must match the reference exactly.
	ckCfg.Progress = nil
	res, err := Infer(d.Expr, ckCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Threshold != ref.Threshold {
		t.Fatalf("threshold %v != ref %v", res.Threshold, ref.Threshold)
	}
	if !sameEdges(res.Network, ref.Network) {
		t.Fatal("resumed network differs from uninterrupted run")
	}

	// A third run over the finished checkpoint does no tile work and
	// reproduces the network again.
	res2, err := Infer(d.Expr, ckCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.PairsEvaluated != 0 {
		t.Fatalf("completed checkpoint should need 0 evaluations, did %d", res2.PairsEvaluated)
	}
	if !sameEdges(res2.Network, ref.Network) {
		t.Fatal("re-run over finished checkpoint differs")
	}
}

// errAfter is a context whose Err reports cancellation from its
// limit-th poll on: a deterministic way to cancel a scan part-way
// through a phase.
type errAfter struct {
	context.Context
	polls atomic.Int64
	limit int64
}

func (c *errAfter) Err() error {
	if c.polls.Add(1) >= c.limit {
		return context.Canceled
	}
	return nil
}

// TestPhase3CancelCheckpointsNoThreshold: a scan canceled during phase 3
// must not persist a threshold drawn from the part of the null computed
// so far — a resumed run would adopt it and emit a different network.
// Host, cluster and out-of-core scans alike resume to the uninterrupted
// network.
func TestPhase3CancelCheckpointsNoThreshold(t *testing.T) {
	d := testDataset(t, 30, 60, 2)
	for _, eng := range []EngineKind{Host, Cluster, OutOfCore} {
		cfg := Config{Engine: eng, Seed: 3, Permutations: 10, Workers: 2, Ranks: 2, TileSize: 8}
		want, err := Infer(d.Expr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
		// The first polls are null pairs: cancel ~20 pairs into phase 3.
		if _, err := InferContext(&errAfter{Context: context.Background(), limit: 20}, d.Expr, cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: canceled run returned %v", eng, err)
		}
		got, err := Infer(d.Expr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		identicalNetworks(t, eng.String()+" resumed after a phase-3 cancel", got, want)
	}
}

func TestCheckpointFingerprintMismatch(t *testing.T) {
	d := testDataset(t, 20, 60, 51)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := Config{Seed: 1, Permutations: 5, Workers: 1, CheckpointPath: path}
	if _, err := Infer(d.Expr, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2 // different permutations → different run
	if _, err := Infer(d.Expr, cfg); err == nil {
		t.Fatal("resuming with a different seed should fail")
	}
}

func TestCheckpointPhiEngineSimTime(t *testing.T) {
	// The Phi engine's simulated time over a resumed-but-finished
	// checkpoint must still reflect the full evaluation history.
	d := testDataset(t, 20, 60, 52)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := Config{Engine: Phi, Seed: 1, Permutations: 5, Workers: 1, CheckpointPath: path}
	first, err := Infer(d.Expr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Infer(d.Expr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.SimSeconds < 0.9*first.SimSeconds {
		t.Fatalf("resumed SimSeconds %v lost the history (first %v)", second.SimSeconds, first.SimSeconds)
	}
}

func TestCheckpointClusterResume(t *testing.T) {
	// Cluster checkpointing backs rank recovery; a second run over a
	// completed checkpoint must reproduce the network without rescanning.
	d := testDataset(t, 24, 80, 91)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := Config{Engine: Cluster, Ranks: 3, Seed: 9, Permutations: 8, TileSize: 4, CheckpointPath: path}
	first, err := Infer(d.Expr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Infer(d.Expr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEdges(first.Network, second.Network) {
		t.Fatal("resumed cluster network differs")
	}
	if second.PairsEvaluated != 0 {
		t.Fatalf("completed checkpoint re-evaluated %d pairs", second.PairsEvaluated)
	}
	if second.Threshold != first.Threshold {
		t.Fatalf("resume changed threshold: %v vs %v", second.Threshold, first.Threshold)
	}
}

func TestCheckpointEveryValidation(t *testing.T) {
	cfg := Config{CheckpointEvery: -1}
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative interval should fail")
	}
}

func TestHybridEngine(t *testing.T) {
	d := testDataset(t, 40, 200, 60)
	base := Config{Seed: 5, Permutations: 10, Workers: 2, TileSize: 4}

	hostCfg := base
	href, err := Infer(d.Expr, hostCfg)
	if err != nil {
		t.Fatal(err)
	}

	hyCfg := base
	hyCfg.Engine = Hybrid
	hy, err := Infer(d.Expr, hyCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEdges(href.Network, hy.Network) {
		t.Fatal("hybrid network differs from host network")
	}
	if hy.HybridPhiShare <= 0 || hy.HybridPhiShare >= 1 {
		t.Fatalf("phi share = %v, want in (0,1)", hy.HybridPhiShare)
	}
	if hy.SimSeconds <= 0 {
		t.Fatalf("SimSeconds = %v", hy.SimSeconds)
	}

	// Two devices must beat the coprocessor alone on the same problem.
	phiCfg := base
	phiCfg.Engine = Phi
	phiOnly, err := Infer(d.Expr, phiCfg)
	if err != nil {
		t.Fatal(err)
	}
	if hy.SimSeconds >= phiOnly.SimSeconds {
		t.Fatalf("hybrid (%v s) should beat phi-only (%v s)", hy.SimSeconds, phiOnly.SimSeconds)
	}
}

func TestHybridEngineString(t *testing.T) {
	if Hybrid.String() != "hybrid" {
		t.Fatalf("Hybrid.String() = %q", Hybrid.String())
	}
}

func TestHybridBadHostDevice(t *testing.T) {
	cfg := Config{Engine: Hybrid, HostDevice: phi.Device{Cores: 2}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("invalid host device should fail validation")
	}
}
