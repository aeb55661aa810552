package core

import (
	"context"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/grn"
)

// ensembleBaseCfg is the shared configuration of the ensemble
// determinism suite: small enough to run the full engine × precision ×
// worker matrix, permissive enough (alpha) that every bootstrap emits
// edges worth disagreeing about.
func ensembleBaseCfg() Config {
	return Config{
		Permutations:    8,
		NullSamplePairs: 40,
		Alpha:           0.4,
		Workers:         4,
		TileSize:        8,
		Seed:            7,
		Ranks:           2,
		Ensemble: EnsembleConfig{
			Bootstraps:    4,
			SubsampleFrac: 0.75,
			Seed:          3,
			SupportCutoff: 0.5,
		},
	}
}

// identicalEnsembles asserts bit-identity of two ensemble results:
// per-bootstrap thresholds, the support matrix (counts AND float64
// weight sums), the consensus network, and the evaluation counts. A
// resumed run counts only its own session, so TestEnsembleResume passes
// a want whose counts are those of the pending bootstraps.
func identicalEnsembles(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Ensemble == nil || b.Ensemble == nil {
		t.Fatalf("%s: missing ensemble aggregate (%v, %v)", label, a.Ensemble != nil, b.Ensemble != nil)
	}
	if a.Ensemble.Bootstraps() != b.Ensemble.Bootstraps() {
		t.Fatalf("%s: folds %d != %d", label, a.Ensemble.Bootstraps(), b.Ensemble.Bootstraps())
	}
	if len(a.EnsembleThresholds) != len(b.EnsembleThresholds) {
		t.Fatalf("%s: %d thresholds != %d", label, len(a.EnsembleThresholds), len(b.EnsembleThresholds))
	}
	for i := range a.EnsembleThresholds {
		if a.EnsembleThresholds[i] != b.EnsembleThresholds[i] {
			t.Fatalf("%s: bootstrap %d threshold %v != %v", label, i, a.EnsembleThresholds[i], b.EnsembleThresholds[i])
		}
	}
	ae, be := a.Ensemble.Edges(), b.Ensemble.Edges()
	if len(ae) != len(be) {
		t.Fatalf("%s: support table %d edges != %d", label, len(ae), len(be))
	}
	for k := range ae {
		if ae[k] != be[k] {
			t.Fatalf("%s: support edge %d differs: %+v vs %+v", label, k, ae[k], be[k])
		}
	}
	an, bn := a.Network.Edges(), b.Network.Edges()
	if len(an) != len(bn) {
		t.Fatalf("%s: consensus %d edges != %d", label, len(an), len(bn))
	}
	for k := range an {
		if an[k] != bn[k] {
			t.Fatalf("%s: consensus edge %d differs: %+v vs %+v", label, k, an[k], bn[k])
		}
	}
	if a.PairsEvaluated != b.PairsEvaluated || a.PermEvaluations != b.PermEvaluations {
		t.Fatalf("%s: counters (%d,%d) != (%d,%d)", label,
			a.PairsEvaluated, a.PermEvaluations, b.PairsEvaluated, b.PermEvaluations)
	}
}

// sameSupportStructure is the cross-precision assertion: float32 and
// float64 agree on every (i, j, support) cell and on the consensus
// edge set, with mean weights within estimator drift (the single
// precision kernels compute MI to ~1e-4 bits of the double path).
func sameSupportStructure(t *testing.T, label string, a, b *Result) {
	t.Helper()
	ae, be := a.Ensemble.Edges(), b.Ensemble.Edges()
	if len(ae) != len(be) {
		t.Fatalf("%s: support table %d edges != %d", label, len(ae), len(be))
	}
	for k := range ae {
		if ae[k].I != be[k].I || ae[k].J != be[k].J || ae[k].Support != be[k].Support {
			t.Fatalf("%s: support cell %d differs: %+v vs %+v", label, k, ae[k], be[k])
		}
		if math.Abs(ae[k].MeanWeight()-be[k].MeanWeight()) > 1e-3 {
			t.Fatalf("%s: support cell %d mean drift: %v vs %v", label, k, ae[k].MeanWeight(), be[k].MeanWeight())
		}
	}
	an, bn := a.Network.Edges(), b.Network.Edges()
	if len(an) != len(bn) {
		t.Fatalf("%s: consensus %d edges != %d", label, len(an), len(bn))
	}
	for k := range an {
		if an[k].I != bn[k].I || an[k].J != bn[k].J {
			t.Fatalf("%s: consensus edge %d differs: %+v vs %+v", label, k, an[k], bn[k])
		}
	}
}

// TestEnsembleGoldenEquivalence is the ensemble determinism anchor:
// for a fixed (seed, bootstrap, subsample) configuration the support
// matrix, per-bootstrap thresholds, and consensus network are
// bit-identical across all five engines and every worker count — and
// structurally identical (exact support counts, drift-bounded weights)
// across compute precisions. TestEnsembleResume covers resume from a
// mid-ensemble checkpoint.
func TestEnsembleGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("ensemble golden matrix is not short")
	}
	d := testDataset(t, 20, 48, 9)
	workerCounts := []int{1, 4, runtime.NumCPU()}

	baselines := make(map[Precision]*Result)
	for _, prec := range []Precision{Float64, Float32} {
		cfg := ensembleBaseCfg()
		cfg.Precision = prec
		res, err := Infer(d.Expr, cfg)
		if err != nil {
			t.Fatalf("baseline %v: %v", prec, err)
		}
		if res.Ensemble.Bootstraps() != cfg.Ensemble.Bootstraps {
			t.Fatalf("baseline %v: %d folds", prec, res.Ensemble.Bootstraps())
		}
		if res.Ensemble.Len() == 0 || res.Network.Len() == 0 {
			t.Fatalf("baseline %v: empty ensemble (%d support cells, %d consensus edges)",
				prec, res.Ensemble.Len(), res.Network.Len())
		}
		baselines[prec] = res
	}
	sameSupportStructure(t, "float32-vs-float64", baselines[Float32], baselines[Float64])

	for _, eng := range []EngineKind{Host, Phi, Cluster, Hybrid, OutOfCore} {
		for _, prec := range []Precision{Float64, Float32} {
			for _, w := range workerCounts {
				cfg := ensembleBaseCfg()
				cfg.Engine = eng
				cfg.Precision = prec
				cfg.Workers = w
				if eng == OutOfCore {
					budget, err := MinMemoryBudget(20, 48, cfg)
					if err != nil {
						t.Fatal(err)
					}
					cfg.MemoryBudget = budget
					cfg.SpillDir = t.TempDir()
				}
				res, err := Infer(d.Expr, cfg)
				if err != nil {
					t.Fatalf("%v/%v/w%d: %v", eng, prec, w, err)
				}
				label := eng.String() + "/" + prec.String() + "/w" + itoa(w)
				identicalEnsembles(t, label, res, baselines[prec])
			}
		}
	}
}

// TestEnsembleResume kills an ensemble mid-run (host and out-of-core)
// and resumes from the bootstrap-granularity checkpoint: the resumed
// run must land bit-identical to an uninterrupted one, and must not
// redo the committed bootstraps.
func TestEnsembleResume(t *testing.T) {
	d := testDataset(t, 20, 48, 9)
	for _, eng := range []EngineKind{Host, OutOfCore} {
		base := ensembleBaseCfg()
		base.Engine = eng
		if eng == OutOfCore {
			budget, err := MinMemoryBudget(20, 48, base)
			if err != nil {
				t.Fatal(err)
			}
			base.MemoryBudget = budget
			base.SpillDir = t.TempDir()
		}
		want, err := Infer(d.Expr, base)
		if err != nil {
			t.Fatal(err)
		}

		cfg := base
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "ens.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// Cancel once half the run's tiles have completed — past the
		// first bootstrap's commit, before the last one starts.
		cfg.Progress = func(done, total int) {
			if done*2 >= total {
				cancel()
			}
		}
		if _, err := InferContext(ctx, d.Expr, cfg); err == nil {
			t.Fatalf("%v: interrupted ensemble did not surface cancellation", eng)
		}

		cfg.Progress = nil
		res, err := Infer(d.Expr, cfg)
		if err != nil {
			t.Fatalf("%v resume: %v", eng, err)
		}
		ran := res.EnsembleBootstrapsRun
		if ran >= base.Ensemble.Bootstraps || ran < 1 {
			t.Fatalf("%v resume ran %d of %d bootstraps (checkpoint ignored?)",
				eng, ran, base.Ensemble.Bootstraps)
		}
		// The resumed session did exactly the pending bootstraps' work:
		// a Start/Count run over them counts the same evaluations.
		pendingCfg := base
		pendingCfg.Ensemble.Start, pendingCfg.Ensemble.Count = base.Ensemble.Bootstraps-ran, ran
		pending, err := Infer(d.Expr, pendingCfg)
		if err != nil {
			t.Fatal(err)
		}
		session := *want
		session.PairsEvaluated, session.PermEvaluations = pending.PairsEvaluated, pending.PermEvaluations
		if session.PairsEvaluated >= want.PairsEvaluated {
			t.Fatalf("%v: pending bootstraps evaluated %d pairs, the whole run %d", eng, session.PairsEvaluated, want.PairsEvaluated)
		}
		identicalEnsembles(t, eng.String()+"/resume", res, &session)

		// A rerun against the finished checkpoint runs nothing and
		// reports the uninterrupted run's threshold and null size.
		again, err := Infer(d.Expr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if again.EnsembleBootstrapsRun != 0 || again.Threshold != want.Threshold || again.NullSize != want.NullSize {
			t.Fatalf("%v finished rerun: %d bootstraps run, threshold %v null size %d; want 0, %v, %d",
				eng, again.EnsembleBootstrapsRun, again.Threshold, again.NullSize, want.Threshold, want.NullSize)
		}
	}
}

// TestEnsemblePartialRanges is the fleet primitive in miniature:
// disjoint Start/Count ranges, folded in ascending bootstrap order,
// must reconstruct the full run's aggregate and consensus bit for bit.
func TestEnsemblePartialRanges(t *testing.T) {
	d := testDataset(t, 20, 48, 9)
	full := ensembleBaseCfg()
	want, err := Infer(d.Expr, full)
	if err != nil {
		t.Fatal(err)
	}

	ens := grn.NewEnsemble(20)
	var thresholds []float64
	for _, r := range [][2]int{{0, 1}, {1, 2}, {3, 1}} {
		cfg := ensembleBaseCfg()
		cfg.Ensemble.Start, cfg.Ensemble.Count = r[0], r[1]
		res, err := Infer(d.Expr, cfg)
		if err != nil {
			t.Fatalf("range [%d,+%d): %v", r[0], r[1], err)
		}
		if res.Network.Len() != 0 {
			t.Fatalf("range [%d,+%d): partial run emitted a consensus network", r[0], r[1])
		}
		if len(res.EnsembleNetworks) != r[1] || len(res.EnsembleThresholds) != r[1] {
			t.Fatalf("range [%d,+%d): %d networks / %d thresholds",
				r[0], r[1], len(res.EnsembleNetworks), len(res.EnsembleThresholds))
		}
		for _, net := range res.EnsembleNetworks {
			ens.Fold(net)
		}
		thresholds = append(thresholds, res.EnsembleThresholds...)
	}
	for i, th := range thresholds {
		if th != want.EnsembleThresholds[i] {
			t.Fatalf("bootstrap %d threshold %v != %v", i, th, want.EnsembleThresholds[i])
		}
	}
	ae, we := ens.Edges(), want.Ensemble.Edges()
	if len(ae) != len(we) {
		t.Fatalf("folded support table %d edges != %d", len(ae), len(we))
	}
	for k := range ae {
		if ae[k] != we[k] {
			t.Fatalf("folded support edge %d differs: %+v vs %+v", k, ae[k], we[k])
		}
	}
	cons := ens.Consensus(full.Ensemble.SupportCutoff)
	ce, ne := cons.Edges(), want.Network.Edges()
	if len(ce) != len(ne) {
		t.Fatalf("folded consensus %d edges != %d", len(ce), len(ne))
	}
	for k := range ce {
		if ce[k] != ne[k] {
			t.Fatalf("folded consensus edge %d differs: %+v vs %+v", k, ce[k], ne[k])
		}
	}
}

// TestEnsembleAmortization pins the sharing the ensemble exists for:
// permuted-row cache hits and reused stencils grow with the bootstrap
// count, and the filters run per bootstrap (removal counters
// accumulate across bootstraps).
func TestEnsembleAmortization(t *testing.T) {
	d := testDataset(t, 20, 48, 9)
	run := func(b int) *Result {
		cfg := ensembleBaseCfg()
		cfg.Ensemble.Bootstraps = b
		res, err := Infer(d.Expr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, four := run(1), run(4)
	if one.PermCacheHits <= 0 {
		t.Fatalf("single bootstrap recorded no perm-cache hits (%d)", one.PermCacheHits)
	}
	if four.PermCacheHits <= one.PermCacheHits {
		t.Fatalf("perm-cache hits did not grow across bootstraps: B=1 %d, B=4 %d",
			one.PermCacheHits, four.PermCacheHits)
	}
	mSub := 36 // round(0.75 * 48)
	if want := int64(1 * 20 * mSub); one.EnsembleStencilsReused != want {
		t.Fatalf("B=1 reused %d stencils, want %d", one.EnsembleStencilsReused, want)
	}
	if want := int64(4 * 20 * mSub); four.EnsembleStencilsReused != want {
		t.Fatalf("B=4 reused %d stencils, want %d", four.EnsembleStencilsReused, want)
	}
	if four.EnsembleBootstrapsRun != 4 {
		t.Fatalf("B=4 ran %d bootstraps", four.EnsembleBootstrapsRun)
	}

	// DPI runs per bootstrap, before folding.
	dcfg := ensembleBaseCfg()
	dcfg.DPI = true
	dres, err := Infer(d.Expr, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if dres.DPIEdgesRemoved <= 0 {
		t.Fatalf("ensemble DPI removed nothing (raw %d edges)", dres.RawEdges)
	}
	if dres.PairsSurvived != four.PairsSurvived {
		t.Fatalf("threshold survivor totals differ: DPI run %d, plain run %d", dres.PairsSurvived, four.PairsSurvived)
	}
}

// TestEnsembleValidate covers the ensemble configuration rules.
func TestEnsembleValidate(t *testing.T) {
	ok := func(mut func(*Config)) error {
		cfg := ensembleBaseCfg()
		mut(&cfg)
		return cfg.Validate()
	}
	if err := ok(func(c *Config) {}); err != nil {
		t.Fatal(err)
	}
	cfg := ensembleBaseCfg()
	cfg.Ensemble.SubsampleFrac = 0
	cfg.Ensemble.SupportCutoff = 0
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Ensemble.SubsampleFrac != DefaultSubsampleFrac || cfg.Ensemble.SupportCutoff != DefaultSupportCutoff {
		t.Fatalf("defaults not applied: %+v", cfg.Ensemble)
	}
	bad := []func(*Config){
		func(c *Config) { c.Ensemble.Bootstraps = -1 },
		func(c *Config) { c.Ensemble.SubsampleFrac = 1.5 },
		func(c *Config) { c.Ensemble.SupportCutoff = -0.1 },
		func(c *Config) { c.Ensemble.Start = -1; c.Ensemble.Count = 1 },
		func(c *Config) { c.Ensemble.Start = 1 },
		func(c *Config) { c.Ensemble.Start = 3; c.Ensemble.Count = 2 },
		func(c *Config) { c.ChunkStart = 0; c.ChunkTiles = 2 },
		func(c *Config) { c.Ensemble.Count = 1; c.CheckpointPath = "x.ckpt" },
	}
	for i, mut := range bad {
		if err := ok(mut); err == nil {
			t.Fatalf("bad config %d validated", i)
		}
	}
	// Subsample floor: 0.75 of 4 experiments is 3 < 4.
	d := testDataset(t, 6, 4, 1)
	cfg = ensembleBaseCfg()
	if _, err := Infer(d.Expr, cfg); err == nil {
		t.Fatal("subsample below the experiment floor was accepted")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
