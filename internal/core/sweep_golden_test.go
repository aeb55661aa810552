package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bspline"
	"repro/internal/grn"
	"repro/internal/mat"
	"repro/internal/mi"
	"repro/internal/perm"
	"repro/internal/tile"
)

// precomputeWeights replicates Infer's phase-1/2 front half for tests
// that drive the pair kernel directly.
func precomputeWeights(t *testing.T, cfg Config, norm *mat.Dense) *bspline.WeightMatrix {
	t.Helper()
	basis, err := bspline.New(cfg.Order, cfg.Bins)
	if err != nil {
		t.Fatal(err)
	}
	return bspline.PrecomputeParallel(basis, norm, cfg.Workers)
}

// identicalNetworks requires exact equality — same edge order, same I/J,
// bitwise-equal weights. The sweep engine's claim is bit-identity with
// the per-permutation reference, not mere closeness.
func identicalNetworks(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Threshold != b.Threshold {
		t.Fatalf("%s: threshold %v != %v", label, a.Threshold, b.Threshold)
	}
	if a.PairsEvaluated != b.PairsEvaluated {
		t.Fatalf("%s: PairsEvaluated %d != %d", label, a.PairsEvaluated, b.PairsEvaluated)
	}
	if a.PermEvaluations != b.PermEvaluations {
		t.Fatalf("%s: PermEvaluations %d != %d", label, a.PermEvaluations, b.PermEvaluations)
	}
	ae, be := a.Network.Edges(), b.Network.Edges()
	if len(ae) != len(be) {
		t.Fatalf("%s: %d edges != %d edges", label, len(ae), len(be))
	}
	for k := range ae {
		if ae[k].I != be[k].I || ae[k].J != be[k].J || ae[k].Weight != be[k].Weight {
			t.Fatalf("%s: edge %d differs: %+v vs %+v", label, k, ae[k], be[k])
		}
	}
}

// miObserved is pair (i, j)'s observed MI under the per-pair
// formulations. At float64 the bucketed kernel is the counting-sort
// PairBucketed, so the engines' PairBlocked stays pinned bit-identical
// to it.
func (k *pairKernel) miObserved(i, j int, ws *mi.Workspace) float64 {
	if k.prec == Float64 && k.kind == KernelBucketed {
		return k.est.PairBucketed(i, j, ws)
	}
	return k.miPair(i, j, ws)
}

// miPermuted computes MI of (i, j) under pool permutation p with a
// fresh per-permutation kernel call (setup and permutation gather
// included) — one evaluation of the reference decide loop. The
// bucketed and vectorized kernels evaluate it as a one-permutation null
// sweep, which has no early exit and no certificate; the mi tests pin
// every null value to that formulation's per-permutation kernel.
func (k *pairKernel) miPermuted(i, j, p int, ws *mi.Workspace) float64 {
	perm := k.pool.Perms()[p : p+1]
	out := make([]float64, 1)
	if k.prec == Float32 {
		switch k.kind {
		case KernelScalar:
			return k.est.PairPermutedScalar32(i, j, perm[0], ws)
		case KernelVec:
			k.est.NullVec32(i, j, perm, out, ws)
		default:
			k.est.NullBucketed32(i, j, perm, out, ws)
		}
		return out[0]
	}
	switch k.kind {
	case KernelScalar:
		return k.est.PairPermutedScalar(i, j, perm[0], ws)
	case KernelVec:
		k.est.NullVec(i, j, perm, out, ws)
	default:
		k.est.NullBucketed(i, j, perm, out, ws)
	}
	return out[0]
}

// referenceKernel builds the kernel of Infer's resident path for the
// references below.
func referenceKernel(t *testing.T, exprMat *mat.Dense, cfg *Config) *pairKernel {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	norm := exprMat.Clone()
	norm.RankNormalize()
	return newPairKernel(precomputeWeights(t, *cfg, norm), *cfg)
}

// referenceNull is phase 3 by its definition: every sampled null pair's
// q permuted MIs, one per-permutation kernel call each (miPermuted),
// pooled and cut at the (1-alpha) quantile. It is the oracle the shared
// single-sweep phase 3 must match bit for bit.
func referenceNull(t *testing.T, exprMat *mat.Dense, cfg Config) PooledNull {
	t.Helper()
	k := referenceKernel(t, exprMat, &cfg)
	ws := k.newWorkspace()
	var null perm.Null
	for _, pr := range sampleNullPairs(cfg.Seed, exprMat.Rows(), cfg.NullSamplePairs) {
		for p := 0; p < cfg.Permutations; p++ {
			null.Add(k.miPermuted(pr[0], pr[1], p, ws))
		}
	}
	return PooledNull{Threshold: null.Threshold(cfg.Alpha), Size: null.Len()}
}

// referenceScan is phase 4 by its definition, with none of the engines'
// machinery (tiles, sweeps, caches, certificates): every pair's
// observed MI (miObserved), the threshold from referenceNull, and the
// per-permutation decide loop with early exit — an edge must strictly
// beat all q permuted MIs, each from its own kernel call. It counts
// pair and permutation evaluations the way the engines must.
func referenceScan(t *testing.T, exprMat *mat.Dense, cfg Config) *Result {
	t.Helper()
	null := referenceNull(t, exprMat, cfg)
	k := referenceKernel(t, exprMat, &cfg)
	ws := k.newWorkspace()
	n := exprMat.Rows()
	res := &Result{Threshold: null.Threshold, Network: grn.New(n)}
	res.NullSize = null.Size
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			obs := k.miObserved(i, j, ws)
			res.PairsEvaluated++
			if obs < null.Threshold {
				continue
			}
			significant := true
			for p := 0; p < cfg.Permutations && significant; p++ {
				res.PermEvaluations++
				significant = k.miPermuted(i, j, p, ws) < obs
			}
			if significant {
				res.Network.AddEdge(i, j, obs)
			}
		}
	}
	return res
}

// TestSweepGoldenEquivalence is the golden equivalence suite: for fixed
// seeds every engine must emit networks byte-identical to referenceScan
// — same edges in the same order, bitwise equal weights, equal
// threshold and null size, and equal pair and permutation evaluation
// counts (1 observed evaluation per pair plus the permutations actually
// computed before early exit; skipped permutations are never counted)
// — across seeds {1,2,3}, orders {1,3}, all five engines, all three
// kernels, and both precisions.
func TestSweepGoldenEquivalence(t *testing.T) {
	engines := []EngineKind{Host, Phi, Cluster, Hybrid, OutOfCore}
	kernels := []KernelKind{KernelBucketed, KernelScalar, KernelVec}
	for _, seed := range []uint64{1, 2, 3} {
		d := testDataset(t, 20, 60, seed)
		for _, order := range []int{1, 3} {
			for _, prec := range []Precision{Float64, Float32} {
				for _, kern := range kernels {
					cfg := Config{
						Kernel: kern, Order: order, Precision: prec,
						Seed: seed, Permutations: 8, Workers: 4, TileSize: 8, Ranks: 2,
					}
					want := referenceScan(t, d.Expr, cfg)
					for _, eng := range engines {
						cfg.Engine = eng
						got, err := Infer(d.Expr, cfg)
						if err != nil {
							t.Fatal(err)
						}
						label := eng.String() + "/" + kern.String() + "/" + prec.String()
						identicalNetworks(t, label, got, want)
						if got.NullSize != want.NullSize {
							t.Fatalf("%s: phase 3 pooled %d values, per-permutation reference %d",
								label, got.NullSize, want.NullSize)
						}
					}
				}
			}
		}
	}
}

// TestKnownNullSkipsPhase3 pins Config.KnownNull: a scan handed its own
// phase-3 outcome emits the identical network — threshold, null size,
// edges, and evaluation counts — on every engine, and records no
// "threshold" phase because no null pair is evaluated.
func TestKnownNullSkipsPhase3(t *testing.T) {
	d := testDataset(t, 24, 60, 4)
	for _, eng := range []EngineKind{Host, Phi, Cluster, Hybrid, OutOfCore} {
		cfg := Config{Engine: eng, Seed: 5, Permutations: 10, Workers: 3, TileSize: 8, Ranks: 3}
		want, err := Infer(d.Expr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.KnownNull = &PooledNull{Threshold: want.Threshold, Size: want.NullSize}
		got, err := Infer(d.Expr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		identicalNetworks(t, eng.String(), got, want)
		if got.NullSize != want.NullSize {
			t.Fatalf("%v: null size %d != %d", eng, got.NullSize, want.NullSize)
		}
		for _, ph := range got.Timer.Phases() {
			if ph == "threshold" {
				t.Fatalf("%v: a known threshold still ran phase 3 (%v)", eng, got.Timer.Get(ph))
			}
		}
		if eng == Host && want.Timer.Get("threshold") == 0 {
			t.Fatal("host run without a known threshold recorded no threshold phase")
		}
	}
}

// TestSweepAmortizationCounters checks the counters the sweep engine
// exposes: early exits skip permutations on uncorrelated survivors, the
// certificate decides observed pairs and permutations of the bucketed
// kernel only, and the permuted-row cache counters read 0 because the
// scan builds no cache.
func TestSweepAmortizationCounters(t *testing.T) {
	d := testDataset(t, 30, 100, 2)
	// A generous alpha drops I_alpha low enough that marginal pairs enter
	// the permutation test and fail it part-way — exercising the early
	// exit.
	res, err := Infer(d.Expr, Config{Seed: 4, Permutations: 16, Workers: 4, TileSize: 8, Alpha: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if res.PermutationsSkipped == 0 {
		t.Fatal("no permutations skipped: early exit is not reported")
	}
	if res.PairsCertified == 0 || res.PermutationsCertified == 0 {
		t.Fatalf("bucketed kernel certified %d pairs and %d permutations, want both > 0",
			res.PairsCertified, res.PermutationsCertified)
	}
	vres, err := Infer(d.Expr, Config{Seed: 4, Permutations: 16, Workers: 4, TileSize: 8, Alpha: 0.4, Kernel: KernelVec})
	if err != nil {
		t.Fatal(err)
	}
	if vres.PairsCertified != 0 || vres.PermutationsCertified != 0 {
		t.Fatalf("vec kernel certified %d pairs and %d permutations", vres.PairsCertified, vres.PermutationsCertified)
	}
	for _, r := range []*Result{res, vres} {
		if r.PermCacheHits != 0 || r.PermCacheMisses != 0 {
			t.Fatalf("scan reported permuted-row cache lookups (%d/%d)", r.PermCacheHits, r.PermCacheMisses)
		}
	}
}

// TestPermutationsCertifiedCount pins the certificate counters:
// positive on a genexpr fixture, never above the permutation
// evaluations (PermutationsCertified) or the pairs below the threshold
// (PairsCertified), and identical across engines and worker (or rank)
// counts — a pair's certified evaluations depend only on the pair, not
// on which worker decided it.
func TestPermutationsCertifiedCount(t *testing.T) {
	d := testDataset(t, 40, 100, 6)
	for _, prec := range []Precision{Float64, Float32} {
		var want [2]int64
		for _, eng := range []EngineKind{Host, OutOfCore, Cluster, Phi, Hybrid} {
			for _, workers := range []int{1, 2, 4} {
				cfg := Config{
					Engine: eng, Precision: prec, Seed: 3, Permutations: 16,
					Workers: workers, Ranks: workers, TileSize: 8,
				}
				res, err := Infer(d.Expr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%v/%v/%d workers", eng, prec, workers)
				got := [2]int64{res.PermutationsCertified, res.PairsCertified}
				if got[0] <= 0 || got[0] > res.PermEvaluations {
					t.Fatalf("%s: %d certified of %d permutation evaluations", label, got[0], res.PermEvaluations)
				}
				if below := res.PairsEvaluated - res.PairsSurvived; got[1] <= 0 || got[1] > below {
					t.Fatalf("%s: %d pairs certified of %d below the threshold", label, got[1], below)
				}
				if want == [2]int64{} {
					want = got
				} else if got != want {
					t.Fatalf("%s: %d permutations and %d pairs certified, first run %d and %d", label, got[0], got[1], want[0], want[1])
				}
			}
		}
	}
}

// decide is one pair's whole phase-4 path: the certified observation,
// the threshold cut, and the permutation test of a survivor.
func decide(k *pairKernel, i, j int, ws *mi.Workspace) (obs float64, sig bool, evals, permEvals, skipped int64) {
	obs, below := k.observe(i, j, ws)
	if below || obs < k.thresh {
		return obs, false, 1, 0, 0
	}
	sig, permEvals, skipped = k.test(i, j, obs, ws)
	return obs, sig, 1, permEvals, skipped
}

// TestSweepConcurrentWorkers hammers the observe and sweep paths from
// cfg.Workers goroutines sharing one immutable estimator and pool, each
// with a private workspace — the exact phase-4 sharing pattern. Run
// with -race; it also cross-checks every goroutine's decisions against
// a serial reference.
func TestSweepConcurrentWorkers(t *testing.T) {
	d := testDataset(t, 24, 80, 5)
	cfg := Config{Seed: 9, Permutations: 12, Workers: 8, TileSize: 6}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	norm := d.Expr.Clone()
	norm.RankNormalize()
	wm := precomputeWeights(t, cfg, norm)
	k := newPairKernel(wm, cfg)
	k.thresh = 0.01

	type verdict struct {
		obs       float64
		sig       bool
		evals     int64
		permEvals int64
		skipped   int64
	}
	// Serial reference over all pairs.
	ref := make(map[[2]int]verdict)
	refWS := mi.NewWorkspace(k.est)
	tiles := tile.Decompose(24, cfg.TileSize)
	for _, tl := range tiles {
		tl.ForEachPair(func(i, j int) {
			obs, sig, ev, pe, sk := decide(k, i, j, refWS)
			ref[[2]int{i, j}] = verdict{obs, sig, ev, pe, sk}
		})
	}

	var wg sync.WaitGroup
	errs := make(chan string, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := mi.NewWorkspace(k.est)
			// Each worker scans a cyclic share of the tiles, twice, so
			// its cached row keys change genes under load.
			for round := 0; round < 2; round++ {
				for ti := w; ti < len(tiles); ti += cfg.Workers {
					tiles[ti].ForEachPair(func(i, j int) {
						obs, sig, ev, pe, sk := decide(k, i, j, ws)
						want := ref[[2]int{i, j}]
						if obs != want.obs || sig != want.sig || ev != want.evals || pe != want.permEvals || sk != want.skipped {
							select {
							case errs <- "worker decision diverged from serial reference":
							default:
							}
						}
					})
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestSampleNullPairsDistinct is the regression test for the
// duplicate-pair bias: every sampled pair must be distinct (a duplicate
// double-counts its permuted MIs in the pooled null), canonical (i<j),
// deterministic per seed, and the count must clamp to the pair
// universe.
func TestSampleNullPairsDistinct(t *testing.T) {
	pairs := sampleNullPairs(42, 12, 60)
	if len(pairs) != 60 {
		t.Fatalf("got %d pairs, want 60", len(pairs))
	}
	seen := make(map[[2]int]bool)
	for _, pr := range pairs {
		if pr[0] >= pr[1] {
			t.Fatalf("non-canonical pair %v", pr)
		}
		if seen[pr] {
			t.Fatalf("duplicate pair %v", pr)
		}
		seen[pr] = true
	}
	// Determinism.
	again := sampleNullPairs(42, 12, 60)
	for x := range pairs {
		if pairs[x] != again[x] {
			t.Fatalf("pair %d differs across identical calls: %v vs %v", x, pairs[x], again[x])
		}
	}
	// Different seed, different draw.
	other := sampleNullPairs(43, 12, 60)
	same := true
	for x := range pairs {
		if pairs[x] != other[x] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed does not influence the sample")
	}
	// Requesting more pairs than exist clamps to the full universe.
	all := sampleNullPairs(7, 6, 1000)
	if len(all) != tile.TotalPairs(6) {
		t.Fatalf("clamp: got %d pairs, want %d", len(all), tile.TotalPairs(6))
	}
}
