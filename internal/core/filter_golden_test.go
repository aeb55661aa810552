package core

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/mi"
)

// TestDPIGoldenAllEngines is the parallel-filter bit-identity suite:
// for every engine, an inference run with the parallel DPI phase must
// produce exactly the network of an unfiltered run pruned by the
// sequential reference Network.DPI — including the strict tolerance 0
// and the out-of-core budgeted path.
func TestDPIGoldenAllEngines(t *testing.T) {
	engines := []EngineKind{Host, Phi, Cluster, Hybrid, OutOfCore}
	for _, eng := range engines {
		for _, tol := range []float64{0, DefaultDPITolerance} {
			d := testDataset(t, 24, 60, 3)
			cfg := Config{
				Engine: eng,
				Seed:   3, Permutations: 8, Workers: 4, TileSize: 8, Ranks: 2,
			}
			plain, err := Infer(d.Expr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			withDPI := cfg
			withDPI.DPI = true
			withDPI.DPITolerance = tol
			if tol == 0 {
				// The zero value must mean strict DPI end to end, not
				// silently revert to the default tolerance.
				withDPI.DPITolerance = 0
			}
			got, err := Infer(d.Expr, withDPI)
			if err != nil {
				t.Fatal(err)
			}
			want := plain.Network.DPI(tol)
			label := eng.String()
			ge, we := got.Network.Edges(), want.Edges()
			if len(ge) != len(we) {
				t.Fatalf("%s tol=%v: %d edges, sequential kept %d", label, tol, len(ge), len(we))
			}
			for x := range ge {
				if ge[x] != we[x] {
					t.Fatalf("%s tol=%v: edge %d = %+v, sequential %+v", label, tol, x, ge[x], we[x])
				}
			}
			if got.DPIEdgesRemoved != got.RawEdges-got.Network.Len() {
				t.Fatalf("%s: DPIEdgesRemoved = %d, want %d",
					label, got.DPIEdgesRemoved, got.RawEdges-got.Network.Len())
			}
			if got.Timer.Get("dpi") < 0 {
				t.Fatalf("%s: missing dpi phase timing", label)
			}
		}
	}
}

// TestDPIScheduleGoldenFailureHeavy pins the DPI test schedule where
// it has the most to get wrong: at Alpha 0.5 about half of all pairs
// clear the threshold and most of those fail their permutation test,
// so many candidate triangles hold a failed edge. For both tolerances,
// every engine and 1, 2 and 4 workers, the DPI run must emit exactly
// Network.DPI over the network of a DPI-off run — the full tested set —
// while testing fewer survivors than it.
func TestDPIScheduleGoldenFailureHeavy(t *testing.T) {
	d := expr.MustGenerate(expr.GenConfig{Genes: 32, Experiments: 60, RootFraction: 0.5, Noise: 0.2, Seed: 21})
	base := Config{Seed: 21, Permutations: 8, Alpha: 0.5, TileSize: 8, Workers: 1}
	plain, err := Infer(d.Expr, base)
	if err != nil {
		t.Fatal(err)
	}
	if failed := plain.PairsTested - int64(plain.RawEdges); failed <= int64(plain.RawEdges) {
		t.Fatalf("%d of %d tested survivors failed; the case is not failure-heavy", failed, plain.PairsTested)
	}
	for _, tol := range []float64{0, DefaultDPITolerance} {
		want := plain.Network.DPI(tol)
		for _, eng := range []EngineKind{Host, Phi, Cluster, Hybrid, OutOfCore} {
			for _, workers := range []int{1, 2, 4} {
				cfg := base
				cfg.Engine, cfg.Workers, cfg.Ranks = eng, workers, workers
				cfg.DPI, cfg.DPITolerance = true, tol
				got, err := Infer(d.Expr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%v tol=%v workers=%d", eng, tol, workers)
				ge, we := got.Network.Edges(), want.Edges()
				if len(ge) != len(we) {
					t.Fatalf("%s: %d edges, DPI over the full tested set keeps %d", label, len(ge), len(we))
				}
				for x := range ge {
					if ge[x] != we[x] {
						t.Fatalf("%s: edge %d = %+v, full tested set %+v", label, x, ge[x], we[x])
					}
				}
				if got.PairsSurvived != plain.PairsSurvived || got.PairsTested >= plain.PairsTested {
					t.Fatalf("%s: tested %d of %d survivors, DPI off tests %d", label, got.PairsTested, got.PairsSurvived, plain.PairsTested)
				}
			}
		}
	}
}

// TestCMIGoldenAllEngines: the opt-in CMI successor filter must keep
// exactly the edges the sequential mi.CMIFilter reference keeps, fed
// with the same rank-normalized rows, on the resident and out-of-core
// paths alike.
func TestCMIGoldenAllEngines(t *testing.T) {
	for _, eng := range []EngineKind{Host, Cluster, OutOfCore} {
		d := testDataset(t, 24, 60, 5)
		cfg := Config{
			Engine: eng, Bins: 10,
			Seed: 5, Permutations: 8, Workers: 4, TileSize: 8, Ranks: 2,
			DPI: true, DPITolerance: DefaultDPITolerance,
		}
		plain, err := Infer(d.Expr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		withCMI := cfg
		withCMI.CMIFilter = true
		withCMI.CMIRatio = 0.4
		got, err := Infer(d.Expr, withCMI)
		if err != nil {
			t.Fatal(err)
		}

		// Sequential reference over the post-DPI network.
		norm := d.Expr.Clone()
		norm.RankNormalize()
		rows := make([][]float32, norm.Rows())
		for i := range rows {
			rows[i] = norm.Row(i)
		}
		edges := plain.Network.Edges()
		pairs := make([][2]int, len(edges))
		for x, e := range edges {
			pairs[x] = [2]int{e.I, e.J}
		}
		remove := mi.CMIFilter(rows, pairs, plain.Network.Neighbors, withCMI.Bins, withCMI.CMIRatio)

		keep := 0
		for x, e := range edges {
			if remove[x] {
				continue
			}
			ge := got.Network.Edges()
			if keep >= len(ge) || ge[keep] != e {
				t.Fatalf("%s: surviving edge %d mismatch", eng.String(), keep)
			}
			keep++
		}
		if got.Network.Len() != keep {
			t.Fatalf("%s: kept %d edges, reference kept %d", eng.String(), got.Network.Len(), keep)
		}
		if got.CMIEdgesRemoved != len(edges)-keep {
			t.Fatalf("%s: CMIEdgesRemoved = %d, want %d", eng.String(), got.CMIEdgesRemoved, len(edges)-keep)
		}
	}
}

// TestDPIToleranceSentinel pins the Config contract: zero means strict
// DPI, negative means "unset, use the paper default", and out-of-range
// values are rejected.
func TestDPIToleranceSentinel(t *testing.T) {
	cfg := Config{DPITolerance: 0}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.DPITolerance != 0 {
		t.Fatalf("strict tolerance 0 coerced to %v", cfg.DPITolerance)
	}
	cfg = Config{DPITolerance: -1}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.DPITolerance != DefaultDPITolerance {
		t.Fatalf("unset tolerance resolved to %v, want %v", cfg.DPITolerance, DefaultDPITolerance)
	}
	cfg = Config{CMIRatio: 0}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.CMIRatio != DefaultCMIRatio {
		t.Fatalf("unset CMI ratio resolved to %v, want %v", cfg.CMIRatio, DefaultCMIRatio)
	}
}
