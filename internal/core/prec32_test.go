package core

import (
	"math"
	"path/filepath"
	"testing"
)

// edgeIdenticalWithin requires the two results to carry the identical
// edge set (same pairs in the same order) with MI weights agreeing
// within tol bits. It is the engine-level contract of the float32 path:
// edge decisions are exact, MI values drift only by float32 roundoff.
func edgeIdenticalWithin(t *testing.T, label string, f64, f32 *Result, tol float64) {
	t.Helper()
	ae, be := f64.Network.Edges(), f32.Network.Edges()
	if len(ae) != len(be) {
		t.Fatalf("%s: float64 %d edges, float32 %d edges", label, len(ae), len(be))
	}
	for k := range ae {
		if ae[k].I != be[k].I || ae[k].J != be[k].J {
			t.Fatalf("%s: edge %d is (%d,%d) in float64, (%d,%d) in float32",
				label, k, ae[k].I, ae[k].J, be[k].I, be[k].J)
		}
		if d := math.Abs(ae[k].Weight - be[k].Weight); d > tol {
			t.Fatalf("%s: edge %d MI drift %g > %g (float64 %v, float32 %v)",
				label, k, d, tol, ae[k].Weight, be[k].Weight)
		}
	}
}

// f32GoldenTolerance is the documented engine-level MI tolerance between
// the float64 and float32 paths at the default order-3/10-bin settings:
// the kernels consume identical float32 weight products, so the drift is
// pure accumulation/log roundoff, empirically < 2e-5 bits on the seeded
// reference networks. 1e-4 gives an order-of-magnitude margin while
// staying far below any edge-decision gap.
const f32GoldenTolerance = 1e-4

// TestFloat32GoldenEdgeIdentical is the golden precision test: on the
// seeded reference dataset the float32 path must produce the identical
// edge set to float64 at the default B-spline settings, across all four
// engines, with MI weights within the documented tolerance. The
// pooled-null threshold is derived from each path's own MI values, so
// it is float-path-specific — but given the seed both paths sample the
// same pairs and the same permutations, so the edge decisions coincide.
func TestFloat32GoldenEdgeIdentical(t *testing.T) {
	engines := []EngineKind{Host, Phi, Cluster, Hybrid}
	for _, seed := range []uint64{1, 2} {
		d := testDataset(t, 20, 60, seed)
		for _, eng := range engines {
			cfg := Config{Engine: eng, Seed: seed, Permutations: 8, Workers: 4, TileSize: 8, Ranks: 2}
			want, err := Infer(d.Expr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg32 := cfg
			cfg32.Precision = Float32
			got, err := Infer(d.Expr, cfg32)
			if err != nil {
				t.Fatal(err)
			}
			label := eng.String()
			edgeIdenticalWithin(t, label, want, got, f32GoldenTolerance)
			if math.Abs(want.Threshold-got.Threshold) > f32GoldenTolerance {
				t.Fatalf("%s: threshold drift %v vs %v", label, want.Threshold, got.Threshold)
			}
		}
	}
}

// TestFloat32PeakTileBytesSmaller pins the footprint claim: the float32
// path's per-worker tile working set must be strictly below float64's
// (the joint accumulator halves; everything else is shared).
func TestFloat32PeakTileBytesSmaller(t *testing.T) {
	d := testDataset(t, 24, 64, 3)
	for _, eng := range []EngineKind{Host, Cluster} {
		cfg := Config{Engine: eng, Seed: 3, Permutations: 8, Workers: 2, TileSize: 8, Ranks: 2}
		r64, err := Infer(d.Expr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Precision = Float32
		r32, err := Infer(d.Expr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r64.PeakTileBytes == 0 || r32.PeakTileBytes == 0 {
			t.Fatalf("%s: PeakTileBytes not reported (f64 %d, f32 %d)",
				eng, r64.PeakTileBytes, r32.PeakTileBytes)
		}
		if r32.PeakTileBytes >= r64.PeakTileBytes {
			t.Fatalf("%s: float32 peak tile bytes %d >= float64 %d",
				eng, r32.PeakTileBytes, r64.PeakTileBytes)
		}
	}
}

// TestFloat32DeterministicAcrossEngines pins that all four engines emit
// the bit-identical float32 network for one seed (the same invariant the
// float64 path holds).
func TestFloat32DeterministicAcrossEngines(t *testing.T) {
	d := testDataset(t, 18, 50, 7)
	var ref *Result
	for _, eng := range []EngineKind{Host, Phi, Cluster, Hybrid} {
		cfg := Config{
			Engine: eng, Precision: Float32,
			Seed: 7, Permutations: 6, Workers: 3, TileSize: 6, Ranks: 2,
		}
		res, err := Infer(d.Expr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		identicalNetworks(t, "float32/"+eng.String(), res, ref)
	}
}

// TestFloat32CheckpointIsolated verifies a float64 checkpoint cannot be
// resumed by a float32 run: the fingerprints must differ, surfacing a
// mismatch error instead of silently blending two estimators.
func TestFloat32CheckpointIsolated(t *testing.T) {
	d := testDataset(t, 12, 40, 5)
	path := filepath.Join(t.TempDir(), "scan.ckpt")
	cfg := Config{Seed: 5, Permutations: 4, Workers: 2, TileSize: 4, CheckpointPath: path, CheckpointEvery: 1}
	if _, err := Infer(d.Expr, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Precision = Float32
	if _, err := Infer(d.Expr, cfg); err == nil {
		t.Fatal("float32 run resumed a float64 checkpoint without error")
	}
}
