package core

import (
	"context"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/tile"
)

// minOOCBudget is MinMemoryBudget with test plumbing: a run configured
// with exactly this budget is admissible but leaves the store zero
// slack beyond its pin floor, so every tile load round-trips the spill
// file. Cross-checked against oocScan's own accounting by
// TestOutOfCoreTinyBudgetRoundTrips accepting the budget.
func minOOCBudget(t testing.TB, cfg Config, n, m int) int64 {
	t.Helper()
	b, err := MinMemoryBudget(n, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// identicalEdges is identicalNetworks minus the PairsEvaluated check:
// a resumed run re-scans only uncommitted tiles, so its evaluation
// count is legitimately below the uninterrupted reference's even though
// the emitted network is bit-identical.
func identicalEdges(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Threshold != b.Threshold {
		t.Fatalf("%s: threshold %v != %v", label, a.Threshold, b.Threshold)
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

// TestOutOfCoreGoldenEquivalence is the tentpole pin: the out-of-core
// engine must be bit-identical — same threshold, same pair count, same
// edges with bitwise-equal MI weights — to every resident engine,
// across seeds. The OOC path re-derives each tile's ranks and weights
// from raw spilled rows, so any drift in that rebuild (normalization
// order, weight layout, stale caches) fails here.
func TestOutOfCoreGoldenEquivalence(t *testing.T) {
	engines := []EngineKind{Host, Phi, Hybrid}
	for _, seed := range []uint64{1, 2, 3} {
		d := testDataset(t, 20, 60, seed)
		for _, eng := range engines {
			cfg := Config{Engine: eng, Seed: seed, Permutations: 8, Workers: 4, TileSize: 8, Ranks: 2}
			want, err := Infer(d.Expr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			oocCfg := cfg
			oocCfg.Engine = OutOfCore
			got, err := Infer(d.Expr, oocCfg)
			if err != nil {
				t.Fatal(err)
			}
			identicalNetworks(t, "ooc vs "+eng.String(), want, got)
		}
	}
}

// TestOutOfCoreTinyBudgetRoundTrips runs at the minimum admissible
// budget, so the store can keep nothing resident beyond its pin floor:
// every tile load must miss and every release must evict. The network
// must still be bit-identical to the resident Host run, and the
// reported peak must respect the configured ceiling.
func TestOutOfCoreTinyBudgetRoundTrips(t *testing.T) {
	d := testDataset(t, 40, 60, 7)
	cfg := Config{
		Engine: OutOfCore,
		Seed:   7, Permutations: 8, Workers: 2, TileSize: 8, PanelRows: 8,
	}
	cfg.MemoryBudget = minOOCBudget(t, cfg, 40, 60)

	hostCfg := cfg
	hostCfg.Engine = Host
	hostCfg.MemoryBudget = 0
	want, err := Infer(d.Expr, hostCfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Infer(d.Expr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	identicalNetworks(t, "tiny-budget ooc", want, got)

	if got.PanelLoads == 0 {
		t.Fatal("tiny budget run performed no panel loads from the spill file")
	}
	if got.PanelEvictions == 0 {
		t.Fatal("tiny budget run evicted nothing; store held panels beyond its budget")
	}
	if got.StorePeakBytes <= 0 {
		t.Fatalf("StorePeakBytes = %d, want > 0", got.StorePeakBytes)
	}
	if got.PeakTileBytes > cfg.MemoryBudget {
		t.Fatalf("PeakTileBytes %d exceeds configured budget %d", got.PeakTileBytes, cfg.MemoryBudget)
	}
}

// TestHostMemoryBudgetMode: Engine=Host with MemoryBudget > 0 is the
// same out-of-core scan under the Host engine name, and must match the
// explicit OutOfCore engine bit for bit.
func TestHostMemoryBudgetMode(t *testing.T) {
	d := testDataset(t, 24, 60, 11)
	cfg := Config{
		Engine: OutOfCore,
		Seed:   11, Permutations: 6, Workers: 2, TileSize: 8,
	}
	ooc, err := Infer(d.Expr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hostCfg := cfg
	hostCfg.Engine = Host
	hostCfg.MemoryBudget = 64 << 20
	budgeted, err := Infer(d.Expr, hostCfg)
	if err != nil {
		t.Fatal(err)
	}
	identicalNetworks(t, "host+budget vs ooc", ooc, budgeted)
	// With a generous budget every spilled panel stays resident from
	// ingest, so tile pins are hits rather than re-loads — but they must
	// go through the store either way.
	if budgeted.PanelHits+budgeted.PanelLoads == 0 {
		t.Fatal("host budget mode never touched the panel store")
	}

	resident, err := Infer(d.Expr, Config{Seed: 11, Permutations: 6, Workers: 2, TileSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	identicalNetworks(t, "host+budget vs resident host", resident, budgeted)
}

// TestOutOfCoreBudgetTooSmall: a budget below the worker-scratch +
// pin-floor minimum must fail fast with a sizing message, not thrash or
// silently exceed the ceiling.
func TestOutOfCoreBudgetTooSmall(t *testing.T) {
	d := testDataset(t, 24, 60, 3)
	cfg := Config{
		Engine: OutOfCore,
		Seed:   3, Permutations: 6, Workers: 2, TileSize: 8,
		MemoryBudget: 4096,
	}
	_, err := Infer(d.Expr, cfg)
	if err == nil {
		t.Fatal("4KiB budget should be rejected")
	}
	if !strings.Contains(err.Error(), "memory budget") || !strings.Contains(err.Error(), "minimum") {
		t.Fatalf("error %q does not explain the minimum budget", err)
	}
}

// TestOutOfCoreWholeGenomeBudget is the acceptance run: n=2000 genes
// under a memory budget strictly smaller than the resident expression
// matrix, completing edge-identical to the resident Host engine with
// the reported peak under the configured ceiling.
func TestOutOfCoreWholeGenomeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-genome acceptance run skipped in -short mode")
	}
	const n, m = 2000, 64
	d := testDataset(t, n, m, 17)
	cfg := Config{
		Engine: OutOfCore,
		Seed:   17, Permutations: 5, NullSamplePairs: 50,
		Workers: 1, TileSize: 16, PanelRows: 16,
	}
	budget := minOOCBudget(t, cfg, n, m)
	residentBytes := int64(n) * int64(m) * 4
	if budget >= residentBytes {
		t.Fatalf("minimum OOC budget %d not below resident matrix %d bytes; out-of-core footprint regressed", budget, residentBytes)
	}
	cfg.MemoryBudget = budget

	hostCfg := Config{Seed: 17, Permutations: 5, NullSamplePairs: 50, Workers: 1, TileSize: 16}
	want, err := Infer(d.Expr, hostCfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Infer(d.Expr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	identicalNetworks(t, "whole-genome ooc", want, got)
	if got.PeakTileBytes > cfg.MemoryBudget {
		t.Fatalf("PeakTileBytes %d exceeds budget %d", got.PeakTileBytes, cfg.MemoryBudget)
	}
	if got.PanelLoads == 0 || got.PanelEvictions == 0 {
		t.Fatalf("run under resident size never spilled: loads=%d evictions=%d", got.PanelLoads, got.PanelEvictions)
	}
}

// TestOutOfCoreCheckpointResume composes the OOC engine with the
// checkpoint subsystem: a run killed mid-scan resumes bit-identical,
// and a run over a completed checkpoint performs zero panel reads —
// committed tiles are never re-read from the store.
func TestOutOfCoreCheckpointResume(t *testing.T) {
	const n, m = 40, 60
	d := testDataset(t, n, m, 23)
	base := Config{
		Engine: OutOfCore,
		Seed:   23, Permutations: 8, Workers: 2, TileSize: 4, PanelRows: 8,
	}

	ref, err := Infer(d.Expr, base)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "ooc.ckpt")
	ckCfg := base
	ckCfg.CheckpointPath = path
	ckCfg.CheckpointEvery = 4
	ctx, cancel := context.WithCancel(context.Background())
	var done int64
	ckCfg.Progress = func(d, total int) {
		if atomic.AddInt64(&done, 1) == 10 {
			cancel()
		}
	}
	if _, err := InferContext(ctx, d.Expr, ckCfg); err != context.Canceled {
		t.Fatalf("interrupted run err = %v, want Canceled", err)
	}

	st, err := checkpoint.LoadFile(path)
	if err != nil || st == nil {
		t.Fatalf("checkpoint missing: %v, %v", st, err)
	}
	totalTiles := len(tile.Decompose(n, base.TileSize))
	if st.Remaining() == 0 || st.Remaining() == totalTiles {
		t.Fatalf("Remaining = %d of %d, want partial", st.Remaining(), totalTiles)
	}

	ckCfg.Progress = nil
	res, err := Infer(d.Expr, ckCfg)
	if err != nil {
		t.Fatal(err)
	}
	identicalEdges(t, "ooc resume", ref, res)

	// Finished checkpoint: no tile work, and — the OOC-specific half of
	// the contract — no panel store traffic at all.
	res2, err := Infer(d.Expr, ckCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.PairsEvaluated != 0 {
		t.Fatalf("completed checkpoint re-evaluated %d pairs", res2.PairsEvaluated)
	}
	if res2.PanelHits+res2.PanelLoads != 0 {
		t.Fatalf("completed checkpoint re-read the store: hits=%d loads=%d", res2.PanelHits, res2.PanelLoads)
	}
	identicalEdges(t, "ooc finished-checkpoint", ref, res2)
}

// TestOutOfCoreResumesHostCheckpoint pins the shared fingerprint: a
// checkpoint written by the resident Host engine is byte-compatible
// with the OOC engine, which reproduces the network from it without
// touching the spill file.
func TestOutOfCoreResumesHostCheckpoint(t *testing.T) {
	d := testDataset(t, 24, 60, 31)
	path := filepath.Join(t.TempDir(), "host.ckpt")
	hostCfg := Config{
		Seed: 31, Permutations: 6, Workers: 2, TileSize: 8,
		CheckpointPath: path,
	}
	want, err := Infer(d.Expr, hostCfg)
	if err != nil {
		t.Fatal(err)
	}
	oocCfg := hostCfg
	oocCfg.Engine = OutOfCore
	got, err := Infer(d.Expr, oocCfg)
	if err != nil {
		t.Fatal(err)
	}
	identicalEdges(t, "ooc over host checkpoint", want, got)
	if got.PanelHits+got.PanelLoads != 0 {
		t.Fatalf("finished host checkpoint caused panel reads: hits=%d loads=%d", got.PanelHits, got.PanelLoads)
	}
}
