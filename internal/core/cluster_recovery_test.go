package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
)

// recoveryConfig is a cluster config big enough that every rank owns
// several tiles and a mid-scan kill leaves real pending work.
func recoveryConfig(ranks int) Config {
	return Config{
		Engine:       Cluster,
		Ranks:        ranks,
		Seed:         17,
		Permutations: 10,
		TileSize:     4,
		Workers:      1,
	}
}

func inferBounded(t *testing.T, cfg Config, genes, samples int, seed uint64) (*Result, error) {
	t.Helper()
	d := testDataset(t, genes, samples, seed)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := InferContext(ctx, d.Expr, cfg)
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("cluster run hung: recovery did not terminate")
	}
	return res, err
}

// TestClusterRecoveryKillDuringTileScan is the acceptance chaos test:
// a rank is killed mid-scan (phase 4), the engine recovers on the
// surviving ranks, and the network is bit-identical to the fault-free
// run.
func TestClusterRecoveryKillDuringTileScan(t *testing.T) {
	clean := recoveryConfig(4)
	ref, err := inferBounded(t, clean, 32, 100, 77)
	if err != nil {
		t.Fatal(err)
	}

	faulty := recoveryConfig(4)
	faulty.Fault = &mpi.FaultPlan{
		Seed: 1,
		Kill: &mpi.KillSpec{Rank: 2, Phase: "tile-scan"},
	}
	got, err := inferBounded(t, faulty, 32, 100, 77)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}

	if !sameEdges(ref.Network, got.Network) {
		t.Fatal("recovered network differs from fault-free network")
	}
	if got.Threshold != ref.Threshold {
		t.Fatalf("threshold drifted: %v vs %v", got.Threshold, ref.Threshold)
	}
	if got.RankFailures != 1 || got.RecoveryRuns != 1 {
		t.Fatalf("counters = %d failures / %d recoveries, want 1/1",
			got.RankFailures, got.RecoveryRuns)
	}
	if got.RecoveredTiles <= 0 {
		t.Fatalf("RecoveredTiles = %d, want > 0 (kill fired before the scan)", got.RecoveredTiles)
	}
	if kills := faulty.Fault.Stats().Kills; kills != 1 {
		t.Fatalf("fault kills = %d, want exactly 1 (recovery must not re-kill)", kills)
	}
}

// TestClusterRecoveryKillDuringNullPool kills during phase 3, before
// any tile commits: recovery re-runs everything on the survivors and
// the threshold (committed or not) stays seed-deterministic.
func TestClusterRecoveryKillDuringNullPool(t *testing.T) {
	clean := recoveryConfig(3)
	ref, err := inferBounded(t, clean, 24, 80, 41)
	if err != nil {
		t.Fatal(err)
	}

	faulty := recoveryConfig(3)
	faulty.Fault = &mpi.FaultPlan{
		Seed: 2,
		Kill: &mpi.KillSpec{Rank: 1, Phase: "null-pool"},
	}
	got, err := inferBounded(t, faulty, 24, 80, 41)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if !sameEdges(ref.Network, got.Network) {
		t.Fatal("recovered network differs from fault-free network")
	}
	if got.Threshold != ref.Threshold {
		t.Fatalf("threshold drifted: %v vs %v", got.Threshold, ref.Threshold)
	}
	if got.RecoveryRuns != 1 {
		t.Fatalf("RecoveryRuns = %d, want 1", got.RecoveryRuns)
	}
}

// TestClusterRecoveryKillAfterSends exercises the send-count trigger
// path (rather than the phase trigger) end to end through the engine.
func TestClusterRecoveryKillAfterSends(t *testing.T) {
	clean := recoveryConfig(3)
	ref, err := inferBounded(t, clean, 24, 80, 55)
	if err != nil {
		t.Fatal(err)
	}

	faulty := recoveryConfig(3)
	faulty.Fault = &mpi.FaultPlan{
		Seed: 3,
		// Ranks send only inside collectives here, so the budget must be
		// small: die on the second send (the phase-3 Allgatherv fan-in
		// survives, the phase-4 gather does not).
		Kill: &mpi.KillSpec{Rank: 1, AfterSends: 1},
	}
	got, err := inferBounded(t, faulty, 24, 80, 55)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if !sameEdges(ref.Network, got.Network) {
		t.Fatal("recovered network differs from fault-free network")
	}
	if got.RankFailures != 1 {
		t.Fatalf("RankFailures = %d, want 1", got.RankFailures)
	}
}

// TestClusterRecoveryDisabled: MaxRecoveries -1 surfaces the
// rank-attributed AbortError instead of recovering.
func TestClusterRecoveryDisabled(t *testing.T) {
	cfg := recoveryConfig(3)
	cfg.MaxRecoveries = -1
	cfg.Fault = &mpi.FaultPlan{
		Seed: 4,
		Kill: &mpi.KillSpec{Rank: 1, Phase: "tile-scan"},
	}
	_, err := inferBounded(t, cfg, 24, 80, 55)
	var ab *mpi.AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("err = %v, want *mpi.AbortError", err)
	}
	if ab.Rank != 1 {
		t.Fatalf("abort rank = %d, want 1", ab.Rank)
	}
	if !errors.Is(err, mpi.ErrInjected) {
		t.Fatalf("cause should unwrap to ErrInjected, got %v", err)
	}
}

// TestClusterRecoveryBudgetExhausted: two distinct plans kill two
// ranks across attempts but the budget allows only one recovery.
func TestClusterRecoveryBudgetExhausted(t *testing.T) {
	// With the default budget (Ranks-1) the single-kill plan recovers.
	def := recoveryConfig(3)
	def.Fault = &mpi.FaultPlan{Seed: 5, Kill: &mpi.KillSpec{Rank: 2, Phase: "tile-scan"}}
	if _, err := inferBounded(t, def, 24, 80, 13); err != nil {
		t.Fatalf("default budget should recover: %v", err)
	}
	// With recovery disabled the identical plan surfaces the failure.
	cfg := recoveryConfig(3)
	cfg.MaxRecoveries = -1
	cfg.Fault = &mpi.FaultPlan{Seed: 5, Kill: &mpi.KillSpec{Rank: 2, Phase: "tile-scan"}}
	if _, err := inferBounded(t, cfg, 24, 80, 13); err == nil {
		t.Fatal("disabled budget should surface the failure")
	}
}

// TestClusterCancellationMidScan: canceling the context mid-scan must
// return context.Canceled promptly, not recover forever.
func TestClusterCancellationMidScan(t *testing.T) {
	d := testDataset(t, 32, 100, 23)
	cfg := recoveryConfig(4)
	// Slow every send on rank 1 so cancellation lands mid-run.
	cfg.Fault = &mpi.FaultPlan{Seed: 6, SlowRank: 1, SlowDelay: 20 * time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := InferContext(ctx, d.Expr, cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("cancellation did not unblock the cluster engine")
	}
}

// TestClusterMalformedGather corrupts one rank's flat edge payload; the
// root must detect it and the world must abort, not hang or panic.
func TestClusterMalformedGather(t *testing.T) {
	corruptGatherForTest = func(rank int, flat []float64) []float64 {
		if rank == 1 {
			return append(flat, 1.0) // len % 3 != 0
		}
		return flat
	}
	defer func() { corruptGatherForTest = nil }()

	cfg := recoveryConfig(3)
	cfg.MaxRecoveries = -1
	_, err := inferBounded(t, cfg, 24, 80, 37)
	if err == nil {
		t.Fatal("malformed gather should error")
	}
	var ab *mpi.AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("err = %v, want *mpi.AbortError", err)
	}
	if ab.Rank != 0 {
		t.Fatalf("abort rank = %d, want 0 (root detects the corruption)", ab.Rank)
	}
	if want := "malformed edge gather"; ab.Cause == nil || !strings.Contains(ab.Cause.Error(), want) {
		t.Fatalf("cause = %v, want it to mention %q", ab.Cause, want)
	}
}

// TestClusterFaultDisabledGoldenUnchanged: a nil FaultPlan and a
// zero-valued plan both leave the cluster network identical to the
// host engine's (the cross-engine golden contract).
func TestClusterFaultDisabledGoldenUnchanged(t *testing.T) {
	d := testDataset(t, 24, 80, 67)
	host := Config{Seed: 3, Permutations: 8, TileSize: 4, Workers: 2}
	href, err := Infer(d.Expr, host)
	if err != nil {
		t.Fatal(err)
	}
	cl := recoveryConfig(3)
	cl.Seed = 3
	cl.Permutations = 8
	cl.Fault = &mpi.FaultPlan{} // zero plan: no kill, no delay, no drop
	cres, err := Infer(d.Expr, cl)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEdges(href.Network, cres.Network) {
		t.Fatal("cluster with inert fault plan differs from host network")
	}
	if cres.RankFailures != 0 || cres.RecoveryRuns != 0 || cres.RecoveredTiles != 0 {
		t.Fatalf("inert plan bumped counters: %+v", cres)
	}
}

// TestClusterRecoveryWithCheckpointFile: recovery and file
// checkpointing compose — the killed run persists committed tiles and
// the recovered result still matches the reference.
func TestClusterRecoveryWithCheckpointFile(t *testing.T) {
	clean := recoveryConfig(3)
	ref, err := inferBounded(t, clean, 24, 80, 29)
	if err != nil {
		t.Fatal(err)
	}

	cfg := recoveryConfig(3)
	cfg.CheckpointPath = t.TempDir() + "/run.ckpt"
	cfg.Fault = &mpi.FaultPlan{Seed: 8, Kill: &mpi.KillSpec{Rank: 1, Phase: "tile-scan"}}
	got, err := inferBounded(t, cfg, 24, 80, 29)
	if err != nil {
		t.Fatalf("recovery with checkpoint failed: %v", err)
	}
	if !sameEdges(ref.Network, got.Network) {
		t.Fatal("checkpointed recovery network differs")
	}
}

// TestClusterRecoveryKillDuringTestScan kills a rank in the test pass
// of a DPI run: the engine re-runs the round's pending test tiles on
// the survivors, and the network is bit-identical to the fault-free
// run's and to the host engine's.
func TestClusterRecoveryKillDuringTestScan(t *testing.T) {
	clean := recoveryConfig(4)
	clean.DPI, clean.DPITolerance = true, DefaultDPITolerance
	ref, err := inferBounded(t, clean, 32, 100, 77)
	if err != nil {
		t.Fatal(err)
	}
	host := clean
	host.Engine = Host
	hostRes, err := inferBounded(t, host, 32, 100, 77)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEdges(ref.Network, hostRes.Network) {
		t.Fatal("fault-free cluster network differs from the host engine's")
	}

	faulty := clean
	faulty.Fault = &mpi.FaultPlan{Seed: 1, Kill: &mpi.KillSpec{Rank: 2, Phase: "test-scan"}}
	got, err := inferBounded(t, faulty, 32, 100, 77)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if !sameEdges(ref.Network, got.Network) {
		t.Fatal("recovered network differs from fault-free network")
	}
	if got.RankFailures != 1 || got.RecoveryRuns != 1 || got.RecoveredTiles <= 0 {
		t.Fatalf("counters = %d failures / %d recoveries / %d recovered tiles, want 1/1/>0",
			got.RankFailures, got.RecoveryRuns, got.RecoveredTiles)
	}
	if got.PairsTested != ref.PairsTested || got.PermEvaluations < ref.PermEvaluations {
		t.Fatalf("recovered run tested %d pairs (%d permutations), fault-free %d (%d)",
			got.PairsTested, got.PermEvaluations, ref.PairsTested, ref.PermEvaluations)
	}
	if kills := faulty.Fault.Stats().Kills; kills != 1 {
		t.Fatalf("fault kills = %d, want exactly 1", kills)
	}
}
