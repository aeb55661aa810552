package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/diskfault"
)

// TestCrashConsistencyHarness is the durability capstone: a
// checkpointed scan crash-stopped at EVERY write boundary must leave
// the checkpoint fresh-or-valid — the resumed run never sees a torn or
// half-renamed file — and must finish bit-identical to an
// uninterrupted reference. The harness sweeps the torn-write point k
// across every write the run performs, in the observe pass and in the
// test rounds (checkpoint frames for the host engine; spill panels and
// checkpoint frames for the out-of-core engine), varying how many bytes
// of the torn write land on disk, with DPI off (every survivor tested
// as its tile is observed) and on (the DPI
// test schedule, whose rounds run after observation). Each trial runs
// against a fresh fault plan, so the schedule replays identically under
// -race and on re-runs.
func TestCrashConsistencyHarness(t *testing.T) {
	const n, m = 36, 48
	const maxWrites = 64 // trial-sweep backstop, far above any real count

	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"host", func(c *Config) {}},
		{"ooc", func(c *Config) { c.Engine = OutOfCore; c.PanelRows = 12 }},
		{"host-dpi", func(c *Config) { c.DPI, c.DPITolerance = true, DefaultDPITolerance }},
		{"ooc-dpi", func(c *Config) {
			c.Engine, c.PanelRows = OutOfCore, 12
			c.DPI, c.DPITolerance = true, DefaultDPITolerance
		}},
	}

	for _, tc := range cases {
		// Every scan computes MI in float64; the subtests keep the
		// precision in their names.
		t.Run(tc.name+"/float64", func(t *testing.T) {
			d := testDataset(t, n, m, 77)
			base := Config{Seed: 77, Permutations: 4, Workers: 2, TileSize: 12}
			tc.mut(&base)

			ref, err := Infer(d.Expr, base)
			if err != nil {
				t.Fatal(err)
			}

			boundaries, testPass := int64(0), 0
			completed := false
			for k := int64(1); k <= maxWrites; k++ {
				dir := t.TempDir()
				path := filepath.Join(dir, "run.ckpt")
				ckCfg := base
				ckCfg.CheckpointPath = path
				ckCfg.CheckpointEvery = 1
				ckCfg.SpillDir = dir

				// Crash-stop the k-th write, leaving 0, 1, or 7 bytes
				// of it behind.
				plan := &diskfault.Plan{
					Torn: &diskfault.TornSpec{K: k, Bytes: int(k % 3 * 4)},
				}
				ckCfg.FS = plan.FS(nil)
				_, err := Infer(d.Expr, ckCfg)

				if plan.Stats().TornWrites == 0 {
					// k exceeded the run's write count: the fault never
					// fired, the run must have completed cleanly, and the
					// sweep has covered every write boundary.
					if err != nil {
						t.Fatalf("k=%d: fault never fired yet run failed: %v", k, err)
					}
					completed = true
					break
				}
				boundaries = k
				if err == nil {
					t.Fatalf("k=%d: run survived a crash-stopped filesystem", k)
				}
				if !errors.Is(err, diskfault.ErrInjected) {
					t.Fatalf("k=%d: crash surfaced as %v, want the injected fault", k, err)
				}

				// Fresh-or-valid: whatever the crash left behind must
				// load cleanly (possibly as "no checkpoint") — never as
				// a corrupt file.
				st, err := checkpoint.LoadFile(path)
				if err != nil {
					t.Fatalf("k=%d: checkpoint after crash not fresh-or-valid: %v", k, err)
				}
				if st != nil && st.Remaining() == 0 {
					testPass++ // crashed in the test pass: every tile observed
				}

				// Resume on a healthy filesystem: bit-identical network,
				// and no corruption recovery needed.
				ckCfg.FS = nil
				res, err := Infer(d.Expr, ckCfg)
				if err != nil {
					t.Fatalf("k=%d: resume failed: %v", k, err)
				}
				if res.CheckpointRecoveries != 0 {
					t.Fatalf("k=%d: resume recovered from %d corrupt checkpoints; crash should leave none",
						k, res.CheckpointRecoveries)
				}
				identicalEdges(t, "crash resume", ref, res)
			}
			if !completed {
				t.Fatalf("run performs more than %d writes; raise the harness backstop", maxWrites)
			}
			// A vacuous sweep (no write ever torn) would mean Config.FS
			// is no longer threaded into persistence — the harness must
			// have crashed at several real boundaries.
			if boundaries < 3 {
				t.Fatalf("swept only %d write boundaries; the fault seam is not wired", boundaries)
			}
			if base.DPI && testPass == 0 {
				t.Fatal("no crash landed in the test pass")
			}
			t.Logf("swept %d write boundaries, %d in the test pass", boundaries, testPass)
		})
	}
}

// BenchmarkCheckpointDurability prices the durability machinery: the
// same host scan with no persistence versus checkpointing after every
// tile, where each checkpoint is CRC-framed, written once, fsynced,
// rotated, renamed, and the directory fsynced. The ratio between the
// two sub-benchmarks is the overhead quoted in EXPERIMENTS.md.
func BenchmarkCheckpointDurability(b *testing.B) {
	d := testDataset(b, 100, 128, 1)
	base := Config{Seed: 1, Permutations: 10, Workers: 4, TileSize: 32}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Infer(d.Expr, base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ckpt-every-tile", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "run.ckpt")
		cfg := base
		cfg.CheckpointPath = path
		cfg.CheckpointEvery = 1
		for i := 0; i < b.N; i++ {
			// A finished checkpoint would turn the next iteration into a
			// no-op resume; measure full scans only.
			checkpoint.Remove(path)
			if _, err := Infer(d.Expr, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestEngineCorruptCheckpointFreshStart pins the engine-level policy
// for damage the rotation cannot mask: when the checkpoint AND its
// rotated fallback both fail verification, every engine discards them,
// counts the recovery, recomputes from scratch, and still produces the
// reference network — corruption costs work, never the result.
func TestEngineCorruptCheckpointFreshStart(t *testing.T) {
	const n, m = 24, 48
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"host", func(c *Config) {}},
		{"ooc", func(c *Config) { c.Engine = OutOfCore; c.PanelRows = 8 }},
		{"cluster", func(c *Config) { c.Engine = Cluster; c.Ranks = 3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := testDataset(t, n, m, 55)
			base := Config{Seed: 55, Permutations: 6, Workers: 2, TileSize: 8}
			tc.mut(&base)

			ref, err := Infer(d.Expr, base)
			if err != nil {
				t.Fatal(err)
			}

			// Plant garbage at the checkpoint path and its rotation.
			dir := t.TempDir()
			path := filepath.Join(dir, "run.ckpt")
			for _, p := range []string{path, checkpoint.PrevPath(path)} {
				if err := os.WriteFile(p, []byte("TNGC not a checkpoint at all"), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			ckCfg := base
			ckCfg.CheckpointPath = path
			ckCfg.SpillDir = dir
			res, err := Infer(d.Expr, ckCfg)
			if err != nil {
				t.Fatalf("corrupt checkpoint failed the run: %v", err)
			}
			if res.CheckpointRecoveries != 1 {
				t.Fatalf("CheckpointRecoveries = %d, want 1", res.CheckpointRecoveries)
			}
			identicalEdges(t, "fresh start", ref, res)
		})
	}
}
