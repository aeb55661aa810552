package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/stats"
	"repro/internal/tile"
)

// stubRows is a row source over resident weights that counts the tiles
// two workers stage. With fail set, staging a tile fails once both
// workers are staging one; with hold set, the first tile it stages
// waits until hold records a failure.
type stubRows struct {
	staged *atomic.Int64
	fail   error
	hold   *commitLog
}

func (r *stubRows) stageTile(tile.Tile) (int, int, error) {
	r.staged.Add(1)
	if r.fail != nil {
		for r.staged.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		return 0, 0, r.fail
	}
	if r.hold != nil {
		for r.hold.err() == nil {
			time.Sleep(time.Millisecond)
		}
		r.hold = nil
	}
	return 0, 0, nil
}

func (r *stubRows) stagePair(a, b int) (int, int, error) { return a, b, nil }

// TestPoolScanStopsAtFirstTileError: when one worker's row source fails
// to stage a tile, the scan returns that error, no worker starts a tile
// after it, and the tile another worker had in flight is committed and
// flushed to the checkpoint.
func TestPoolScanStopsAtFirstTileError(t *testing.T) {
	d := testDataset(t, 40, 60, 7)
	cfg := Config{
		Seed: 2, Permutations: 6, Workers: 2, TileSize: 4,
		CheckpointPath: filepath.Join(t.TempDir(), "run.ckpt"), CheckpointEvery: 1000,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	norm := d.Expr.Clone()
	norm.RankNormalize()
	wm := precomputeWeights(t, cfg, norm)
	tiles := tile.Decompose(wm.Genes, cfg.TileSize)
	res := &Result{Timer: stats.NewTimer()}
	log, err := openLog(cfg, Fingerprint(wm.Genes, wm.Samples, cfg), len(tiles), res)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("panel load failed")
	var staged atomic.Int64
	kit := newScanKit(wm, cfg)
	kit[0].src = &stubRows{staged: &staged, fail: boom}
	kit[1].src = &stubRows{staged: &staged, hold: log}

	if err := poolScan(context.Background(), cfg, res, log, tiles, kit); !errors.Is(err, boom) {
		t.Fatalf("scan returned %v, want the row-source error", err)
	}
	if n := staged.Load(); n != 2 {
		t.Fatalf("%d tiles staged of %d, want 2: a worker started a tile after the failure", n, len(tiles))
	}
	st, err := checkpoint.LoadFile(cfg.CheckpointPath)
	if err != nil || st == nil {
		t.Fatalf("no checkpoint after the failed scan: %v", err)
	}
	if done := len(tiles) - st.Remaining(); done != 1 {
		t.Fatalf("checkpoint holds %d committed tiles, want the 1 in flight at the failure", done)
	}
}

// TestPrescreenEraCheckpointsResume: checkpoints written while scans
// still had a prescreen option carry Fingerprint.Prescreen and a
// ScreenedPerTile array. The testdata pair was written by that version
// with the option on: one finished scan and one canceled after 4 of its
// 10 tiles. Their edges are survivors that passed their test, with no
// verdict array. Both must load, validate against today's fingerprint,
// and resume on every engine, with DPI off and on, to the network an
// uninterrupted run emits, observing only the tiles they lack.
func TestPrescreenEraCheckpointsResume(t *testing.T) {
	d := testDataset(t, 32, 40, 14)
	cfg := Config{Seed: 14, Permutations: 6, Workers: 1, TileSize: 8, Ranks: 2}
	want, err := Infer(d.Expr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantDPI := &Result{Threshold: want.Threshold, Network: want.Network.DPI(DefaultDPITolerance)}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	tiles := tile.Decompose(32, cfg.TileSize)
	for _, tc := range []struct {
		file string
		done int
	}{
		{"prescreen-finished.ckpt", len(tiles)},
		{"prescreen-partial.ckpt", 4},
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"Prescreen", "ScreenedPerTile"} {
			if !bytes.Contains(raw, []byte(field)) {
				t.Fatalf("%s: fixture does not carry the %s field", tc.file, field)
			}
		}
		st, err := checkpoint.Decode(raw)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if err := st.Validate(Fingerprint(32, 40, cfg), len(tiles)); err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if done := len(tiles) - st.Remaining(); done != tc.done {
			t.Fatalf("%s: %d committed tiles, want %d", tc.file, done, tc.done)
		}
		var pendingPairs int64
		for _, ti := range st.PendingTiles() {
			pendingPairs += int64(tiles[ti].Pairs())
		}
		for _, eng := range []EngineKind{Host, Cluster, OutOfCore} {
			for _, dpi := range []bool{false, true} {
				path := filepath.Join(t.TempDir(), tc.file)
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				c := cfg
				c.Engine, c.CheckpointPath = eng, path
				c.DPI, c.DPITolerance = dpi, DefaultDPITolerance
				got, err := Infer(d.Expr, c)
				if err != nil {
					t.Fatalf("%s on %v: %v", tc.file, eng, err)
				}
				label := fmt.Sprintf("%s on %v (dpi %v)", tc.file, eng, dpi)
				if dpi {
					identicalEdges(t, label, wantDPI, got)
				} else {
					identicalEdges(t, label, want, got)
				}
				if got.PairsEvaluated != pendingPairs {
					t.Fatalf("%s: evaluated %d pairs, want the %d of the missing tiles",
						label, got.PairsEvaluated, pendingPairs)
				}
			}
		}
	}
}
