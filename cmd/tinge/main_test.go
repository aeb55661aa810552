package main

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/tinge"
)

// TestRunCancelRemovesSpill cancels an out-of-core run: run must
// return an error wrapping context.Canceled and, on the way out, close
// the panel store so its spill file leaves -spill-dir.
func TestRunCancelRemovesSpill(t *testing.T) {
	in := filepath.Join(t.TempDir(), "expr.tsv")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	d := tinge.MustGenerate(tinge.GenConfig{Genes: 40, Experiments: 30, AvgRegulators: 2, Noise: 0.1, Seed: 1})
	if err := d.WriteTSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	spill := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = run(ctx, []string{"-in", in, "-engine", "ooc", "-spill-dir", spill, "-permutations", "4", "-workers", "2"}, io.Discard, io.Discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run = %v, want an error wrapping context.Canceled", err)
	}
	left, err := os.ReadDir(spill)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("spill dir holds %d files after the cancelled run, first %s", len(left), left[0].Name())
	}
}
