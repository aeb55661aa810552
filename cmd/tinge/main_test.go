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

// TestRetiredFlagsAreUsageErrors requires the flags of retired options
// to fail the parse like any unknown flag, a usage error on which main
// exits 2, before any input is read.
func TestRetiredFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-precision", "float32"},
		{"-kernel", "vec"},
		{"-prescreen"},
	} {
		err := run(context.Background(), append([]string{"-in", "missing.tsv"}, args...), io.Discard, io.Discard)
		var ue usageError
		if !errors.As(err, &ue) {
			t.Fatalf("%v: run = %v, want a usage error", args, err)
		}
	}
}
