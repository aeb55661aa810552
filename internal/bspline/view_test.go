package bspline

import (
	"testing"

	"repro/internal/mat"
	"repro/internal/perm"
)

// TestFillViewMatchesPrecompute is the view path's correctness anchor:
// gathering a whole-genome precompute through a sample-index subset
// must be bitwise identical — offsets, sparse stencils, and the dense
// rows built from them — to running Precompute from scratch on the
// gathered values. The ensemble engines rely on this to share one
// precompute across bootstraps.
func TestFillViewMatchesPrecompute(t *testing.T) {
	const n, m, mSub = 12, 90, 60
	rng := perm.NewRNG(11)
	rows := make([][]float32, n)
	for g := range rows {
		rows[g] = make([]float32, m)
		for s := range rows[g] {
			rows[g][s] = float32(rng.Float64())
		}
	}
	full := mat.FromRows(rows)
	basis := MustNew(3, 10)
	src := Precompute(basis, full)
	idx := perm.SubsampleIndices(5, 2, m, mSub)

	view := NewPanelWeights(basis, n, mSub)
	// Fill twice with different index sets: the second fill must leave no
	// residue of the first.
	view.FillView(src, perm.SubsampleIndices(5, 1, m, mSub))
	view.FillView(src, idx)

	gathered := make([][]float32, n)
	for g := range gathered {
		gathered[g] = make([]float32, mSub)
		for t, s := range idx {
			gathered[g][t] = rows[g][s]
		}
	}
	want := Precompute(basis, mat.FromRows(gathered))

	if view.Genes != want.Genes || view.Samples != want.Samples {
		t.Fatalf("view dims %dx%d, want %dx%d", view.Genes, view.Samples, want.Genes, want.Samples)
	}
	view.BuildDense()
	want.BuildDense()
	k, bins := basis.Order(), basis.Bins()
	for g := 0; g < n; g++ {
		for s := 0; s < mSub; s++ {
			i := g*mSub + s
			if view.Offsets[i] != want.Offsets[i] {
				t.Fatalf("offset (%d,%d): %d vs %d", g, s, view.Offsets[i], want.Offsets[i])
			}
			for u := 0; u < k; u++ {
				if view.Sparse[i*k+u] != want.Sparse[i*k+u] {
					t.Fatalf("sparse (%d,%d,%d): %v vs %v", g, s, u, view.Sparse[i*k+u], want.Sparse[i*k+u])
				}
			}
		}
		for u := 0; u < bins; u++ {
			vr, wr := view.Dense.Row(g*bins+u), want.Dense.Row(g*bins+u)
			for s := 0; s < mSub; s++ {
				if vr[s] != wr[s] {
					t.Fatalf("dense (%d,%d,%d): %v vs %v", g, u, s, vr[s], wr[s])
				}
			}
		}
	}
}
