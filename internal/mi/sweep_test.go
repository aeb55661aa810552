package mi

import (
	"math/rand"
	"testing"

	"repro/internal/perm"
)

// randomGenes builds n genes of m samples with a mix of correlated and
// independent pairs so sweeps hit both early exits and full runs.
func randomGenes(rng *rand.Rand, n, m int) [][]float32 {
	rows := make([][]float32, n)
	for g := range rows {
		rows[g] = make([]float32, m)
		for s := range rows[g] {
			rows[g][s] = float32(rng.NormFloat64())
		}
	}
	// Correlate each even gene with its successor so some observed MIs
	// comfortably beat their permuted nulls.
	for g := 0; g+1 < n; g += 2 {
		for s := range rows[g+1] {
			rows[g+1][s] = 0.8*rows[g][s] + 0.2*rows[g+1][s]
		}
	}
	return rows
}

// TestPairBlockedBitIdentical asserts the single-pass block-scatter
// kernel reproduces the counting-sort kernel bit for bit — observed and
// permuted, across orders — which is what lets the sweep path replace
// the seed path without changing any network.
func TestPairBlockedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := randomGenes(rng, 8, 257)
	for _, order := range []int{1, 2, 3, 4} {
		e, ws := buildEstimator(t, rows, order, 10)
		pool := perm.MustNewPool(11, 257, 5)
		for i := 0; i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				want := e.PairBucketed(i, j, ws)
				got := e.PairBlocked(i, j, ws)
				if got != want {
					t.Fatalf("order %d pair (%d,%d): blocked %v != bucketed %v", order, i, j, got, want)
				}
				for p := 0; p < pool.Q(); p++ {
					want := e.PairPermutedBucketed(i, j, pool.Perm(p), ws)
					e.prepareRowKeys(i, ws)
					got := e.pairBlocked(i, j, pool.Perm(p), Float64, ws)
					if got != want {
						t.Fatalf("order %d pair (%d,%d) perm %d: blocked %v != bucketed %v", order, i, j, p, got, want)
					}
				}
			}
		}
	}
}

// TestSweepsMatchLegacyPerPermLoop asserts each sweep kernel reproduces
// the legacy early-exit loop exactly: same evaluation count, same
// survival verdict, for thresholds that exercise instant exits, partial
// sweeps, and full survivals — with and without the permuted-row cache.
func TestSweepsMatchLegacyPerPermLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rows := randomGenes(rng, 10, 193)
	for _, order := range []int{1, 3} {
		e, ws := buildEstimator(t, rows, order, 10)
		pool := perm.MustNewPool(5, 193, 12)
		perms := pool.Perms()
		cache := NewPermCache(e, perms, 4)

		legacy := func(permuted func(i, j int, p []int32) float64, i, j int, obs float64) (int, bool) {
			evals := 0
			for p := range perms {
				evals++
				if permuted(i, j, perms[p]) >= obs {
					return evals, false
				}
			}
			return evals, true
		}

		for i := 0; i < 10; i++ {
			for j := i + 1; j < 10; j++ {
				// Three observed levels: the true MI (realistic), zero
				// (immediate exit), and a huge value (full survival).
				obsLevels := []float64{e.PairBucketed(i, j, ws), 0, 1e9}
				for _, obs := range obsLevels {
					poffs, pw := cache.Gene(j)

					wantEv, wantOK := legacy(func(i, j int, p []int32) float64 {
						return e.PairPermutedBucketed(i, j, p, ws)
					}, i, j, obs)
					gotEv, gotOK := e.SweepBucketed(i, j, obs, perms, poffs, pw, ws)
					if gotEv != wantEv || gotOK != wantOK {
						t.Fatalf("order %d (%d,%d) obs=%v bucketed sweep (%d,%v) != legacy (%d,%v)",
							order, i, j, obs, gotEv, gotOK, wantEv, wantOK)
					}
					gotEv, gotOK = e.SweepBucketed(i, j, obs, perms, nil, nil, ws)
					if gotEv != wantEv || gotOK != wantOK {
						t.Fatalf("order %d (%d,%d) obs=%v uncached bucketed sweep (%d,%v) != legacy (%d,%v)",
							order, i, j, obs, gotEv, gotOK, wantEv, wantOK)
					}

					wantEv, wantOK = legacy(func(i, j int, p []int32) float64 {
						return e.PairPermutedScalar(i, j, p, ws)
					}, i, j, obs)
					gotEv, gotOK = e.SweepScalar(i, j, obs, perms, ws)
					if gotEv != wantEv || gotOK != wantOK {
						t.Fatalf("order %d (%d,%d) obs=%v scalar sweep (%d,%v) != legacy (%d,%v)",
							order, i, j, obs, gotEv, gotOK, wantEv, wantOK)
					}

					wantEv, wantOK = legacy(func(i, j int, p []int32) float64 {
						return e.PairPermutedVec(i, j, p, ws)
					}, i, j, obs)
					gotEv, gotOK = e.SweepVec(i, j, obs, perms, ws)
					if gotEv != wantEv || gotOK != wantOK {
						t.Fatalf("order %d (%d,%d) obs=%v vec sweep (%d,%v) != legacy (%d,%v)",
							order, i, j, obs, gotEv, gotOK, wantEv, wantOK)
					}
				}
			}
		}
	}
}

// TestSweepCachedMatchesUncached pins the cache transparency property:
// permuted MIs computed from cached rows are bit-identical to the
// gather-through-permutation path.
func TestSweepCachedMatchesUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	rows := randomGenes(rng, 6, 140)
	e, ws := buildEstimator(t, rows, 3, 10)
	pool := perm.MustNewPool(3, 140, 8)
	cache := NewPermCache(e, pool.Perms(), 2)
	m, k := 140, 3
	for j := 0; j < 6; j++ {
		poffs, pw := cache.Gene(j)
		for i := 0; i < 6; i++ {
			if i == j {
				continue
			}
			e.prepareRowKeys(i, ws)
			for p := 0; p < pool.Q(); p++ {
				want := e.pairBlocked(i, j, pool.Perm(p), Float64, ws)
				e.fillBlocked(i, j, nil, poffs[p*m:(p+1)*m], pw[p*m*k:(p+1)*m*k], Float64, ws)
				if got := e.finishBlocked(i, j, Float64, ws); got != want {
					t.Fatalf("pair (%d,%d) perm %d: cached %v != uncached %v", i, j, p, got, want)
				}
			}
		}
	}
}

// TestPermCacheAccounting checks hit/miss bookkeeping and eviction.
func TestPermCacheAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rows := randomGenes(rng, 5, 64)
	e, _ := buildEstimator(t, rows, 3, 10)
	pool := perm.MustNewPool(3, 64, 4)
	c := NewPermCache(e, pool.Perms(), 2)
	c.Gene(0)
	c.Gene(0)
	c.Gene(1)
	if c.Hits() != 1 || c.Misses() != 2 {
		t.Fatalf("hits=%d misses=%d, want 1/2", c.Hits(), c.Misses())
	}
	// Third distinct gene exceeds capacity 2: wholesale eviction, then
	// re-requesting gene 0 must miss again.
	c.Gene(2)
	c.Gene(0)
	if c.Misses() != 4 {
		t.Fatalf("misses=%d after eviction, want 4", c.Misses())
	}
	// Cached rows are well-formed.
	offs, w := c.Gene(3)
	if len(offs) != pool.Q()*64 || len(w) != pool.Q()*64*3 {
		t.Fatalf("entry dims offs=%d w=%d", len(offs), len(w))
	}
}

// TestJointCleanInterleaving hammers the workspace-clean invariant:
// alternating dirty kernels (vec/scalar) with the clean-maintaining
// bucketed/blocked kernels must never leak residue between calls.
func TestJointCleanInterleaving(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	rows := randomGenes(rng, 6, 120)
	e, ws := buildEstimator(t, rows, 3, 10)
	fresh := NewWorkspace(e)
	pool := perm.MustNewPool(9, 120, 3)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			// Dirty the shared workspace in different ways, then check the
			// clean-path kernels still match a fresh workspace.
			e.PairVec(i, j, ws)
			if got, want := e.PairBucketed(i, j, ws), e.PairBucketed(i, j, fresh); got != want {
				t.Fatalf("bucketed after vec (%d,%d): %v != %v", i, j, got, want)
			}
			e.PairScalar(i, j, ws)
			if got, want := e.PairBlocked(i, j, ws), e.PairBlocked(i, j, fresh); got != want {
				t.Fatalf("blocked after scalar (%d,%d): %v != %v", i, j, got, want)
			}
			e.PairPermutedVec(i, j, pool.Perm(0), ws)
			if got, want := e.PairPermutedBucketed(i, j, pool.Perm(1), ws), e.PairPermutedBucketed(i, j, pool.Perm(1), fresh); got != want {
				t.Fatalf("perm bucketed after perm vec (%d,%d): %v != %v", i, j, got, want)
			}
		}
	}
}

// TestNewEstimatorParallelMatchesSerial pins that sharded marginal
// entropies equal the serial construction exactly.
func TestNewEstimatorParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rows := randomGenes(rng, 23, 97)
	e, _ := buildEstimator(t, rows, 3, 10)
	for _, workers := range []int{2, 4, 7, 64} {
		par := NewEstimatorParallel(e.wm, workers)
		for g := 0; g < 23; g++ {
			if par.MarginalEntropy(g) != e.MarginalEntropy(g) {
				t.Fatalf("workers=%d gene %d: %v != %v", workers, g, par.MarginalEntropy(g), e.MarginalEntropy(g))
			}
		}
	}
}

// TestNullSweepsMatchPerPermutation pins the no-early-exit entry points
// the pooled-null phase runs on: every value a Null* sweep records is
// bit-identical to the per-permutation kernel of the same formulation
// and precision, across orders, even when the workspace's cached row
// keys belong to another gene.
func TestNullSweepsMatchPerPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rows := randomGenes(rng, 8, 151)
	for _, order := range []int{1, 3, 4} {
		e, ws64 := buildEstimator(t, rows, order, 10)
		ws32 := NewWorkspacePrec(e, Float32)
		perms := perm.MustNewPool(3, 151, 9).Perms()
		out := make([]float64, len(perms))
		type kernel struct {
			name string
			null func(i, j int)
			ref  func(i, j int, p []int32) float64
		}
		kernels := []kernel{
			{"bucketed", func(i, j int) { e.NullBucketed(i, j, perms, out, ws64) },
				func(i, j int, p []int32) float64 { return e.PairPermutedBucketed(i, j, p, ws64) }},
			{"scalar", func(i, j int) { e.NullScalar(i, j, perms, out, ws64) },
				func(i, j int, p []int32) float64 { return e.PairPermutedScalar(i, j, p, ws64) }},
			{"vec", func(i, j int) { e.NullVec(i, j, perms, out, ws64) },
				func(i, j int, p []int32) float64 { return e.PairPermutedVec(i, j, p, ws64) }},
			{"bucketed32", func(i, j int) { e.NullBucketed32(i, j, perms, out, ws32) },
				func(i, j int, p []int32) float64 { return e.PairPermutedBlocked32(i, j, p, ws32) }},
			{"scalar32", func(i, j int) { e.NullScalar32(i, j, perms, out, ws32) },
				func(i, j int, p []int32) float64 { return e.PairPermutedScalar32(i, j, p, ws32) }},
			{"vec32", func(i, j int) { e.NullVec32(i, j, perms, out, ws32) },
				func(i, j int, p []int32) float64 { return e.PairPermutedVec32(i, j, p, ws32) }},
		}
		for _, k := range kernels {
			// Visit pairs with i descending so consecutive sweeps change
			// the row gene.
			for i := 7; i >= 0; i-- {
				for j := 0; j < 8; j++ {
					if i == j {
						continue
					}
					k.null(i, j)
					got := append([]float64(nil), out...)
					for p := range perms {
						if want := k.ref(i, j, perms[p]); got[p] != want {
							t.Fatalf("order %d %s (%d,%d) perm %d: null sweep %v != per-permutation %v",
								order, k.name, i, j, p, got[p], want)
						}
					}
				}
			}
		}
	}
}
