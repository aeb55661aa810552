package mi

import (
	"fmt"
	"math"
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
// the seed path without changing any network. Besides a random fixture
// it runs the degenerate shapes: m = 1, m at the order × bins floor,
// bins == order (a single bucket), and certRows' constant, two-valued
// and heavily tied rows.
func TestPairBlockedBitIdentical(t *testing.T) {
	fixtures := []struct {
		n, m, bins int
		rows       func(rng *rand.Rand, n, m int) [][]float32
	}{
		{8, 257, 10, randomGenes},
		{6, 1, 10, certRows},
		{6, 30, 10, certRows},
		{6, 50, 0, certRows}, // bins = order
		{8, 211, 10, certRows},
	}
	for _, f := range fixtures {
		rows := f.rows(rand.New(rand.NewSource(7)), f.n, f.m)
		for _, order := range []int{1, 2, 3, 4} {
			bins := f.bins
			if bins == 0 {
				bins = order
			}
			e, ws := buildEstimator(t, rows, order, bins)
			pool := perm.MustNewPool(11, f.m, 5)
			for i := 0; i < f.n; i++ {
				for j := i + 1; j < f.n; j++ {
					want := e.PairBucketed(i, j, ws)
					got := e.PairBlocked(i, j, ws)
					if got != want {
						t.Fatalf("m %d bins %d order %d pair (%d,%d): blocked %v != bucketed %v", f.m, bins, order, i, j, got, want)
					}
					for p := 0; p < pool.Q(); p++ {
						want := e.PairPermutedBucketed(i, j, pool.Perm(p), ws)
						e.prepareRowKeys(i, ws)
						got := e.pairBlocked(i, j, pool.Perm(p), ws)
						if got != want {
							t.Fatalf("m %d bins %d order %d pair (%d,%d) perm %d: blocked %v != bucketed %v", f.m, bins, order, i, j, p, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSweepBadPermutationPanics requires a permutation index outside
// [0, m) to panic rather than read another gene's samples or memory
// past the weight matrix: on the first gene, whose successor an
// unchecked index would alias, and on the last, whose stencils end the
// matrix; in the order-3 kernel and the generic one.
func TestSweepBadPermutationPanics(t *testing.T) {
	const n, m = 4, 40
	rows := randomGenes(rand.New(rand.NewSource(3)), n, m)
	for _, order := range []int{3, 4} {
		e, _ := buildEstimator(t, rows, order, 10)
		for _, bad := range []int32{m, m + 1, -1, math.MaxInt32, math.MinInt32} {
			for _, j := range []int{0, n - 1} {
				p := append([]int32(nil), perm.MustNewPool(1, m, 1).Perm(0)...)
				p[m/2] = bad
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("order %d gene %d: permutation index %d did not panic", order, j, bad)
						}
					}()
					e.SweepBucketed(1, j, 1e9, [][]int32{p}, nil, nil, NewWorkspace(e))
				}()
			}
		}
	}
}

// requirePortableFill requires the joint fillBlocked just left in ws to
// equal, bit for bit, the joint of the portable scatter (scatterGo) for
// the same pair and permutation merged at the same precision. On amd64
// this pins the SSE2 order-3 kernel.
func requirePortableFill(t testing.TB, e *Estimator, i, j int, p []int32, ws *Workspace) {
	t.Helper()
	port := NewWorkspacePrec(e, ws.prec)
	e.prepareRowKeys(i, port)
	e.scatterGo(i, j, p, nil, nil, port)
	port.mergeBlockAcc(e.wm.Basis.Order())
	for x := range ws.joint {
		if math.Float64bits(ws.joint[x]) != math.Float64bits(port.joint[x]) {
			t.Fatalf("pair (%d,%d): joint cell %d %v != portable %v", i, j, x, ws.joint[x], port.joint[x])
		}
	}
	for x := range ws.joint32 {
		if math.Float32bits(ws.joint32[x]) != math.Float32bits(port.joint32[x]) {
			t.Fatalf("pair (%d,%d): float32 joint cell %d %v != portable %v", i, j, x, ws.joint32[x], port.joint32[x])
		}
	}
}

// TestSweepsMatchLegacyPerPermLoop asserts the sweep reproduces the
// legacy early-exit loop exactly: same evaluation count, same
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
				want := e.pairBlocked(i, j, pool.Perm(p), ws)
				e.fillBlocked(i, j, nil, poffs[p*m:(p+1)*m], pw[p*m*k:(p+1)*m*k], ws)
				if got := e.miFromWorkspace(i, j, ws); got != want {
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
// the pooled-null phase runs on: every value NullBucketed records is
// bit-identical to the per-permutation kernel of the same precision, across orders, even when the workspace's cached row
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
			{"bucketed32", func(i, j int) { e.NullBucketed(i, j, perms, out, ws32) },
				func(i, j int, p []int32) float64 { return e.PairPermutedBlocked(i, j, p, ws32) }},
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

// benchFill times one block fill (scatter, merge into a float64 joint,
// clear) per iteration on a 64-gene, order-3, 10-bin fixture, walking
// pairs row by row as the tile scan does: gene j unpermuted (the
// observe pass) or gathered through one of 30 pool permutations (the
// test pass and the null).
func benchFill(b *testing.B, fill func(e *Estimator, i, j int, perm []int32, ws *Workspace)) {
	const n, q = 64, 30
	for _, m := range []int{128, 337, 3137} {
		rows := randomGenes(rand.New(rand.NewSource(5)), n, m)
		e, ws := buildEstimator(b, rows, 3, 10)
		perms := perm.MustNewPool(1, m, q).Perms()
		for _, permuted := range []bool{false, true} {
			name := fmt.Sprintf("m=%d/observe", m)
			if permuted {
				name = fmt.Sprintf("m=%d/permuted", m)
			}
			b.Run(name, func(b *testing.B) {
				for it := 0; it < b.N; it++ {
					i, j := it/n%n, it%n
					var p []int32
					if permuted {
						p = perms[it%q]
					}
					e.prepareRowKeys(i, ws)
					fill(e, i, j, p, ws)
				}
			})
		}
	}
}

func BenchmarkFillBlocked(b *testing.B) {
	benchFill(b, func(e *Estimator, i, j int, perm []int32, ws *Workspace) {
		e.fillBlocked(i, j, perm, nil, nil, ws)
	})
}
