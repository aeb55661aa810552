package mi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bspline"
	"repro/internal/mat"
	"repro/internal/perm"
)

// f32Fixture builds a normalized random expression matrix and both a
// float64 and a float32 workspace over the same estimator.
func f32Fixture(t *testing.T, n, m int) (*Estimator, *Workspace, *Workspace) {
	t.Helper()
	rng := perm.NewRNG(77)
	d := mat.NewDense(n, m)
	for g := 0; g < n; g++ {
		row := d.Row(g)
		for s := range row {
			row[s] = float32(rng.Float64())
		}
	}
	d.RankNormalize()
	wm := bspline.Precompute(bspline.MustNew(3, 10), d)
	wm.BuildDense() // for PairVec
	e := NewEstimator(wm)
	return e, NewWorkspacePrec(e, Float64), NewWorkspacePrec(e, Float32)
}

// On a float32 workspace the kernels consume the identical float32
// weight products as on a float64 one; only accumulation and log width
// differ. At the default order-3/10-bin settings the MI drift stays
// well under 1e-4 bits — this constant is the documented kernel-level
// tolerance that the engine-level golden test (internal/core) builds
// on.
const f32MITolerance = 1e-4

func TestFloat32KernelsMatchFloat64(t *testing.T) {
	e, ws64, ws32 := f32Fixture(t, 24, 181)
	n := 24
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			want := e.PairBlocked(i, j, ws64)
			kernels := map[string]float64{
				"blocked32": e.PairBlocked(i, j, ws32),
				"scalar32":  e.PairScalar(i, j, ws32),
				"vec32":     e.PairVec(i, j, ws32),
			}
			for name, got := range kernels {
				if math.Abs(got-want) > f32MITolerance {
					t.Fatalf("%s(%d,%d) = %v, float64 = %v (diff %g > %g)",
						name, i, j, got, want, math.Abs(got-want), f32MITolerance)
				}
			}
		}
	}
}

func TestFloat32PermutedKernelsMatchFloat64(t *testing.T) {
	e, ws64, ws32 := f32Fixture(t, 12, 144)
	pool := perm.MustNewPool(5, 144, 7)
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			for p := 0; p < pool.Q(); p++ {
				pm := pool.Perm(p)
				want := e.PairPermutedBucketed(i, j, pm, ws64)
				for name, got := range map[string]float64{
					"blocked32": e.PairPermutedBlocked(i, j, pm, ws32),
					"scalar32":  e.PairPermutedScalar(i, j, pm, ws32),
					"vec32":     e.PairPermutedVec(i, j, pm, ws32),
				} {
					if math.Abs(got-want) > f32MITolerance {
						t.Fatalf("%s(%d,%d,p%d) = %v, float64 = %v", name, i, j, p, got, want)
					}
				}
			}
		}
	}
}

// The cached and uncached float32 sweeps stream the same float32 values
// in the same order, so — like the float64 sweep — they must be
// bit-identical to the per-permutation kernel, including the early-exit
// decision.
func TestSweep32CachedMatchesUncached(t *testing.T) {
	e, _, ws32 := f32Fixture(t, 16, 128)
	pool := perm.MustNewPool(9, 128, 11)
	perms := pool.Perms()
	pc := NewPermCache(e, perms, 4)
	wsB := NewWorkspacePrec(e, Float32)
	for i := 0; i < 16; i++ {
		for j := i + 1; j < 16; j++ {
			obs := e.PairBlocked(i, j, ws32)
			// Ground truth: per-permutation kernel with manual early exit.
			wantEvals, wantSurvived := 0, true
			for p := range perms {
				wantEvals++
				if e.PairPermutedBlocked(i, j, perms[p], ws32) >= obs {
					wantSurvived = false
					break
				}
			}
			poffs, pw := pc.Gene(j)
			for name, got := range map[string][2]any{
				"cached":   sweep32Result(e.SweepBucketed(i, j, obs, perms, poffs, pw, wsB)),
				"uncached": sweep32Result(e.SweepBucketed(i, j, obs, perms, nil, nil, wsB)),
			} {
				if got[0].(int) != wantEvals || got[1].(bool) != wantSurvived {
					t.Fatalf("float32 SweepBucketed %s (%d,%d): evals=%v survived=%v, want %d %v",
						name, i, j, got[0], got[1], wantEvals, wantSurvived)
				}
			}
		}
	}
}

func sweep32Result(evals int, survived bool) [2]any { return [2]any{evals, survived} }

func TestWorkspaceBytesSmallerForFloat32(t *testing.T) {
	e, ws64, ws32 := f32Fixture(t, 4, 64)
	b64, b32 := ws64.Bytes(), ws32.Bytes()
	if b32 >= b64 {
		t.Fatalf("float32 workspace %d bytes, float64 %d — want strictly smaller", b32, b64)
	}
	// The float64 workspace holds a joint of twice the width and the
	// float64 entropy pass's cells, which the float32 pass needs not.
	bins := e.wm.Basis.Bins()
	if want := bins*bins*4 + entropyScratchLen(bins)*8; b64-b32 != want {
		t.Fatalf("workspace delta %d bytes, want joint and entropy cells delta %d", b64-b32, want)
	}
}

func TestPermCacheBytesFixed(t *testing.T) {
	e, _, _ := f32Fixture(t, 8, 64)
	pool := perm.MustNewPool(2, 64, 4)
	pc := NewPermCache(e, pool.Perms(), 3)
	before := pc.Bytes()
	if before == 0 {
		t.Fatal("PermCache.Bytes() = 0, want fixed arena size")
	}
	for g := 0; g < 8; g++ { // force eviction cycles through the arena
		pc.Gene(g)
	}
	if pc.Bytes() != before {
		t.Fatalf("PermCache.Bytes() changed %d -> %d; arena should be fixed", before, pc.Bytes())
	}
	want := 3 * (4*64*4 + 4*64*3*4)
	if before != want {
		t.Fatalf("PermCache.Bytes() = %d, want %d", before, want)
	}
}

func benchPairPrec(b *testing.B, m int, prec Precision, f func(*Estimator, int, int, *Workspace) float64) {
	rng := rand.New(rand.NewSource(1))
	xi, xj := gaussianPair(rng, m, 0.5)
	ni, nj := normalizePair(xi, xj)
	e, _ := buildEstimator(b, [][]float32{ni, nj}, 3, 10)
	ws := NewWorkspacePrec(e, prec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(e, 0, 1, ws)
	}
}

func BenchmarkPairBlocked337x64(b *testing.B) {
	benchPairPrec(b, 337, Float64, (*Estimator).PairBlocked)
}
func BenchmarkPairBlocked337x32(b *testing.B) {
	benchPairPrec(b, 337, Float32, (*Estimator).PairBlocked)
}

func benchSweepPrec(b *testing.B, prec Precision) {
	const n, m, q = 16, 337, 30
	rng := perm.NewRNG(9)
	d := mat.NewDense(n, m)
	for g := 0; g < n; g++ {
		row := d.Row(g)
		for s := range row {
			row[s] = float32(rng.NormFloat64())
		}
	}
	d.RankNormalize()
	e := NewEstimator(bspline.Precompute(bspline.MustNew(3, 10), d))
	ws := NewWorkspacePrec(e, prec)
	pool := perm.MustNewPool(1, m, q)
	perms := pool.Perms()
	cache := NewPermCache(e, perms, n)
	const obs = 1e9 // never exceeded: full q-permutation sweeps
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := 1 + i%(n-1)
		poffs, pw := cache.Gene(j)
		if _, survived := e.SweepBucketed(0, j, obs, perms, poffs, pw, ws); !survived {
			b.Fatal("unexpected early exit")
		}
	}
}

func BenchmarkSweepBucketed337x64(b *testing.B) { benchSweepPrec(b, Float64) }
func BenchmarkSweepBucketed337x32(b *testing.B) { benchSweepPrec(b, Float32) }
