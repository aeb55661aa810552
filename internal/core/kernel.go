package core

import (
	"sync/atomic"

	"repro/internal/bspline"
	"repro/internal/mi"
	"repro/internal/perm"
	"repro/internal/tile"
)

// pairKernel bundles the estimator, permutation pool, and kernel choice
// shared by all engines. Aside from the screen-disarm counters it is
// immutable and safe for concurrent use with per-goroutine workspaces
// (and per-goroutine permutation caches).
type pairKernel struct {
	est    *mi.Estimator
	pool   *perm.Pool
	kind   KernelKind
	prec   Precision
	legacy bool // per-permutation seed path instead of the batched sweep
	// screen is the conservative-bound prescreener, nil unless
	// Config.Prescreen is set. Like est it is immutable and shared
	// across workers.
	screen *mi.Screener
	thresh float64 // I_alpha; 0 during the threshold-estimation phase
	// Adaptive disarm: when the first screenProbeBudget bound probes
	// produce zero skips, the threshold is in the regime the bound
	// cannot reach (see the mi package doc) and screenTile stops paying
	// for bounds. The network is bit-identical either way — screening
	// only ever drops pairs the exact kernel would reject — but in the
	// razor-edge case where the budget is exhausted just before the
	// first screenable tile, PairsScreenedOut can vary with worker
	// scheduling. Correctness never does.
	screenProbes atomic.Int64
	screenHits   atomic.Int64
	screenOff    atomic.Bool
}

// screenProbeBudget is the calibration allowance for adaptive disarm:
// how many pairs may be bounded with zero skips before the kernel
// concludes the screen is powerless for this run's threshold and stops
// bounding. It caps the worst-case prescreen overhead at a few
// thousand coarse bounds (sub-millisecond) per kernel.
const screenProbeBudget = 4096

func newPairKernel(wm *bspline.WeightMatrix, cfg Config) *pairKernel {
	k := &pairKernel{
		est:    mi.NewEstimatorParallel(wm, cfg.Workers),
		pool:   perm.MustNewPool(cfg.Seed, wm.Samples, cfg.Permutations),
		kind:   cfg.Kernel,
		prec:   cfg.Precision,
		legacy: cfg.LegacyPermutation,
	}
	if cfg.Prescreen {
		k.screen = mi.NewScreener(k.est, cfg.Precision)
	}
	return k
}

// newWorkspace allocates per-goroutine scratch for the configured
// precision — the float32 path's workspace carries a float32 joint
// accumulator (half the bytes), the float64 path a float64 one. When
// prescreening is on, the screen's coarse-joint scratch is allocated
// eagerly so Workspace.Bytes is final at construction.
func (k *pairKernel) newWorkspace() *mi.Workspace {
	ws := mi.NewWorkspacePrec(k.est, k.prec)
	if k.screen != nil {
		k.screen.EnsureScratch(ws)
	}
	return ws
}

// newPermCache builds the worker-local permuted-row cache for the sweep
// path. It returns nil when the cache cannot pay off: on the legacy
// path, with no permutations, or for the vectorized kernel (whose sweep
// amortizes the dense-row resolution instead of offset rows). Capacity
// is one tile's worth of column genes — a tile touches at most TileSize
// distinct j genes, so entries live exactly as long as they are useful.
func (k *pairKernel) newPermCache(cfg Config) *mi.PermCache {
	if k.legacy || k.pool.Q() == 0 || k.kind == KernelVec {
		return nil
	}
	return mi.NewPermCache(k.est, k.pool.Perms(), cfg.TileSize)
}

// miPair computes the unpermuted MI of pair (i, j).
func (k *pairKernel) miPair(i, j int, ws *mi.Workspace) float64 {
	if k.prec == Float32 {
		switch k.kind {
		case KernelScalar:
			return k.est.PairScalar32(i, j, ws)
		case KernelVec:
			return k.est.PairVec32(i, j, ws)
		default:
			// The blocked formulation subsumes the counting-sort one on
			// the float32 path (no legacy bit-identity to preserve).
			return k.est.PairBlocked32(i, j, ws)
		}
	}
	switch k.kind {
	case KernelScalar:
		return k.est.PairScalar(i, j, ws)
	case KernelVec:
		return k.est.PairVec(i, j, ws)
	default:
		if k.legacy {
			return k.est.PairBucketed(i, j, ws)
		}
		return k.est.PairBlocked(i, j, ws)
	}
}

// miPermuted computes MI of (i, j) under pool permutation p — one
// evaluation of the legacy per-permutation decide loop.
func (k *pairKernel) miPermuted(i, j, p int, ws *mi.Workspace) float64 {
	if k.prec == Float32 {
		switch k.kind {
		case KernelScalar:
			return k.est.PairPermutedScalar32(i, j, k.pool.Perm(p), ws)
		case KernelVec:
			return k.est.PairPermutedVec32(i, j, k.pool.Perm(p), ws)
		default:
			return k.est.PairPermutedBlocked32(i, j, k.pool.Perm(p), ws)
		}
	}
	switch k.kind {
	case KernelScalar:
		return k.est.PairPermutedScalar(i, j, k.pool.Perm(p), ws)
	case KernelVec:
		return k.est.PairPermutedVec(i, j, k.pool.Perm(p), ws)
	default:
		return k.est.PairPermutedBucketed(i, j, k.pool.Perm(p), ws)
	}
}

// decide evaluates pair (i, j) fully: the observed MI, the global
// threshold cut, and — for survivors — the per-pair permutation check
// with early exit (the observed value must strictly exceed every
// permuted value, i.e. empirical p < 1/(q+1)).
//
// It returns the observed MI, whether the edge is significant, the
// number of exact-kernel pair evaluations spent (always 1), the number
// of permutation evaluations actually computed (identical between the
// sweep and legacy paths, since both stop at the first permuted
// MI >= obs), and the number of permutations the early exit skipped
// (q minus the permutations computed, 0 for pairs cut by the
// threshold).
//
// pc, when non-nil, is this goroutine's permuted-row cache; the sweep
// kernels stream gene j's cached rows instead of gathering through the
// permutation per evaluation. Results are bit-identical with or without
// the cache.
func (k *pairKernel) decide(i, j int, ws *mi.Workspace, pc *mi.PermCache) (obs float64, significant bool, evals, permEvals, skipped int64) {
	obs = k.miPair(i, j, ws)
	evals = 1
	if obs < k.thresh {
		return obs, false, evals, 0, 0
	}
	q := k.pool.Q()
	if q == 0 {
		return obs, true, evals, 0, 0
	}
	if k.legacy {
		for p := 0; p < q; p++ {
			permEvals++
			if k.miPermuted(i, j, p, ws) >= obs {
				return obs, false, evals, permEvals, int64(q - p - 1)
			}
		}
		return obs, true, evals, permEvals, 0
	}
	perms := k.pool.Perms()
	var poffs []int32
	var pw []float32
	if pc != nil {
		poffs, pw = pc.Gene(j)
	}
	var done int
	if k.prec == Float32 {
		switch k.kind {
		case KernelScalar:
			done, significant = k.est.SweepScalar32(i, j, obs, perms, poffs, pw, ws)
		case KernelVec:
			done, significant = k.est.SweepVec32(i, j, obs, perms, ws)
		default:
			done, significant = k.est.SweepBucketed32(i, j, obs, perms, poffs, pw, ws)
		}
	} else {
		switch k.kind {
		case KernelScalar:
			done, significant = k.est.SweepScalar(i, j, obs, perms, poffs, pw, ws)
		case KernelVec:
			done, significant = k.est.SweepVec(i, j, obs, perms, ws)
		default:
			done, significant = k.est.SweepBucketed(i, j, obs, perms, poffs, pw, ws)
		}
	}
	return obs, significant, evals, int64(done), int64(q - done)
}

// screenTile runs the prescreening pass over one tile: mask[p] is true
// when pair p (in ForEachPair order) can skip the exact kernel and its
// permutation sweep. It returns the extended mask and the number of
// pairs screened out. The caller owns mask's backing array so the hot
// loop allocates only on the first (largest) tile.
func (k *pairKernel) screenTile(t tile.Tile, ws *mi.Workspace, mask []bool) ([]bool, int64) {
	mask = mask[:0]
	if k.screenOff.Load() {
		t.ForEachPair(func(i, j int) { mask = append(mask, false) })
		return mask, 0
	}
	var screened int64
	t.ForEachPair(func(i, j int) {
		skip := k.screen.ShouldSkip(i, j, k.thresh, ws)
		if skip {
			screened++
		}
		mask = append(mask, skip)
	})
	if screened > 0 {
		k.screenHits.Add(screened)
	} else if k.screenProbes.Add(int64(len(mask))) >= screenProbeBudget && k.screenHits.Load() == 0 {
		k.screenOff.Store(true)
	}
	return mask, screened
}

// sampleNullPairs deterministically selects count distinct pairs (i<j)
// from an n-gene universe for pooled-null estimation, seeded
// independently of the permutation pool. count is clamped to the number
// of distinct pairs; rejection of repeats keeps the draw deterministic
// for a given seed (the RNG stream is fixed, only which draws are kept
// changes), and guarantees no pair's permuted MIs are double-counted in
// the pooled null.
func sampleNullPairs(seed uint64, n, count int) [][2]int {
	if max := tile.TotalPairs(n); count > max {
		count = max
	}
	rng := perm.NewRNG(seed).Split(0xD1CE)
	pairs := make([][2]int, 0, count)
	seen := make(map[[2]int]struct{}, count)
	for len(pairs) < count {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		pr := [2]int{i, j}
		if _, dup := seen[pr]; dup {
			continue
		}
		seen[pr] = struct{}{}
		pairs = append(pairs, pr)
	}
	return pairs
}

// null computes the q permuted MIs of pair (i, j) into out — one
// pooled-null pair's whole contribution, from a single sweep with no
// early exit. Each value is bit-identical to miPermuted(i, j, p, ws).
func (k *pairKernel) null(i, j int, out []float64, ws *mi.Workspace) {
	perms := k.pool.Perms()
	if k.prec == Float32 {
		switch k.kind {
		case KernelScalar:
			k.est.NullScalar32(i, j, perms, out, ws)
		case KernelVec:
			k.est.NullVec32(i, j, perms, out, ws)
		default:
			k.est.NullBucketed32(i, j, perms, out, ws)
		}
		return
	}
	switch k.kind {
	case KernelScalar:
		k.est.NullScalar(i, j, perms, out, ws)
	case KernelVec:
		k.est.NullVec(i, j, perms, out, ws)
	default:
		k.est.NullBucketed(i, j, perms, out, ws)
	}
}
