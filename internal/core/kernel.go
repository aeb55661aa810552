package core

import (
	"repro/internal/bspline"
	"repro/internal/mi"
	"repro/internal/perm"
	"repro/internal/tile"
)

// pairKernel bundles the estimator, permutation pool, and kernel choice
// shared by all engines. It is immutable during a scan and safe for
// concurrent use with per-goroutine workspaces.
type pairKernel struct {
	est    *mi.Estimator
	pool   *perm.Pool
	kind   KernelKind
	prec   Precision
	thresh float64 // I_alpha; 0 during the threshold-estimation phase
}

func newPairKernel(wm *bspline.WeightMatrix, cfg Config) *pairKernel {
	return &pairKernel{
		est:  mi.NewEstimatorParallel(wm, cfg.Workers),
		pool: perm.MustNewPool(cfg.Seed, wm.Samples, cfg.Permutations),
		kind: cfg.Kernel,
		prec: cfg.Precision,
	}
}

// newWorkspace allocates per-goroutine scratch for the configured
// precision — the float32 path's workspace carries a float32 joint
// accumulator (half the bytes), the float64 path a float64 one.
func (k *pairKernel) newWorkspace() *mi.Workspace {
	return mi.NewWorkspacePrec(k.est, k.prec)
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
			return k.est.PairBlocked32(i, j, ws)
		}
	}
	switch k.kind {
	case KernelScalar:
		return k.est.PairScalar(i, j, ws)
	case KernelVec:
		return k.est.PairVec(i, j, ws)
	default:
		// Bit-identical to PairBucketed, the counting-sort formulation
		// (the sweep golden test pins this).
		return k.est.PairBlocked(i, j, ws)
	}
}

// observe computes the observed MI of pair (i, j) for the observe
// pass, which keeps it only when it reaches I_alpha. The bucketed
// kernel certifies pairs below I_alpha without their entropy pass
// (mi.PairBlockedCut): below is then true and obs 0. Otherwise obs is
// miPair's value.
func (k *pairKernel) observe(i, j int, ws *mi.Workspace) (obs float64, below bool) {
	if k.kind != KernelBucketed {
		return k.miPair(i, j, ws), false
	}
	if k.prec == Float32 {
		return k.est.PairBlockedCut32(i, j, k.thresh, ws)
	}
	return k.est.PairBlockedCut(i, j, k.thresh, ws)
}

// test runs the per-pair permutation check of threshold survivor
// (i, j) from its observed MI obs, with early exit: the observed value
// must strictly exceed every permuted value, i.e. empirical
// p < 1/(q+1). It returns whether the edge is significant, the number
// of permutation evaluations computed (the sweep stops at the first
// permuted MI >= obs, exactly where a per-permutation loop would), and
// the number the early exit skipped (q minus those computed). Gene j
// is gathered through each permutation.
func (k *pairKernel) test(i, j int, obs float64, ws *mi.Workspace) (significant bool, permEvals, skipped int64) {
	q := k.pool.Q()
	if q == 0 {
		return true, 0, 0
	}
	perms := k.pool.Perms()
	var done int
	if k.prec == Float32 {
		switch k.kind {
		case KernelScalar:
			done, significant = k.est.SweepScalar32(i, j, obs, perms, ws)
		case KernelVec:
			done, significant = k.est.SweepVec32(i, j, obs, perms, ws)
		default:
			done, significant = k.est.SweepBucketed32(i, j, obs, perms, nil, nil, ws)
		}
	} else {
		switch k.kind {
		case KernelScalar:
			done, significant = k.est.SweepScalar(i, j, obs, perms, ws)
		case KernelVec:
			done, significant = k.est.SweepVec(i, j, obs, perms, ws)
		default:
			done, significant = k.est.SweepBucketed(i, j, obs, perms, nil, nil, ws)
		}
	}
	return significant, int64(done), int64(q - done)
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
// early exit. Each value is bit-identical to the per-permutation kernel
// (mi.PairPermuted*) under pool permutation p.
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
