package core

import (
	"repro/internal/bspline"
	"repro/internal/mi"
	"repro/internal/perm"
	"repro/internal/tile"
)

// pairKernel bundles the estimator and permutation pool shared by all
// engines. It is immutable during a scan and safe for concurrent use
// with per-goroutine workspaces. Every evaluation runs the mi package's
// block-scatter kernel at the precision of the workspace it is passed;
// prec only sizes the workspaces newWorkspace allocates.
type pairKernel struct {
	est    *mi.Estimator
	pool   *perm.Pool
	prec   Precision
	thresh float64 // I_alpha; 0 during the threshold-estimation phase
}

func newPairKernel(wm *bspline.WeightMatrix, cfg Config) *pairKernel {
	return &pairKernel{
		est:  mi.NewEstimatorParallel(wm, cfg.Workers),
		pool: perm.MustNewPool(cfg.Seed, wm.Samples, cfg.Permutations),
		prec: cfg.Precision,
	}
}

// newWorkspace allocates per-goroutine scratch for the configured
// precision — the float32 path's workspace carries a float32 joint
// accumulator (half the bytes), the float64 path a float64 one.
func (k *pairKernel) newWorkspace() *mi.Workspace {
	return mi.NewWorkspacePrec(k.est, k.prec)
}

// observe computes the observed MI of pair (i, j) for the observe
// pass, which keeps it only when it reaches I_alpha. It certifies pairs
// below I_alpha without their entropy pass (mi.PairBlockedCut): below
// is then true and obs 0. Otherwise obs is mi.PairBlocked's value, at
// float64 bit-identical to PairBucketed, the counting-sort formulation
// (the sweep golden test pins this).
func (k *pairKernel) observe(i, j int, ws *mi.Workspace) (obs float64, below bool) {
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
	done, significant := k.est.SweepBucketed(i, j, obs, k.pool.Perms(), nil, nil, ws)
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
// early exit. Each value is bit-identical to the per-permutation
// block-scatter kernel under pool permutation p.
func (k *pairKernel) null(i, j int, out []float64, ws *mi.Workspace) {
	k.est.NullBucketed(i, j, k.pool.Perms(), out, ws)
}
