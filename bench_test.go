// Package repro's root benchmark file holds one testing.B benchmark per
// table/figure of the paper's evaluation (T1, T2, F1..F8, T3), matching
// the experiment index in DESIGN.md. The printable paper-style rows
// come from cmd/benchsuite; these benches give stable,
// `go test -bench`-able timings for each experiment's kernel.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/bspline"
	"repro/internal/mi"
	"repro/internal/perm"
	"repro/internal/phi"
	"repro/internal/tile"
	"repro/tinge"
)

func benchDataset(b *testing.B, n, m int) *tinge.Dataset {
	b.Helper()
	return tinge.MustGenerate(tinge.GenConfig{
		Genes: n, Experiments: m, AvgRegulators: 2, Noise: 0.1, Seed: 1,
	})
}

// BenchmarkT1_DatasetGeneration covers Table 1: synthetic dataset
// construction at A.-thaliana-like shape (scaled).
func BenchmarkT1_DatasetGeneration(b *testing.B) {
	for _, n := range []int{250, 1000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchDataset(b, n, 337)
			}
		})
	}
}

// BenchmarkT2_EndToEnd covers Table 2: the full pipeline (normalize,
// precompute, threshold, MI+permutation, DPI) on the host engine.
func BenchmarkT2_EndToEnd(b *testing.B) {
	for _, n := range []int{100, 250} {
		d := benchDataset(b, n, 337)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tinge.InferDataset(d, tinge.Config{
					Seed: 1, Permutations: 10, DPI: true, DPITolerance: 0.1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF1_HostWorkers covers Figure 1: the MI phase at several
// worker counts (real goroutines; on a single-CPU machine the scaling
// curve comes from cmd/benchsuite's profiled simulation instead).
func BenchmarkF1_HostWorkers(b *testing.B) {
	d := benchDataset(b, 200, 256)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tinge.InferDataset(d, tinge.Config{
					Seed: 1, Permutations: 10, Workers: w,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF2_Kernels covers Figure 2: one MI evaluation per kernel
// formulation at the paper's sample count.
func BenchmarkF2_Kernels(b *testing.B) {
	d := benchDataset(b, 16, 3137)
	norm := d.Expr.Clone()
	norm.RankNormalize()
	est := mi.NewEstimator(bspline.Precompute(bspline.MustNew(3, 10), norm))
	ws := mi.NewWorkspace(est)
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			est.PairScalar(i%15, 15, ws)
		}
	})
	b.Run("bucketed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			est.PairBucketed(i%15, 15, ws)
		}
	})
	b.Run("densevec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			est.PairVec(i%15, 15, ws)
		}
	})
}

// BenchmarkF3_PhiMakespan covers Figure 3: scheduling the whole-genome
// tile set onto the simulated 60-core x 4-thread device.
func BenchmarkF3_PhiMakespan(b *testing.B) {
	dev := phi.XeonPhi5110P()
	tiles := tile.Decompose(2000, 32)
	items := make([]phi.Work, len(tiles))
	for i, tl := range tiles {
		items[i] = dev.TileCost(phi.KernelParams{
			Pairs: tl.Pairs(), Samples: 3137, Order: 3, Bins: 10, Perms: 3, Vectorized: true,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.Makespan(items, 4, tile.Dynamic)
	}
}

// BenchmarkF4_Schedulers covers Figure 4: simulated makespan of each
// scheduling policy over a skewed tile-cost distribution.
func BenchmarkF4_Schedulers(b *testing.B) {
	rng := perm.NewRNG(1)
	costs := make([]float64, 4000)
	for i := range costs {
		costs[i] = 1
		if rng.Float64() < 0.05 {
			costs[i] = 40 // permutation-test survivors
		}
	}
	for _, p := range []tile.Policy{tile.StaticBlock, tile.StaticCyclic, tile.Dynamic, tile.Stealing} {
		b.Run(p.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tile.SimMakespan(costs, 64, p)
			}
		})
	}
}

// BenchmarkF5_Permutations covers Figure 5: pipeline cost at several
// permutation counts.
func BenchmarkF5_Permutations(b *testing.B) {
	d := benchDataset(b, 150, 256)
	for _, q := range []int{10, 30} {
		b.Run(fmt.Sprintf("q%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tinge.InferDataset(d, tinge.Config{
					Seed: 1, Permutations: q,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF6_Cluster covers Figure 6: the MPI-style cluster engine at
// several world sizes (ranks share this machine; traffic and collective
// costs are what scale).
func BenchmarkF6_Cluster(b *testing.B) {
	d := benchDataset(b, 150, 256)
	for _, ranks := range []int{1, 4} {
		b.Run(fmt.Sprintf("ranks%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tinge.InferDataset(d, tinge.Config{
					Engine: tinge.Cluster, Ranks: ranks, Seed: 1, Permutations: 10,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF7_OffloadPipeline covers Figure 7: pricing the chunked
// transfer/compute pipeline.
func BenchmarkF7_OffloadPipeline(b *testing.B) {
	link := phi.PCIeGen2x16()
	const chunks = 16
	transfers := make([]float64, chunks)
	computes := make([]float64, chunks)
	for i := range transfers {
		transfers[i] = link.TransferTime(1 << 26)
		computes[i] = 0.01
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		phi.PipelineTime(transfers, computes, true)
	}
}

// BenchmarkF8_DeviceComparison covers Figure 8: costing the same tile
// stream on the Xeon and Xeon Phi models.
func BenchmarkF8_DeviceComparison(b *testing.B) {
	tiles := tile.Decompose(2000, 32)
	for _, dev := range []phi.Device{phi.XeonE5(), phi.XeonPhi5110P()} {
		b.Run(dev.Name, func(b *testing.B) {
			items := make([]phi.Work, len(tiles))
			for i, tl := range tiles {
				items[i] = dev.TileCost(phi.KernelParams{
					Pairs: tl.Pairs(), Samples: 3137, Order: 3, Bins: 10, Perms: 3, Vectorized: true,
				})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dev.Makespan(items, dev.ThreadsPerCore, tile.Dynamic)
			}
		})
	}
}

// BenchmarkT3_EstimatorAccuracyKernel covers Table 3's workhorse: the
// double-precision reference estimator used for accuracy validation.
func BenchmarkT3_EstimatorAccuracyKernel(b *testing.B) {
	d := benchDataset(b, 2, 3137)
	norm := d.Expr.Clone()
	norm.RankNormalize()
	basis := bspline.MustNew(3, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mi.PairReference(basis, norm.Row(0), norm.Row(1))
	}
}

// BenchmarkPermSweep contrasts the no-early-exit null sweep (every
// permutation filled and finished with its entropy pass) with the
// early-exit sweep the permutation test runs. The observed MI is set
// above every permuted value, so the sweep evaluates all q
// permutations and the certificate decides each of them without an
// entropy pass — the regime where surviving edges spend their time.
func BenchmarkPermSweep(b *testing.B) {
	const m, q = 337, 30
	d := benchDataset(b, 16, m)
	norm := d.Expr.Clone()
	norm.RankNormalize()
	est := mi.NewEstimator(bspline.Precompute(bspline.MustNew(3, 10), norm))
	ws := mi.NewWorkspace(est)
	perms := perm.MustNewPool(1, m, q).Perms()
	const obs = 1e9 // never exceeded: full q-permutation sweeps
	b.Run("null", func(b *testing.B) {
		out := make([]float64, q)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			est.NullBucketed(0, 1+i%15, perms, out, ws)
		}
	})
	b.Run("sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := 1 + i%15
			if _, survived := est.SweepBucketed(0, j, obs, perms, nil, nil, ws); !survived {
				b.Fatal("unexpected early exit")
			}
		}
	})
}

// BenchmarkObserveTile times the observe pass's kernel over the 32×32
// pair tiles of a generated 200-gene × 337-experiment input, cycling
// through the tiles: "exact" computes every pair's MI (PairBlocked),
// "certified" lets the certificate decide the pairs below the input's
// pooled-null threshold without their entropy pass (PairBlockedCut).
// One op is one tile; certified/pair is the share the certificate
// decided.
func BenchmarkObserveTile(b *testing.B) {
	d := benchDataset(b, 200, 337)
	res, err := tinge.InferDataset(d, tinge.Config{Seed: 1, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	cut := res.Threshold
	norm := d.Expr.Clone()
	norm.RankNormalize()
	est := mi.NewEstimator(bspline.Precompute(bspline.MustNew(3, 10), norm))
	ws := mi.NewWorkspace(est)
	tiles := tile.Decompose(200, 32)
	b.Run("exact", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			tiles[n%len(tiles)].ForEachPair(func(i, j int) {
				benchSink += est.PairBlocked(i, j, ws)
			})
		}
	})
	b.Run("certified", func(b *testing.B) {
		var pairs, below int
		for n := 0; n < b.N; n++ {
			tiles[n%len(tiles)].ForEachPair(func(i, j int) {
				v, certified := est.PairBlockedCut(i, j, cut, ws)
				benchSink += v
				pairs++
				if certified {
					below++
				}
			})
		}
		b.ReportMetric(float64(below)/float64(pairs), "certified/pair")
	})
}

// benchSink keeps benchmarked kernel results live.
var benchSink float64

// BenchmarkPermutationReuse is the ablation DESIGN.md calls out:
// permuting precomputed weights vs recomputing weights on permuted raw
// data.
func BenchmarkPermutationReuse(b *testing.B) {
	d := benchDataset(b, 2, 1024)
	norm := d.Expr.Clone()
	norm.RankNormalize()
	est := mi.NewEstimator(bspline.Precompute(bspline.MustNew(3, 10), norm))
	ws := mi.NewWorkspace(est)
	p := perm.MustNewPool(1, 1024, 1).Perm(0)
	b.Run("reuse-weights", func(b *testing.B) {
		b.ReportAllocs()
		out := make([]float64, 1)
		for i := 0; i < b.N; i++ {
			est.NullBucketed(0, 1, [][]int32{p}, out, ws)
		}
	})
	b.Run("recompute-weights", func(b *testing.B) {
		basis := bspline.MustNew(3, 10)
		permuted := make([]float32, 1024)
		src := norm.Row(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for s, idx := range p {
				permuted[s] = src[idx]
			}
			mi.PairReference(basis, norm.Row(0), permuted)
		}
	})
}
