// Command benchsuite regenerates every table and figure of the paper's
// evaluation (as reconstructed in DESIGN.md) and prints the rows/series
// in paper style. Each experiment is selected by id:
//
//	T1  dataset characteristics
//	T2  end-to-end runtime and per-phase breakdown (+ whole-genome
//	    simulated-Phi headline, the 22-minute analogue)
//	F1  host thread scaling (strong scaling)
//	F2  vectorization: scalar scatter, block scatter and dot-product kernels
//	F3  simulated Phi scaling: cores x threads-per-core grid
//	F4  tile scheduling policies under permutation-test skew
//	F5  permutation count sweep: cost and threshold stability
//	F6  cluster (MPI baseline) rank scaling and traffic
//	F7  offload pipeline: double buffering vs serial transfers
//	F8  Xeon vs Xeon Phi (simulated single-chip comparison)
//	T3  accuracy: estimator vs analytic MI; network recovery vs
//	    baselines
//	OOC out-of-core panel-store engine at its minimum memory budget vs
//	    the resident host engine: end-to-end overhead, honored memory
//	    ceiling, spill traffic (writes BENCH_ooc.json)
//	DP  parallel tiled DPI filter: worker and memory-budget scaling on
//	    a >=1e5-edge network, bit-identity vs the sequential reference
//	    enforced (writes BENCH_dpi.json)
//	FL  fleet coordinator result cache: cold 3-worker fan-out scan vs
//	    content-addressed cache hit, bit-identity vs single-process
//	    enforced on every cold scan
//	EN  bootstrap consensus ensemble: one B-bootstrap ensemble run vs B
//	    naive independent scans, support tables checked bit-identical
//	    (writes BENCH_ensemble.json)
//
// Usage:
//
//	benchsuite -exp all            # everything, moderate sizes
//	benchsuite -exp F1,F2 -quick   # fast subset
//	benchsuite -exp OOC -quick -compare-ooc baseline.json   # regression gate
//
// With -quick, the measurement files get a _quick suffix
// (BENCH_ooc_quick.json, BENCH_dpi_quick.json, ...) so a fast CI pass
// never clobbers the checked-in full-size baselines.
//
// -compare-ooc FILE reruns the gate after the OOC experiment: every row
// of FILE (a previous BENCH_ooc*.json) is matched against the fresh
// rows by shape, and the process exits non-zero if any matched row's
// out-of-core overhead ratio grew by more than 25% over the baseline's.
// -compare-dp FILE gates the DP experiment the same way on the
// parallel-DPI speedup (15%), and -compare-en FILE gates the EN
// experiment on the ensemble-vs-naive speedup (15%).
//
// BENCH_permsweep.json and BENCH_prescreen.json are the frozen records
// of two retired experiments (PS and SC, whose code paths no longer
// exist); EXPERIMENTS.md cites them.
//
// Results are deterministic for a fixed -seed except for wall-clock
// columns.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/bspline"
	"repro/internal/expr"
	"repro/internal/mi"
	"repro/internal/mpi"
	"repro/internal/perm"
	"repro/internal/phi"
	"repro/internal/stats"
	"repro/internal/tile"
	"repro/tinge"
)

type suite struct {
	seed       uint64
	quick      bool
	compareOOC string
	compareDP  string
	compareEN  string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchsuite: ")
	var (
		expFlag    = flag.String("exp", "all", "comma-separated experiment ids (T1,T2,F1..F9,T3,A1,A2,OOC,DP,FL,EN) or 'all'")
		seed       = flag.Uint64("seed", 1, "run seed")
		quick      = flag.Bool("quick", false, "smaller sizes for a fast pass")
		compareOOC = flag.String("compare-ooc", "", "baseline BENCH_ooc*.json: after OOC, fail if any matched row's overhead grew >25%")
		compareDP  = flag.String("compare-dp", "", "baseline BENCH_dpi*.json: after DP, fail if any matched row's speedup regressed >15%")
		compareEN  = flag.String("compare-en", "", "baseline BENCH_ensemble*.json: after EN, fail if any matched row's speedup regressed >15%")
	)
	flag.Parse()

	s := &suite{seed: *seed, quick: *quick, compareOOC: *compareOOC, compareDP: *compareDP, compareEN: *compareEN}
	all := []string{"T1", "T2", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "T3", "A1", "A2", "OOC", "DP", "FL", "EN"}
	var ids []string
	if *expFlag == "all" {
		ids = all
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			ids = append(ids, strings.ToUpper(strings.TrimSpace(id)))
		}
	}
	runners := map[string]func(){
		"T1": s.t1, "T2": s.t2, "F1": s.f1, "F2": s.f2, "F3": s.f3,
		"F4": s.f4, "F5": s.f5, "F6": s.f6, "F7": s.f7, "F8": s.f8,
		"T3": s.t3, "A1": s.a1, "A2": s.a2, "F9": s.f9,
		"OOC": s.ooc, "DP": s.dp, "FL": s.fl, "EN": s.en,
	}
	for _, id := range ids {
		run, ok := runners[id]
		if !ok {
			log.Fatalf("unknown experiment %q (know %v)", id, all)
		}
		run()
	}
}

// benchPath names a measurement file. Quick passes get a _quick suffix
// so CI's fast run never overwrites a checked-in full-size baseline.
func (s *suite) benchPath(base string) string {
	if s.quick {
		return base + "_quick.json"
	}
	return base + ".json"
}

func header(id, title string) {
	fmt.Printf("\n=== %s: %s ===\n", id, title)
}

func (s *suite) dataset(n, m int) *expr.Dataset {
	return expr.MustGenerate(expr.GenConfig{
		Genes: n, Experiments: m, AvgRegulators: 2, Noise: 0.1, Seed: s.seed,
	})
}

// T1: dataset characteristics, the paper's Table 1 analogue (subsets of
// the A. thaliana compendium; here synthetic sets of matching shape).
func (s *suite) t1() {
	header("T1", "dataset characteristics (synthetic A.-thaliana-shaped)")
	sizes := []int{1000, 2000, 4000, 8000, 15575}
	m := 3137
	if s.quick {
		sizes = []int{200, 400, 800}
		m = 337
	}
	fmt.Printf("%10s %12s %12s %10s %12s\n", "genes", "experiments", "pairs", "trueEdges", "matrixMB")
	for _, n := range sizes {
		// Topology only (experiments=1 keeps generation cheap for the
		// big rows; the expression matrix size column is analytic).
		d := expr.MustGenerate(expr.GenConfig{Genes: n, Experiments: 1, Seed: s.seed})
		mb := float64(n) * float64(m) * 4 / (1 << 20)
		fmt.Printf("%10d %12d %12d %10d %12.1f\n",
			n, m, tile.TotalPairs(n), len(d.TrueEdgeSet()), mb)
	}
}

// T2: end-to-end runtime with per-phase breakdown, plus the simulated
// whole-genome headline run.
func (s *suite) t2() {
	header("T2", "end-to-end runtime and phase breakdown (host engine)")
	sizes := []int{250, 500, 1000}
	m := 337
	perms := 30
	if s.quick {
		sizes = []int{100, 200}
		m = 128
		perms = 10
	}
	fmt.Printf("%7s %9s %9s %11s %11s %11s %9s %9s %7s\n",
		"genes", "pairs", "wall(s)", "precomp(s)", "thresh(s)", "mi(s)", "dpi(s)", "evals", "edges")
	for _, n := range sizes {
		d := s.dataset(n, m)
		start := time.Now()
		res, err := tinge.InferDataset(d, tinge.Config{
			Seed: s.seed, Permutations: perms, DPI: true, DPITolerance: 0.1,
		})
		if err != nil {
			log.Fatal(err)
		}
		wall := time.Since(start).Seconds()
		fmt.Printf("%7d %9d %9.2f %11.3f %11.3f %11.3f %9.3f %9d %7d\n",
			n, tile.TotalPairs(n), wall,
			res.Timer.Get("precompute").Seconds(),
			res.Timer.Get("threshold").Seconds(),
			res.Timer.Get("mi").Seconds(),
			res.Timer.Get("dpi").Seconds(),
			res.PairsEvaluated, res.Network.Len())
	}

	fmt.Println("\nWhole-genome headline (simulated Xeon Phi 5110P, analytic work model):")
	n, mm := 15575, 3137
	dev := phi.XeonPhi5110P()
	tiles := tile.Decompose(n, 64)
	link := phi.PCIeGen2x16()
	xfer := link.TransferTime(int64(n) * 10 * int64(mm) * 4)
	// The paper's protocol (TINGe): all 30 permutations for every pair.
	exhaustive := make([]phi.Work, len(tiles))
	for i, tl := range tiles {
		exhaustive[i] = dev.TileCost(phi.KernelParams{
			Pairs: tl.Pairs(), Samples: mm, Order: 3, Bins: 10, Perms: 30, Vectorized: true,
		})
	}
	exSec := dev.Seconds(dev.Makespan(exhaustive, 4, tile.Dynamic)) + xfer
	// This pipeline's protocol: threshold cut + early exit; 2% of pairs
	// pay the full permutation cost (calibrated at whole-genome density).
	const survivorFrac = 0.02
	items := make([]phi.Work, len(tiles))
	for i, tl := range tiles {
		pairs := tl.Pairs()
		base := dev.TileCost(phi.KernelParams{Pairs: pairs, Samples: mm, Order: 3, Bins: 10, Perms: 0, Vectorized: true})
		extra := dev.TileCost(phi.KernelParams{
			Pairs: int(float64(pairs) * survivorFrac), Samples: mm,
			Order: 3, Bins: 10, Perms: 30, Vectorized: true,
		})
		items[i] = phi.Work{
			ComputeCycles: base.ComputeCycles + extra.ComputeCycles,
			StallCycles:   base.StallCycles,
		}
	}
	sec := dev.Seconds(dev.Makespan(items, 4, tile.Dynamic)) + xfer
	fmt.Printf("%8s %8s %8s %24s %18s %12s\n", "genes", "expts", "perms", "exhaustive perms (min)", "early-exit (min)", "paper (min)")
	fmt.Printf("%8d %8d %8d %24.1f %18.1f %12.1f\n", n, mm, 30, exSec/60, sec/60, 22.0)
}

// F1: host strong scaling over worker threads, simulated from measured
// per-tile costs (this container has runtime.NumCPU()==1, so real
// thread scaling cannot be observed directly; per-tile costs are
// measured for real, then replayed onto W workers).
func (s *suite) f1() {
	header("F1", "host thread scaling (simulated from measured per-tile costs)")
	n, m, perms := 600, 337, 20
	if s.quick {
		n, m, perms = 250, 128, 10
	}
	d := s.dataset(n, m)
	prof, err := tinge.ProfileTiles(d.Expr, tinge.Config{
		Seed: s.seed, Permutations: perms, Workers: 1, TileSize: 16,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured: %d tiles, %.2fµs/evaluation, serial mi phase %.3fs (on %d CPU)\n",
		len(prof.Tiles), prof.EvalSeconds*1e6, prof.SimMakespan(1, tinge.Dynamic),
		runtime.GOMAXPROCS(0))
	fmt.Printf("%9s %10s %9s %11s\n", "threads", "mi(s)", "speedup", "efficiency")
	base := prof.SimMakespan(1, tinge.Dynamic)
	for _, w := range []int{1, 2, 4, 8, 16, 32, 64} {
		t := prof.SimMakespan(w, tinge.Dynamic)
		sp := base / t
		fmt.Printf("%9d %10.3f %9.2f %11.2f\n", w, t, sp, sp/float64(w))
	}
}

// F2: kernel formulations — scalar scatter baseline vs the
// vectorization-oriented restructurings, measured on the host and
// modeled on the Phi's 16-lane VPU. The block scatter (PairBlocked) is
// the kernel every scan runs; the others exist for this study.
func (s *suite) f2() {
	header("F2", "MI kernel formulations: measured host µs and modeled Phi cycles")
	ms := []int{256, 512, 1024, 2048, 3137}
	if s.quick {
		ms = []int{128, 256, 512}
	}
	reps := 200
	if s.quick {
		reps = 50
	}
	dev := phi.XeonPhi5110P()
	fmt.Printf("%8s | %11s %11s %11s %11s %8s | %11s %11s %8s\n",
		"samples", "scalar(µs)", "bucket(µs)", "blocked(µs)", "dense(µs)", "speedup",
		"phiScal(kc)", "phiVec(kc)", "phiGain")
	for _, m := range ms {
		d := s.dataset(16, m)
		norm := d.Expr.Clone()
		norm.RankNormalize()
		wm := bspline.Precompute(bspline.MustNew(3, 10), norm)
		wm.BuildDense() // PairVec's rows, built before its timing
		est := mi.NewEstimator(wm)
		ws := mi.NewWorkspace(est)
		timeKernel := func(f func(i, j int)) float64 {
			start := time.Now()
			for r := 0; r < reps; r++ {
				f(r%15, 15)
			}
			return time.Since(start).Seconds() / float64(reps) * 1e6
		}
		sc := timeKernel(func(i, j int) { est.PairScalar(i, j, ws) })
		bk := timeKernel(func(i, j int) { est.PairBucketed(i, j, ws) })
		bl := timeKernel(func(i, j int) { est.PairBlocked(i, j, ws) })
		vec := timeKernel(func(i, j int) { est.PairVec(i, j, ws) })
		pScal := dev.TileCost(phi.KernelParams{Pairs: 1, Samples: m, Order: 3, Bins: 10}).ComputeCycles
		pVec := dev.TileCost(phi.KernelParams{Pairs: 1, Samples: m, Order: 3, Bins: 10, Vectorized: true}).ComputeCycles
		fmt.Printf("%8d | %11.2f %11.2f %11.2f %11.2f %8.2f | %11.1f %11.1f %8.2f\n",
			m, sc, bk, bl, vec, sc/bl, pScal/1e3, pVec/1e3, pScal/pVec)
	}
	fmt.Println("(speedup = scalar / blocked, the block scatter every scan runs: SSE2 on")
	fmt.Println(" amd64. The host has no 16-wide SIMD, so the dense dot-product")
	fmt.Println(" formulation only wins on the modeled VPU)")
}

// F3: simulated Phi scaling grid: cores x threads-per-core.
func (s *suite) f3() {
	header("F3", "simulated Xeon Phi scaling: cores x threads/core")
	n, m, q := 2000, 3137, 30
	tsize := 32
	if s.quick {
		n, tsize = 800, 12
	}
	// Tile size chosen so tiles >> 240 workers; coarser tiling shows
	// granularity artifacts instead of the architecture effects.
	tiles := tile.Decompose(n, tsize)
	fmt.Printf("%7s %6s %6s %6s %6s  (simulated seconds)\n", "cores", "t=1", "t=2", "t=3", "t=4")
	base := phi.XeonPhi5110P()
	for _, cores := range []int{15, 30, 45, 60} {
		dev := base
		dev.Cores = cores
		row := fmt.Sprintf("%7d", cores)
		for tpc := 1; tpc <= 4; tpc++ {
			items := make([]phi.Work, len(tiles))
			for i, tl := range tiles {
				items[i] = dev.TileCost(phi.KernelParams{
					Pairs: tl.Pairs(), Samples: m, Order: 3, Bins: 10,
					Perms: q / 10, Vectorized: true,
				})
			}
			sec := dev.Seconds(dev.Makespan(items, tpc, tile.Dynamic))
			row += fmt.Sprintf(" %6.1f", sec)
		}
		fmt.Println(row)
	}
	fmt.Println("(expect: halving from t=1 to t=2, flat 2..4 for this compute-bound kernel;")
	fmt.Println(" near-linear in cores)")
}

// F4: scheduling policies under permutation-test skew. Per-tile costs
// are measured once (the early-exit permutation test makes
// survivor-dense tiles much heavier), then each policy's makespan is
// simulated at a Phi-like worker count.
func (s *suite) f4() {
	header("F4", "tile scheduling under permutation-test skew (simulated, 64 workers)")
	n, m, perms := 500, 337, 40
	if s.quick {
		n, m, perms = 250, 128, 20
	}
	d := s.dataset(n, m)
	prof, err := tinge.ProfileTiles(d.Expr, tinge.Config{
		Seed: s.seed, Permutations: perms, Workers: 1, TileSize: 16,
	})
	if err != nil {
		log.Fatal(err)
	}
	costs := prof.TileSeconds()
	lo, hi := costs[0], costs[0]
	for _, c := range costs {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	fmt.Printf("tile cost skew: min %.1fµs, max %.1fµs (%.1fx)\n", lo*1e6, hi*1e6, hi/lo)
	const workers = 64
	fmt.Printf("%15s %12s %10s\n", "policy", "makespan(ms)", "vs best")
	best := math.Inf(1)
	type row struct {
		p  tinge.Policy
		ms float64
	}
	var rows []row
	for _, p := range []tinge.Policy{tinge.StaticBlock, tinge.StaticCyclic, tinge.Dynamic, tinge.Stealing} {
		ms := prof.SimMakespan(workers, p)
		rows = append(rows, row{p, ms})
		if ms < best {
			best = ms
		}
	}
	for _, r := range rows {
		fmt.Printf("%15v %12.3f %10.2f\n", r.p, r.ms*1e3, r.ms/best)
	}
}

// F5: permutation count sweep.
func (s *suite) f5() {
	header("F5", "permutation testing: cost and threshold vs q")
	n, m := 400, 337
	if s.quick {
		n, m = 200, 128
	}
	qs := []int{10, 20, 30, 50, 100}
	if s.quick {
		qs = []int{5, 10, 20}
	}
	d := s.dataset(n, m)
	fmt.Printf("%6s %10s %12s %10s %8s\n", "q", "wall(s)", "I_alpha", "evals", "edges")
	for _, q := range qs {
		start := time.Now()
		res, err := tinge.InferDataset(d, tinge.Config{Seed: s.seed, Permutations: q})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d %10.3f %12.4f %10d %8d\n",
			q, time.Since(start).Seconds(), res.Threshold, res.PairsEvaluated, res.Network.Len())
	}
}

// F6: cluster baseline rank scaling and traffic. Real runs over the
// in-process MPI runtime supply the communication volume; the scaling
// curve is simulated from measured per-tile costs plus a 10GbE
// interconnect model (this container cannot run ranks in parallel).
func (s *suite) f6() {
	header("F6", "cluster TINGe baseline: rank scaling and traffic")
	n, m, perms := 400, 337, 20
	if s.quick {
		n, m, perms = 200, 128, 10
	}
	d := s.dataset(n, m)
	prof, err := tinge.ProfileTiles(d.Expr, tinge.Config{
		Seed: s.seed, Permutations: perms, Workers: 1, TileSize: 16,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Interconnect model: 10GbE.
	const (
		netBW  = 1.25e9 // bytes/s
		netLat = 50e-6  // per message
	)
	fmt.Printf("%7s %10s %12s %11s %9s %10s %15s\n",
		"ranks", "msgs", "bytes", "simWall(s)", "speedup", "commFrac", "ar lin/tree(µs)")
	var base float64
	for _, r := range []int{1, 2, 4, 8, 16} {
		res, err := tinge.InferDataset(d, tinge.Config{
			Engine: tinge.Cluster, Ranks: r, Seed: s.seed, Permutations: perms,
		})
		if err != nil {
			log.Fatal(err)
		}
		compute := prof.SimMakespan(r, tinge.StaticCyclic)
		comm := float64(res.Messages)*netLat + float64(res.TrafficBytes)/netBW
		wall := compute + comm
		if base == 0 {
			base = wall
		}
		frac := 0.0
		if wall > 0 {
			frac = comm / wall
		}
		// Per-allreduce critical-path latency under the two collective
		// schedules — the term that grows with machine size and
		// motivates the paper's single-chip solution.
		arLin := float64(mpi.CollectiveSteps(r, false)) * netLat * 1e6
		arTree := float64(mpi.CollectiveSteps(r, true)) * netLat * 1e6
		fmt.Printf("%7d %10d %12d %11.3f %9.2f %9.1f%% %8.0f/%-6.0f\n",
			r, res.Messages, res.TrafficBytes, wall, base/wall, 100*frac, arLin, arTree)
	}
}

// F7: offload pipeline: double buffering vs serial transfers. The
// compute:transfer ratio grows linearly with the gene count (pair work
// is quadratic, transfer linear), so small problems are transfer-bound
// — where double buffering matters — while the whole-genome run is
// compute-bound and overlap is nearly free insurance.
func (s *suite) f7() {
	header("F7", "offload pipeline: serial vs double-buffered transfers (16 chunks)")
	m := 3137
	link := phi.PCIeGen2x16()
	dev := phi.XeonPhi5110P()
	fmt.Printf("%8s %12s %12s %12s %14s %8s\n",
		"genes", "xfer(s)", "compute(s)", "serial(s)", "pipelined(s)", "saving")
	for _, n := range []int{100, 250, 500, 2000, 15575} {
		tiles := tile.Decompose(n, 16)
		var totalCycles float64
		for _, tl := range tiles {
			totalCycles += dev.TileCost(phi.KernelParams{
				Pairs: tl.Pairs(), Samples: m, Order: 3, Bins: 10, Vectorized: true,
			}).ComputeCycles
		}
		computeSec := dev.Seconds(totalCycles / float64(dev.Cores*2))
		inputBytes := int64(n) * 10 * int64(m) * 4
		const chunks = 16
		transfers := make([]float64, chunks)
		computes := make([]float64, chunks)
		for i := range transfers {
			transfers[i] = link.TransferTime(inputBytes / int64(chunks))
			computes[i] = computeSec / float64(chunks)
		}
		serial := phi.PipelineTime(transfers, computes, false)
		piped := phi.PipelineTime(transfers, computes, true)
		var xferTotal float64
		for _, x := range transfers {
			xferTotal += x
		}
		fmt.Printf("%8d %12.4f %12.4f %12.4f %14.4f %7.1f%%\n",
			n, xferTotal, computeSec, serial, piped, 100*(serial-piped)/serial)
	}
}

// F8: Xeon vs Xeon Phi, simulated single-chip comparison.
func (s *suite) f8() {
	header("F8", "Xeon vs Xeon Phi (simulated single-chip comparison)")
	m, q := 3137, 30
	sizes := []int{2000, 4000, 8000, 15575}
	if s.quick {
		sizes = []int{1000, 2000}
	}
	devP := phi.XeonPhi5110P()
	devX := phi.XeonE5()
	fmt.Printf("%8s %12s %12s %11s %9s %10s %10s %8s\n",
		"genes", "xeon(min)", "phi(min)", "hybrid(min)", "phi gain", "xeon(kJ)", "phi(kJ)", "J gain")
	for _, n := range sizes {
		tiles := tile.Decompose(n, 64)
		timeOn := func(dev phi.Device, tpc int) float64 {
			items := make([]phi.Work, len(tiles))
			for i, tl := range tiles {
				items[i] = dev.TileCost(phi.KernelParams{
					Pairs: tl.Pairs(), Samples: m, Order: 3, Bins: 10,
					Perms: q / 10, Vectorized: true,
				})
			}
			return dev.Seconds(dev.Makespan(items, tpc, tile.Dynamic))
		}
		x := timeOn(devX, 2)
		p := timeOn(devP, 4) + phi.PCIeGen2x16().TransferTime(int64(n)*10*int64(m)*4)
		// Ideal host+coprocessor split: combined throughput is the sum,
		// so time is the harmonic combination (transfers overlap).
		hy := x * p / (x + p)
		xJ := devX.Energy(x, 1)
		pJ := devP.Energy(p, 1)
		fmt.Printf("%8d %12.1f %12.1f %11.1f %9.2f %10.1f %10.1f %8.2f\n",
			n, x/60, p/60, hy/60, x/p, xJ/1e3, pJ/1e3, xJ/pJ)
	}
}

// T3: accuracy — estimator vs analytic Gaussian MI, and network
// recovery against the ground truth vs baselines.
func (s *suite) t3() {
	header("T3", "accuracy: estimator validation and network recovery")
	// (a) Estimator vs analytic Gaussian MI.
	fmt.Println("(a) B-spline MI vs analytic MI of a bivariate Gaussian (m=3137),")
	fmt.Println("    cross-checked by two independent estimators: KSG k-NN (k=4,")
	fmt.Println("    m=1000) and Darbellay-Vajda adaptive partitioning:")
	fmt.Printf("%8s %12s %12s %12s %12s %12s\n", "rho", "analytic", "bspline", "binning", "ksg", "adaptive")
	m := 3137
	mKSG := 1000
	if s.quick {
		m, mKSG = 512, 400
	}
	rng := perm.NewRNG(s.seed)
	basis := bspline.MustNew(3, 10)
	for _, rho := range []float64{0, 0.2, 0.4, 0.6, 0.8, 0.95} {
		xi := make([]float32, m)
		xj := make([]float32, m)
		c := math.Sqrt(1 - rho*rho)
		for t := 0; t < m; t++ {
			a, b := rng.NormFloat64(), rng.NormFloat64()
			xi[t] = float32(a)
			xj[t] = float32(rho*a + c*b)
		}
		me := tinge.MatrixFromRows([][]float32{xi, xj})
		me.RankNormalize()
		est := mi.PairReference(basis, me.Row(0), me.Row(1))
		bin := mi.BinningMI(me.Row(0), me.Row(1), 10)
		ksg := mi.KSG(xi[:mKSG], xj[:mKSG], 4)
		adaptive := mi.AdaptiveMI(xi, xj, 16)
		fmt.Printf("%8.2f %12.4f %12.4f %12.4f %12.4f %12.4f\n",
			rho, mi.GaussianMI(rho), est, bin, ksg, adaptive)
	}

	// (b) Network recovery vs baselines at matched edge count.
	fmt.Println("\n(b) network recovery (precision/recall/F1 at matched edge budget):")
	n, mm := 100, 400
	if s.quick {
		n, mm = 60, 200
	}
	d := expr.MustGenerate(expr.GenConfig{
		Genes: n, Experiments: mm, AvgRegulators: 1, Noise: 0.05, Seed: s.seed,
	})
	truth := d.TrueEdgeSet()
	res, err := tinge.InferDataset(d, tinge.Config{Seed: s.seed, Permutations: 20, DPI: true, DPITolerance: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	budget := res.Network.Len()
	fmt.Printf("%22s %7s %10s %8s %8s\n", "method", "edges", "precision", "recall", "F1")
	report := func(name string, net *tinge.Network) {
		sc := net.ScoreAgainst(truth)
		fmt.Printf("%22s %7d %10.3f %8.3f %8.3f\n", name, net.Len(), sc.Precision, sc.Recall, sc.F1)
	}
	report("tinge (MI+perm+DPI)", res.Network)

	norm := d.Expr.Clone()
	norm.RankNormalize()
	type scored struct {
		i, j int
		w    float64
	}
	rank := func(f func(i, j int) float64) *tinge.Network {
		var all []scored
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				all = append(all, scored{i, j, f(i, j)})
			}
		}
		sort.Slice(all, func(a, b int) bool { return all[a].w > all[b].w })
		net := tinge.NewNetwork(n)
		for _, e := range all[:budget] {
			net.AddEdge(e.i, e.j, e.w)
		}
		return net
	}
	report("binning MI topK", rank(func(i, j int) float64 {
		return mi.BinningMI(norm.Row(i), norm.Row(j), 10)
	}))
	report("|pearson| topK", rank(func(i, j int) float64 {
		return math.Abs(stats.Pearson(toF64(d.Expr.Row(i)), toF64(d.Expr.Row(j))))
	}))

	resNoDPI, err := tinge.InferDataset(d, tinge.Config{Seed: s.seed, Permutations: 20})
	if err != nil {
		log.Fatal(err)
	}
	report("tinge w/o DPI", resNoDPI.Network)
}

func toF64(x []float32) []float64 {
	o := make([]float64, len(x))
	for i, v := range x {
		o[i] = float64(v)
	}
	return o
}

// F9: scaling beyond the whole genome — the 8 GB device memory forces
// out-of-core panel streaming above ~30k genes. The table shows the
// panel plan and that transfers stay a small share even then (pair
// work is quadratic with a large constant), so the single-chip limit
// is compute time, not the PCIe link — at 160k genes the scan takes
// ~1.5 simulated hours, the regime where the cluster baseline wins
// again.
func (s *suite) f9() {
	header("F9", "beyond whole genome: out-of-core panel streaming (simulated Phi)")
	m := 3137
	dev := phi.XeonPhi5110P()
	link := phi.PCIeGen2x16()
	fmt.Printf("%9s %8s %12s %14s %14s %10s\n",
		"genes", "panels", "weights(GB)", "transfers(GB)", "compute(min)", "xferShare")
	for _, n := range []int{15575, 40000, 80000, 160000} {
		plan := dev.PlanOutOfCore(n, 10, m)
		// Compute from analytic pair counts (tiling detail doesn't
		// change the total).
		pairs := float64(tile.TotalPairs(n))
		perEval := dev.TileCost(phi.KernelParams{Pairs: 1, Samples: m, Order: 3, Bins: 10, Vectorized: true}).ComputeCycles
		computeSec := dev.Seconds(pairs * 1.3 * perEval / float64(dev.Cores)) // 1.3: permutation survivors
		xferSec := link.TransferTime(plan.TotalTransferBytes)
		weights := float64(int64(n)*10*int64(m)*4) / 1e9
		fmt.Printf("%9d %8d %12.2f %14.2f %14.1f %9.1f%%\n",
			n, plan.Panels, weights, float64(plan.TotalTransferBytes)/1e9,
			computeSec/60, 100*xferSec/(xferSec+computeSec))
	}
}

// A1 (ablation): tile size vs simulated Phi makespan. Small tiles give
// scheduling granularity but poor cache reuse (stall cycles grow);
// large tiles starve the 240 threads — the sweet spot the paper tunes.
func (s *suite) a1() {
	header("A1", "ablation: tile size on the simulated Phi (n=2000, m=3137)")
	n, m := 2000, 3137
	dev := phi.XeonPhi5110P()
	fmt.Printf("%9s %8s %14s %14s\n", "tileSize", "tiles", "makespan(s)", "stallShare")
	for _, size := range []int{4, 16, 32, 64, 128, 256, 512} {
		tiles := tile.Decompose(n, size)
		items := make([]phi.Work, len(tiles))
		var stall, compute float64
		for i, tl := range tiles {
			items[i] = dev.TileCost(phi.KernelParams{
				Pairs: tl.Pairs(), Samples: m, Order: 3, Bins: 10,
				Perms: 3, Vectorized: true,
			})
			stall += items[i].StallCycles
			compute += items[i].ComputeCycles
		}
		ms := dev.Seconds(dev.Makespan(items, 4, tile.Dynamic))
		fmt.Printf("%9d %8d %14.2f %13.1f%%\n",
			size, len(tiles), ms, 100*stall/(stall+compute))
	}
}

// A2 (ablation): DPI tolerance — edges kept and accuracy against the
// ground truth.
func (s *suite) a2() {
	header("A2", "ablation: DPI tolerance (accuracy vs ground truth)")
	n, m := 80, 300
	if s.quick {
		n, m = 50, 150
	}
	d := expr.MustGenerate(expr.GenConfig{
		Genes: n, Experiments: m, AvgRegulators: 1, Noise: 0.05, Seed: s.seed,
	})
	truth := d.TrueEdgeSet()
	res, err := tinge.InferDataset(d, tinge.Config{Seed: s.seed, Permutations: 15})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("raw network: %d edges (truth %d)\n", res.Network.Len(), len(truth))
	fmt.Printf("%10s %8s %10s %8s %8s\n", "tolerance", "edges", "precision", "recall", "F1")
	for _, tol := range []float64{0, 0.05, 0.1, 0.2, 0.4} {
		pruned := res.Network.DPI(tol)
		sc := pruned.ScoreAgainst(truth)
		fmt.Printf("%10.2f %8d %10.3f %8.3f %8.3f\n",
			tol, pruned.Len(), sc.Precision, sc.Recall, sc.F1)
	}
}
