// Command tinge infers a gene regulatory network from an expression
// TSV using the TINGe-Phi pipeline: B-spline mutual information with
// permutation testing, on the host, simulated-Phi, or cluster engine.
//
// Usage:
//
//	tinge -in expr.tsv -out network.tsv -engine host -permutations 30 -dpi
//
// The input is a header+rows TSV (see cmd/genexpr). The output is a
// "geneA<TAB>geneB<TAB>MI" edge list; a run summary goes to stderr.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"sync/atomic"

	"repro/tinge"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tinge: ")

	var (
		in       = flag.String("in", "", "input expression file (required)")
		format   = flag.String("format", "tsv", "input format: tsv|soft (NCBI GEO SOFT family file)")
		out      = flag.String("out", "", "output edge TSV (default stdout)")
		engine   = flag.String("engine", "host", "execution engine: host|phi|cluster|hybrid|ooc")
		order    = flag.Int("order", 3, "B-spline order k")
		bins     = flag.Int("bins", 10, "histogram bins b")
		perms    = flag.Int("permutations", 30, "permutation-test count q")
		alpha    = flag.Float64("alpha", 0.01, "significance level for the pooled-null threshold")
		nullPair = flag.Int("null-pairs", 500, "pairs sampled for the pooled null")
		dpi      = flag.Bool("dpi", false, "apply data-processing-inequality pruning (permutation-tests only the threshold survivors it needs)")
		dpiTol   = flag.Float64("dpi-tolerance", 0.1, "DPI near-tie tolerance (0 = strict: every triangle's weakest edge is pruned)")
		cmi      = flag.Bool("cmi", false, "apply the conditional-MI successor filter after DPI")
		cmiRatio = flag.Float64("cmi-ratio", 0.3, "CMI filter removal threshold: prune (i,j) when min_k I(i;j|k) < ratio*I(i;j)")
		workers  = flag.Int("workers", 0, "host worker goroutines (0 = GOMAXPROCS)")
		tileSize = flag.Int("tile", 32, "pair-tile edge length")
		policy   = flag.String("policy", "dynamic", "tile schedule: static-block|static-cyclic|dynamic|stealing")
		seed     = flag.Uint64("seed", 1, "run seed (permutations, null sample)")
		kernel   = flag.String("kernel", "bucketed", "MI kernel: bucketed|vec|scalar")
		prec     = flag.String("precision", "float64", "MI compute precision: float64|float32")
		ranks    = flag.Int("ranks", 4, "cluster engine world size")
		tpc      = flag.Int("threads-per-core", 0, "simulated Phi hardware threads per core (0 = device max)")
		names    = flag.Bool("names", true, "write gene names instead of indices")
		truth    = flag.String("truth", "", "optional ground-truth edge TSV; prints precision/recall/F1")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON of the tile schedule")
		progress = flag.Bool("progress", false, "print scan progress to stderr")
		ckpt     = flag.String("checkpoint", "", "checkpoint file: resume from it if present, save progress to it")
		ckptIvl  = flag.Int("checkpoint-every", 64, "tiles between checkpoint saves")
		maxGenes = flag.Int("max-genes", 0, "keep only the first N genes (0 = all)")

		// Ensemble consensus mode.
		bootstraps = flag.Int("bootstraps", 0, "infer an ensemble of B networks over seeded sample subsets and emit the consensus (0 = single network)")
		subsample  = flag.Float64("subsample", 0, "fraction of experiments each bootstrap samples (0 = default 0.8)")
		support    = flag.Float64("support", 0, "consensus support cutoff: keep edges in >= cutoff*B bootstraps (0 = default 0.5)")
		eseed      = flag.Uint64("eseed", 0, "ensemble subsampling seed (independent of -seed)")
		ensOut     = flag.String("ensemble-out", "", "write the per-edge support/frequency table TSV here")

		// Out-of-core scan (engine ooc, or host with a budget).
		memBudget = flag.Int64("memory-budget", 0, "out-of-core memory budget in bytes: resident panels + all worker scratch (0 = resident scan; ooc engine defaults to 64 MiB)")
		panelRows = flag.Int("panel-rows", 0, "spill-store panel height in gene rows (0 = tile size; must be a multiple of it)")
		spillDir  = flag.String("spill-dir", "", "directory for the out-of-core spill file (default OS temp dir)")

		maxRecov = flag.Int("max-recoveries", 0, "cluster rank-failure recoveries allowed (0 = ranks-1, -1 = disabled)")

		// Chaos fault injection (cluster engine; for testing the
		// recovery path — results stay bit-identical to a clean run).
		faultKillRank  = flag.Int("fault-kill-rank", -1, "kill this rank (-1 = no kill)")
		faultKillAfter = flag.Int("fault-kill-after-sends", 0, "kill trigger: after the rank's Nth send")
		faultKillPhase = flag.String("fault-kill-phase", "", "kill trigger: entering this phase (null-pool|tile-scan|gather|test-scan)")
		faultSeed      = flag.Uint64("fault-seed", 1, "fault-injection RNG seed")
		faultDelayProb = flag.Float64("fault-delay-prob", 0, "per-message delay probability")
		faultDelayMax  = flag.Duration("fault-delay-max", 0, "max injected per-message delay")
	)
	flag.Parse()

	if *in == "" {
		flag.Usage()
		log.Fatal("missing -in")
	}
	// The ooc engine on a plain TSV streams rows straight into the spill
	// store — the expression matrix is never resident. Other formats (or
	// -max-genes subsetting) load the dataset first; the engine then
	// spills it internally.
	streaming := *engine == "ooc" && *format == "tsv" && *maxGenes == 0
	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	var data *tinge.Dataset
	var store *tinge.PanelStore
	var geneNames []string
	if streaming {
		pr := *panelRows
		if pr == 0 {
			pr = *tileSize
		}
		budget := *memBudget
		if budget == 0 {
			budget = 64 << 20
		}
		store, geneNames, err = tinge.IngestExpressionTSV(f, *spillDir, pr, budget)
		if err == nil {
			defer store.Close()
		}
	} else {
		switch *format {
		case "tsv":
			data, err = tinge.ReadExpressionTSV(f)
		case "soft":
			data, err = tinge.ReadSOFT(f)
		default:
			log.Fatalf("unknown format %q", *format)
		}
	}
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	if data != nil {
		if *maxGenes > 0 && *maxGenes < data.N() {
			data = data.Subset(*maxGenes)
			fmt.Fprintf(os.Stderr, "tinge: subset to first %d genes\n", data.N())
		}
		if missing := data.MissingCount(); missing > 0 {
			data.ImputeRowMean()
			fmt.Fprintf(os.Stderr, "tinge: imputed %d missing values (row means)\n", missing)
		}
		geneNames = data.Genes
	}

	cfg := tinge.Config{
		Order:           *order,
		Bins:            *bins,
		Permutations:    *perms,
		Alpha:           *alpha,
		NullSamplePairs: *nullPair,
		DPI:             *dpi,
		DPITolerance:    *dpiTol,
		CMIFilter:       *cmi,
		CMIRatio:        *cmiRatio,
		Workers:         *workers,
		TileSize:        *tileSize,
		Seed:            *seed,
		Ranks:           *ranks,
		ThreadsPerCore:  *tpc,
		CheckpointPath:  *ckpt,
		CheckpointEvery: *ckptIvl,
		MaxRecoveries:   *maxRecov,
		MemoryBudget:    *memBudget,
		PanelRows:       *panelRows,
		SpillDir:        *spillDir,
		Ensemble: tinge.EnsembleConfig{
			Bootstraps:    *bootstraps,
			SubsampleFrac: *subsample,
			Seed:          *eseed,
			SupportCutoff: *support,
		},
	}
	if *faultKillRank >= 0 || *faultDelayProb > 0 {
		plan := &tinge.FaultPlan{
			Seed:      *faultSeed,
			DelayProb: *faultDelayProb,
			DelayMax:  *faultDelayMax,
		}
		if *faultKillRank >= 0 {
			plan.Kill = &tinge.KillSpec{
				Rank:       *faultKillRank,
				AfterSends: *faultKillAfter,
				Phase:      *faultKillPhase,
			}
		}
		cfg.Fault = plan
	}
	switch *engine {
	case "host":
		cfg.Engine = tinge.Host
	case "phi":
		cfg.Engine = tinge.Phi
	case "cluster":
		cfg.Engine = tinge.Cluster
	case "hybrid":
		cfg.Engine = tinge.Hybrid
	case "ooc":
		cfg.Engine = tinge.OutOfCore
	default:
		log.Fatalf("unknown engine %q", *engine)
	}
	switch *kernel {
	case "bucketed":
		cfg.Kernel = tinge.KernelBucketed
	case "vec":
		cfg.Kernel = tinge.KernelVec
	case "scalar":
		cfg.Kernel = tinge.KernelScalar
	default:
		log.Fatalf("unknown kernel %q", *kernel)
	}
	switch *prec {
	case "float64", "64":
		cfg.Precision = tinge.Float64
	case "float32", "32":
		cfg.Precision = tinge.Float32
	default:
		log.Fatalf("unknown precision %q", *prec)
	}
	switch *policy {
	case "static-block":
		cfg.Policy = tinge.StaticBlock
	case "static-cyclic":
		cfg.Policy = tinge.StaticCyclic
	case "dynamic":
		cfg.Policy = tinge.Dynamic
	case "stealing":
		cfg.Policy = tinge.Stealing
	default:
		log.Fatalf("unknown policy %q", *policy)
	}

	var rec *tinge.TraceRecorder
	if *traceOut != "" {
		rec = tinge.NewTraceRecorder()
		cfg.Trace = rec
	}
	if *progress {
		var lastPct int64 = -1
		cfg.Progress = func(done, total int) {
			pct := int64(done * 100 / total)
			if pct%10 == 0 && atomic.SwapInt64(&lastPct, pct) != pct {
				fmt.Fprintf(os.Stderr, "tinge: %3d%% (%d/%d tiles)\n", pct, done, total)
			}
		}
	}

	var res *tinge.Result
	if store != nil {
		res, err = tinge.InferStore(store, cfg)
	} else {
		res, err = tinge.InferDataset(data, cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	if rec != nil {
		tf, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := rec.WriteChromeTrace(tf); err != nil {
			log.Fatal(err)
		}
		tf.Close()
		fmt.Fprintf(os.Stderr, "tinge: wrote %d trace spans to %s\n", rec.Len(), *traceOut)
	}

	w := os.Stdout
	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer of.Close()
		w = of
	}
	var nameList []string
	if *names {
		nameList = geneNames
	}
	if err := res.Network.WriteTSV(w, nameList); err != nil {
		log.Fatal(err)
	}
	if *ensOut != "" {
		if res.Ensemble == nil {
			log.Fatal("-ensemble-out needs -bootstraps")
		}
		ef, err := os.Create(*ensOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.Ensemble.WriteSupportTSV(ef, nameList); err != nil {
			log.Fatal(err)
		}
		if err := ef.Close(); err != nil {
			log.Fatal(err)
		}
	}

	nGenes, mExps := len(geneNames), 0
	if store != nil {
		mExps = store.Cols()
	} else {
		mExps = data.M()
	}
	fmt.Fprintf(os.Stderr, "tinge: %d genes x %d experiments, engine=%s\n", nGenes, mExps, *engine)
	fmt.Fprintf(os.Stderr, "tinge: threshold I_alpha=%.4f (null size %d), edges=%d (raw %d)\n",
		res.Threshold, res.NullSize, res.Network.Len(), res.RawEdges)
	fmt.Fprintf(os.Stderr, "tinge: MI evaluations=%d (+%d permutation), imbalance=%.3f\n",
		res.PairsEvaluated, res.PermEvaluations, res.Imbalance)
	if res.Ensemble != nil {
		frac, cut := cfg.Ensemble.SubsampleFrac, cfg.Ensemble.SupportCutoff
		if frac == 0 {
			frac = tinge.DefaultSubsampleFrac
		}
		if cut == 0 {
			cut = tinge.DefaultSupportCutoff
		}
		fmt.Fprintf(os.Stderr, "tinge: ensemble: %d bootstraps (subsample %g, eseed %d), %d distinct edges, consensus %d at support >= %g\n",
			res.Ensemble.Bootstraps(), frac, cfg.Ensemble.Seed,
			res.Ensemble.Len(), res.Network.Len(), cut)
	}
	fmt.Fprintf(os.Stderr, "tinge: phases: %s\n", res.Timer)
	for _, f := range tinge.CounterSchema() {
		if v := f.Value(&res.Counters); v != 0 {
			fmt.Fprintf(os.Stderr, "tinge: %s=%s %s\n", f.Key, strconv.FormatFloat(v, 'f', -1, 64), f.Unit)
		}
	}
	if *truth != "" {
		tf, err := os.Open(*truth)
		if err != nil {
			log.Fatal(err)
		}
		tnet, err := tinge.ReadNetworkTSV(tf, nGenes)
		tf.Close()
		if err != nil {
			log.Fatal(err)
		}
		tset := make(map[int64]bool)
		for _, e := range tnet.Edges() {
			tset[int64(e.I)*int64(nGenes)+int64(e.J)] = true
		}
		sc := res.Network.ScoreAgainst(tset)
		fmt.Fprintf(os.Stderr, "tinge: vs truth: precision %.3f, recall %.3f, F1 %.3f\n",
			sc.Precision, sc.Recall, sc.F1)
	}
}
