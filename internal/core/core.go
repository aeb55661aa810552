// Package core implements the TINGe-Phi pipeline — the paper's primary
// contribution: whole-genome mutual-information network construction
// with permutation testing, parallelized across multi-level hardware.
//
// Pipeline phases (matching the paper/TINGe):
//
//  1. normalize: rank-transform each gene's expression into (0,1).
//  2. precompute: evaluate B-spline weights once per (gene, sample).
//  3. threshold: estimate the global significance threshold I_alpha
//     from the pooled null distribution of a deterministic sample of
//     permuted pairs.
//  4. mi: observe — for every pair (i<j), compute MI and keep the
//     survivors at or above I_alpha; select — pick the survivors whose
//     per-pair permutation check DPI still needs (all of them without
//     DPI; grn.TestSchedule); test — run each selected survivor's
//     check (the observed MI must exceed all q permuted MIs) with early
//     exit, the skew that motivates dynamic scheduling. Select and test
//     repeat until nothing new is selected; the network is the tested
//     survivors that passed.
//  5. dpi: optional data-processing-inequality pruning of that network,
//     equal to DPI over every survivor that would pass its check.
//
// Five engines map phases 3 and 4 onto hardware. They share one tile
// scan per pass (observe and test) and one commit log (threshold,
// survivors and verdicts, checkpoint), and differ only in scheduling
// and in where a tile's weight rows come from:
//
//   - Host: a goroutine pool over pair tiles of the resident weight
//     matrix (the paper's Xeon solution).
//   - Phi: the same computation, plus a simulated-time account on the
//     phi.Device model including PCIe offload (the paper's Xeon Phi
//     solution — we lack the hardware, so time is modeled, results are
//     exact).
//   - Hybrid: the same computation, with simulated time for a host and
//     coprocessor splitting the tiles by throughput.
//   - Cluster: ranks over the mpi runtime with a cyclic tile partition
//     and an all-gathered pooled null (the original TINGe cluster
//     baseline).
//   - OutOfCore: the goroutine pool over rows staged per tile from a
//     disk-backed panel store under a memory budget.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/bspline"
	"repro/internal/diskfault"
	"repro/internal/grn"
	"repro/internal/mat"
	"repro/internal/mi"
	"repro/internal/mpi"
	"repro/internal/panelstore"
	"repro/internal/phi"
	"repro/internal/stats"
	"repro/internal/tile"
	"repro/internal/trace"
)

// EngineKind selects the execution engine.
type EngineKind int

// Engines.
const (
	// Host runs on a goroutine pool (the Xeon path).
	Host EngineKind = iota
	// Phi runs on the host but accounts simulated coprocessor time
	// (the Xeon Phi path).
	Phi
	// Cluster runs over the in-process MPI runtime (the TINGe
	// baseline).
	Cluster
	// Hybrid models concurrent host + coprocessor execution: tiles are
	// split by device throughput, results computed exactly on the host,
	// simulated time is the slower share.
	Hybrid
	// OutOfCore runs the host tile scan against a disk-backed panel
	// store under a configurable memory budget instead of a resident
	// weight matrix — the whole-genome-scale path. Results are
	// bit-identical to Host for equal seeds.
	OutOfCore
)

// String names the engine.
func (e EngineKind) String() string {
	switch e {
	case Host:
		return "host"
	case Phi:
		return "phi"
	case Cluster:
		return "cluster"
	case Hybrid:
		return "hybrid"
	case OutOfCore:
		return "ooc"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// Precision selects the compute precision of the MI phase — the axis of
// the paper's native-float build. Float64 (the default) accumulates
// joint histograms and entropies in double precision; Float32 runs the
// single-precision kernels: float32 accumulation, single-precision log,
// and a smaller per-worker joint accumulator. The two paths produce the
// identical edge set at the default order/bin settings (MI values agree
// to ~1e-4 bits; see the golden test), so Float32 trades negligible
// estimator drift for bandwidth and footprint.
type Precision = mi.Precision

// Precisions.
const (
	Float64 = mi.Float64
	Float32 = mi.Float32
)

// DefaultDPITolerance is what a negative (unset-sentinel)
// Config.DPITolerance resolves to; DefaultCMIRatio likewise for a zero
// Config.CMIRatio.
const (
	DefaultDPITolerance = 0.1
	DefaultCMIRatio     = 0.3
)

// Ensemble-mode defaults: the customary bootstrap recipe subsamples
// 80% of the experiments per network and keeps edges present in at
// least half the bootstraps.
const (
	DefaultSubsampleFrac = 0.8
	DefaultSupportCutoff = 0.5
)

// EnsembleConfig turns one inference run into a bootstrap consensus:
// Bootstraps networks are inferred over seeded sample-index subsets of
// the experiments, per-edge support frequencies are aggregated, and
// the consensus network keeps edges whose frequency reaches
// SupportCutoff. The expensive whole-genome apparatus — rank
// normalization, the B-spline stencil precompute, the permutation
// pool, and each worker's estimator arenas and workspace — is
// built once and shared across all bootstraps; each bootstrap only
// gathers a column view of the precomputed weights.
//
// Determinism contract: for a fixed (Seed, Bootstraps, SubsampleFrac)
// the support matrix and consensus network are bit-identical across
// every engine, precision, and worker count, and across resume from a
// mid-ensemble checkpoint — bootstraps always fold in ascending order
// (float64 accumulation is not associative, so the order is part of
// the contract).
type EnsembleConfig struct {
	// Bootstraps is B, the number of bootstrap networks; 0 disables
	// ensemble mode entirely (every other field is then ignored).
	Bootstraps int
	// SubsampleFrac is the fraction of experiments each bootstrap
	// samples (without replacement); 0 resolves to
	// DefaultSubsampleFrac. The realized subset size
	// round(SubsampleFrac·m) must be at least 4 (the pipeline's
	// experiment floor) and is constant across bootstraps.
	SubsampleFrac float64
	// Seed drives the per-bootstrap subsample draws, independently of
	// Config.Seed (which keeps driving the permutation pool and the
	// null-pair sample).
	Seed uint64
	// SupportCutoff is the consensus frequency threshold in (0,1]; 0
	// resolves to DefaultSupportCutoff. It is applied after the last
	// bootstrap and is deliberately not part of the checkpoint
	// fingerprint: re-deriving a consensus at a different cutoff from
	// the same ensemble is sound.
	SupportCutoff float64
	// Start and Count restrict the run to the bootstrap range
	// [Start, Start+Count) — the fleet coordinator's unit of ensemble
	// fan-out (one chunk per bootstrap keeps the ascending fold order
	// at merge). Count == 0 runs every bootstrap. Partial runs skip the
	// consensus (Result.EnsembleNetworks carries the per-bootstrap
	// networks instead) and do not compose with a checkpoint.
	Start, Count int
}

// Enabled reports whether ensemble mode is on.
func (e EnsembleConfig) Enabled() bool { return e.Bootstraps > 0 }

// sampleCount resolves the per-bootstrap subset size for m experiments.
func (e EnsembleConfig) sampleCount(m int) (int, error) {
	mSub := int(math.Round(e.SubsampleFrac * float64(m)))
	if mSub > m {
		mSub = m
	}
	if mSub < 4 {
		return 0, fmt.Errorf("core: subsample fraction %v of %d experiments leaves %d < 4", e.SubsampleFrac, m, mSub)
	}
	return mSub, nil
}

// Config parameterizes a network-inference run. The zero value plus
// Validate yields the paper's defaults (order-3 splines, 10 bins, 30
// permutations) — except DPITolerance, whose zero value is strict DPI
// (the CLI and server expose the sentinel; library callers wanting the
// paper's 0.1 set it explicitly or pass a negative).
type Config struct {
	// Engine selects host, phi, or cluster execution.
	Engine EngineKind
	// Order is the B-spline order k (default 3).
	Order int
	// Bins is the histogram size b (default 10).
	Bins int
	// Permutations is q, the permutation-test count (default 30).
	Permutations int
	// Alpha is the significance level for the pooled-null threshold
	// (default 0.01).
	Alpha float64
	// NullSamplePairs is how many pairs contribute permuted MI values
	// to the pooled null (default 500, clamped to the pair count).
	NullSamplePairs int
	// DPI enables data-processing-inequality pruning — the parallel
	// tiled filter (grn.DPIParallel), bit-identical to the sequential
	// reference at every worker count and memory budget.
	DPI bool
	// DPITolerance protects near-tie triangles. 0 is strict DPI (every
	// violating triangle loses its weakest edge); negative values are
	// the "unset" sentinel and resolve to DefaultDPITolerance. Note the
	// zero value means strict: before the sentinel fix an explicit 0
	// was silently coerced to 0.1, making strict DPI unreachable.
	DPITolerance float64
	// CMIFilter enables the conditional-mutual-information successor
	// filter after DPI: edge (i, j) is removed when some common
	// neighbor k explains the dependence, I(i;j|k) < CMIRatio·I(i;j)
	// (estimated by equal-width binning at Bins per dimension). It runs
	// on the same sharded parallel sweep as DPI and matches the
	// sequential mi.CMIFilter exactly.
	CMIFilter bool
	// CMIRatio is the removal threshold ratio in (0,1]. 0 resolves to
	// DefaultCMIRatio (a ratio of exactly 0 could never remove an edge,
	// so 0 doubles as the unset sentinel).
	CMIRatio float64
	// Workers is the host worker count (default GOMAXPROCS).
	Workers int
	// TileSize is the pair-tile edge length (default 32).
	TileSize int
	// Policy is the tile scheduling policy (default Dynamic).
	Policy tile.Policy
	// Seed drives permutations; equal seeds give equal networks.
	Seed uint64
	// Precision selects the MI compute precision (default Float64).
	Precision Precision
	// Progress, when non-nil, is invoked once per tile committed in this
	// session, observed or tested, with (done, total) in tiles: total
	// counts one unit per tile pending observation when the scan began
	// plus one test unit per tile of the scan's range, and a test unit
	// is done when its tile is first tested in this session, or when the
	// test schedule finishes (one last call then completes the units of
	// tiles it never requested). total is fixed and done never
	// decreases. The calls come from worker goroutines, one at a time
	// and in order, so it must be safe for concurrent use; keep it cheap
	// — it sits on the scan's critical path. Every engine calls it; an
	// ensemble run scales it over the whole run.
	Progress func(done, total int)
	// Trace, when non-nil, records a span per pair tile on the row of
	// the worker (or cluster rank) that scanned it, plus per-worker
	// counter tracks, exportable as a Chrome trace. Every engine
	// records it.
	Trace *trace.Recorder
	// CheckpointPath enables resumable scans: when the file exists, the
	// run resumes from it (a parameter mismatch is an error); progress
	// is saved there every CheckpointEvery completed tiles and at the
	// end of the scan, so an interrupted whole-genome run loses at most
	// one save interval. Saves are checksummed and published atomically
	// with a ".prev" last-good rotation; a checkpoint whose every copy
	// is corrupt starts the scan fresh (Result.CheckpointRecoveries)
	// instead of failing the run.
	CheckpointPath string
	// CheckpointEvery is the save interval in completed tiles
	// (default 64).
	CheckpointEvery int

	// ChunkStart and ChunkTiles restrict phase 4 to the contiguous
	// tile-index range [ChunkStart, ChunkStart+ChunkTiles) of the
	// tile.Decompose order — the fleet coordinator's unit of fan-out.
	// ChunkTiles == 0 scans every tile (the default). Phase 3's pooled
	// null is seed-deterministic and independent of the chunk range, so
	// every chunk of one submission computes the identical threshold and
	// the union of the chunks' edge sets is bit-identical to an
	// unchunked scan. Host engine only (no memory budget): the fleet
	// fans chunks out to plain host workers.
	ChunkStart int
	ChunkTiles int

	// KnownNull, when non-nil, is this scan's phase-3 outcome, already
	// computed by a run over the same matrix with the same Order, Bins,
	// Permutations, NullSamplePairs, Alpha, Seed and Precision.
	// Phase 3 is then skipped: no null pair is evaluated and no
	// "threshold" timer phase is recorded. The caller vouches for the
	// value — a wrong one silently yields a wrong network. A resumed
	// checkpoint's own threshold takes precedence. In-process only: the
	// server fills it from a finished job of the same scan so sibling
	// fleet chunks share one null. Ensemble runs, which estimate one
	// threshold per bootstrap, reject it.
	KnownNull *PooledNull

	// Ensemble, when Ensemble.Bootstraps > 0, runs the whole pipeline
	// as a bootstrap consensus workload (see EnsembleConfig). All five
	// engines support it; tile chunking (ChunkTiles) does not compose
	// with it — the fleet fans ensembles out at bootstrap granularity
	// via Ensemble.Start/Count instead.
	Ensemble EnsembleConfig

	// MemoryBudget caps the out-of-core scan's total in-memory working
	// set in bytes: resident store panels plus every worker's scratch
	// (workspace, panel weight matrix, and the store's fixed ingest
	// buffers). Result.PeakTileBytes reports
	// the realized ceiling, which stays <= the budget. Used by the
	// OutOfCore engine (default 64 MiB there); setting it > 0 on the
	// Host engine routes the run through the same disk-backed scan.
	// Outside the budget sit the threshold survivors with their MI
	// (24 B each), resident on every engine for the test pass, and,
	// with DPI, the test schedule's walk state (grn.TestSchedule): the
	// survivors in walk order (28 B each), a survivor id per gene pair
	// (4 B per pair) and two bitsets of n² bits.
	MemoryBudget int64
	// PanelRows is the spill-store panel height in gene rows (default
	// TileSize; must be a positive multiple of TileSize so every tile's
	// row and column ranges live inside single panels).
	PanelRows int
	// SpillDir is where the panel store places its spill file (default
	// the OS temp dir).
	SpillDir string

	// Device is the simulated chip for the Phi engine (default
	// phi.XeonPhi5110P()).
	Device phi.Device
	// ThreadsPerCore is the simulated hardware-thread count per core
	// for the Phi engine (default Device.ThreadsPerCore).
	ThreadsPerCore int
	// Offload is the simulated PCIe link (default phi.PCIeGen2x16()).
	Offload phi.Offload
	// HostDevice is the host chip model for the Hybrid engine (default
	// phi.XeonE5()).
	HostDevice phi.Device

	// Ranks is the cluster engine's world size (default 4).
	Ranks int
	// MaxRecoveries bounds how many rank-failure recovery re-runs the
	// cluster engine performs before surfacing the AbortError (default
	// Ranks-1: tolerate every rank but one failing; -1 disables
	// recovery entirely). Recovery never changes results: committed
	// tiles are kept, pending tiles are redistributed cyclically over
	// the surviving ranks, and the threshold is seed-deterministic, so
	// the recovered network is bit-identical to the fault-free run.
	MaxRecoveries int
	// Fault injects deterministic failures into the cluster engine's
	// MPI world for chaos testing (see mpi.FaultPlan); nil disables
	// injection. Ignored by the other engines.
	Fault *mpi.FaultPlan
	// FS is the filesystem seam every persistence path of the run goes
	// through — checkpoint files, panel-store spills, and adjacency
	// spills (nil: the real filesystem). The disk-fault tests inject a
	// diskfault.Plan here; production runs leave it nil.
	FS diskfault.FS
}

// Validate fills defaults and rejects inconsistent settings.
func (c *Config) Validate() error {
	if c.Order == 0 {
		c.Order = 3
	}
	if c.Bins == 0 {
		c.Bins = 10
	}
	if c.Order < 1 || c.Order > 8 {
		return fmt.Errorf("core: order %d out of [1,8]", c.Order)
	}
	if c.Bins < c.Order {
		return fmt.Errorf("core: bins %d < order %d", c.Bins, c.Order)
	}
	if c.Permutations == 0 {
		c.Permutations = 30
	}
	if c.Permutations < 0 {
		return fmt.Errorf("core: negative permutations %d", c.Permutations)
	}
	if c.Alpha == 0 {
		c.Alpha = 0.01
	}
	if !(c.Alpha > 0 && c.Alpha < 1) { // written so NaN fails too
		return fmt.Errorf("core: alpha %v out of (0,1)", c.Alpha)
	}
	if c.NullSamplePairs == 0 {
		c.NullSamplePairs = 500
	}
	if c.NullSamplePairs < 0 {
		return fmt.Errorf("core: negative NullSamplePairs %d", c.NullSamplePairs)
	}
	if c.DPITolerance < 0 {
		c.DPITolerance = DefaultDPITolerance
	}
	if !(c.DPITolerance < 1) {
		return fmt.Errorf("core: DPI tolerance %v out of [0,1)", c.DPITolerance)
	}
	if c.CMIRatio == 0 {
		c.CMIRatio = DefaultCMIRatio
	}
	if !(c.CMIRatio > 0 && c.CMIRatio <= 1) {
		return fmt.Errorf("core: CMI ratio %v out of (0,1]", c.CMIRatio)
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		return fmt.Errorf("core: non-positive workers %d", c.Workers)
	}
	if c.TileSize == 0 {
		c.TileSize = 32
	}
	if c.TileSize < 1 {
		return fmt.Errorf("core: non-positive tile size %d", c.TileSize)
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 64
	}
	if c.CheckpointEvery < 1 {
		return fmt.Errorf("core: non-positive checkpoint interval %d", c.CheckpointEvery)
	}
	if c.ChunkStart < 0 || c.ChunkTiles < 0 {
		return fmt.Errorf("core: negative chunk range [%d,+%d)", c.ChunkStart, c.ChunkTiles)
	}
	if c.ChunkStart > 0 && c.ChunkTiles == 0 {
		return fmt.Errorf("core: chunk start %d without a chunk tile count", c.ChunkStart)
	}
	if c.ChunkTiles > 0 {
		if c.Engine != Host {
			return fmt.Errorf("core: chunked scans require the host engine, have %v", c.Engine)
		}
		if c.MemoryBudget > 0 {
			return fmt.Errorf("core: chunked scans do not compose with a memory budget")
		}
	}
	if c.Ensemble.Bootstraps < 0 {
		return fmt.Errorf("core: negative bootstrap count %d", c.Ensemble.Bootstraps)
	}
	if c.Ensemble.Enabled() {
		e := &c.Ensemble
		if e.SubsampleFrac == 0 {
			e.SubsampleFrac = DefaultSubsampleFrac
		}
		if !(e.SubsampleFrac > 0 && e.SubsampleFrac <= 1) {
			return fmt.Errorf("core: subsample fraction %v out of (0,1]", e.SubsampleFrac)
		}
		if e.SupportCutoff == 0 {
			e.SupportCutoff = DefaultSupportCutoff
		}
		if !(e.SupportCutoff > 0 && e.SupportCutoff <= 1) {
			return fmt.Errorf("core: support cutoff %v out of (0,1]", e.SupportCutoff)
		}
		if e.Start < 0 || e.Count < 0 {
			return fmt.Errorf("core: negative bootstrap range [%d,+%d)", e.Start, e.Count)
		}
		if e.Start > 0 && e.Count == 0 {
			return fmt.Errorf("core: bootstrap start %d without a bootstrap count", e.Start)
		}
		if e.Count > 0 && e.Start+e.Count > e.Bootstraps {
			return fmt.Errorf("core: bootstrap range [%d,%d) exceeds %d bootstraps", e.Start, e.Start+e.Count, e.Bootstraps)
		}
		if c.ChunkTiles > 0 {
			return fmt.Errorf("core: ensemble runs do not compose with tile chunking")
		}
		if e.Count > 0 && c.CheckpointPath != "" {
			return fmt.Errorf("core: partial ensemble runs do not compose with a checkpoint")
		}
		if c.KnownNull != nil {
			return fmt.Errorf("core: a known threshold does not compose with ensemble runs (one threshold per bootstrap)")
		}
	}
	if c.Engine == Phi || c.Engine == Hybrid {
		if c.Device.Cores == 0 {
			c.Device = phi.XeonPhi5110P()
		}
		if err := c.Device.Validate(); err != nil {
			return err
		}
		if c.ThreadsPerCore == 0 {
			c.ThreadsPerCore = c.Device.ThreadsPerCore
		}
		if c.ThreadsPerCore < 1 || c.ThreadsPerCore > c.Device.ThreadsPerCore {
			return fmt.Errorf("core: threads/core %d out of [1,%d]", c.ThreadsPerCore, c.Device.ThreadsPerCore)
		}
		if c.Offload.BandwidthGBps == 0 {
			c.Offload = phi.PCIeGen2x16()
		}
	}
	if c.Engine == Hybrid {
		if c.HostDevice.Cores == 0 {
			c.HostDevice = phi.XeonE5()
		}
		if err := c.HostDevice.Validate(); err != nil {
			return err
		}
	}
	if c.Engine == Cluster {
		if c.Ranks == 0 {
			c.Ranks = 4
		}
		if c.Ranks < 1 {
			return fmt.Errorf("core: non-positive ranks %d", c.Ranks)
		}
		// Negative values disable recovery and are kept as is, so a
		// second Validate (the server validates at submit, Infer again)
		// cannot turn the 0 they once became back into the default.
		if c.MaxRecoveries == 0 {
			c.MaxRecoveries = c.Ranks - 1
		}
	}
	switch c.Engine {
	case Host, Phi, Cluster, Hybrid, OutOfCore:
	default:
		return fmt.Errorf("core: unknown engine %v", c.Engine)
	}
	if c.MemoryBudget < 0 {
		return fmt.Errorf("core: negative memory budget %d", c.MemoryBudget)
	}
	if c.Engine == OutOfCore || c.MemoryBudget > 0 {
		if c.Engine != OutOfCore && c.Engine != Host {
			return fmt.Errorf("core: memory budget requires the host or ooc engine, have %v", c.Engine)
		}
		if c.MemoryBudget == 0 {
			c.MemoryBudget = 64 << 20
		}
		if c.PanelRows == 0 {
			c.PanelRows = c.TileSize
		}
		if c.PanelRows < c.TileSize || c.PanelRows%c.TileSize != 0 {
			return fmt.Errorf("core: panel rows %d must be a positive multiple of tile size %d", c.PanelRows, c.TileSize)
		}
	}
	switch c.Precision {
	case Float64, Float32:
	default:
		return fmt.Errorf("core: unknown precision %v", c.Precision)
	}
	return nil
}

// Result is the outcome of a run: the network, its threshold and
// timings, the ensemble aggregate of an ensemble run, and the run's
// Counters (embedded, so res.PairsEvaluated and the rest read as
// fields of Result).
type Result struct {
	// Network holds the significant (and, if enabled, DPI-pruned)
	// edges weighted by MI in bits.
	Network *grn.Network
	// Threshold is the pooled-null I_alpha actually used.
	Threshold float64
	// Timer breaks down host wall time by phase.
	Timer *stats.Timer
	Counters
	// Ensemble is the bootstrap support aggregate of an ensemble run
	// (nil otherwise). On a full-range run Network holds the consensus
	// at Config.Ensemble.SupportCutoff; on a partial (Start/Count) run
	// Network is empty and the per-bootstrap networks ride in
	// EnsembleNetworks. Filters run per bootstrap, before folding (the
	// consensus itself is never filtered), so the filter counters fold
	// across bootstraps.
	Ensemble *grn.Ensemble
	// EnsembleNetworks holds the filtered per-bootstrap networks of a
	// partial ensemble run, aligned with [Start, Start+Count) — the
	// fleet wire payload. Full-range runs leave it nil (the aggregate
	// is the product; resumed bootstraps' individual networks are not
	// recoverable from a checkpoint).
	EnsembleNetworks []*grn.Network
	// EnsembleThresholds holds each bootstrap's pooled-null I_alpha:
	// full-range runs carry all Bootstraps entries (resumed ones from
	// the checkpoint), partial runs the Count entries of their range.
	EnsembleThresholds []float64
}

// Infer runs the pipeline on the expression matrix (rows = genes,
// columns = experiments) and returns the inferred network. The input
// matrix is not modified.
func Infer(exprMat *mat.Dense, cfg Config) (*Result, error) {
	return InferContext(context.Background(), exprMat, cfg)
}

// InferContext is Infer with cancellation: workers abandon remaining
// tiles at the next tile boundary once ctx is done, and the call
// returns ctx's error. A whole-genome run holds gigabytes of weight
// matrix and hours of pair work; this is the only way to stop it
// cleanly.
func InferContext(ctx context.Context, exprMat *mat.Dense, cfg Config) (*Result, error) {
	if ctx == nil {
		return nil, fmt.Errorf("core: nil context")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if exprMat.Rows() < 2 {
		return nil, fmt.Errorf("core: need at least 2 genes, have %d", exprMat.Rows())
	}
	if exprMat.Cols() < 4 {
		return nil, fmt.Errorf("core: need at least 4 experiments, have %d", exprMat.Cols())
	}
	if cfg.Engine == OutOfCore || (cfg.Engine == Host && cfg.MemoryBudget > 0) {
		// Disk-backed path: spill the raw rows into a panel store and run
		// the out-of-core scan — normalization and weight precompute
		// happen per tile inside the scan, never whole-genome.
		timer := stats.NewTimer()
		var store *panelstore.Store
		var err error
		timer.Time("ingest", func() {
			store, err = panelstore.NewFS(cfg.FS, cfg.SpillDir, exprMat.Cols(), cfg.PanelRows,
				IngestBudget(cfg.MemoryBudget, exprMat.Cols(), cfg.PanelRows))
			if err != nil {
				return
			}
			for i := 0; i < exprMat.Rows(); i++ {
				if err = store.Append(exprMat.Row(i)); err != nil {
					return
				}
			}
			err = store.Seal()
		})
		if err != nil {
			if store != nil {
				store.Close()
			}
			return nil, err
		}
		defer store.Close()
		return inferStore(ctx, store, cfg, timer)
	}
	timer := stats.NewTimer()

	// Phase 1: rank normalization on a private copy.
	var norm *mat.Dense
	timer.Time("normalize", func() {
		norm = exprMat.Clone()
		norm.RankNormalize()
	})

	// Phase 2: B-spline weight precompute.
	basis, err := bspline.New(cfg.Order, cfg.Bins)
	if err != nil {
		return nil, err
	}
	var wm *bspline.WeightMatrix
	timer.Time("precompute", func() {
		wm = bspline.PrecomputeParallel(basis, norm, cfg.Workers)
	})

	res := &Result{Timer: timer}
	if cfg.Ensemble.Enabled() {
		// Ensemble mode: the full-set normalization and precompute above
		// are the shared apparatus; the per-bootstrap loop gathers column
		// views of wm and folds the resulting networks.
		if err := ensembleResident(ctx, norm, wm, basis, cfg, res); err != nil {
			return nil, err
		}
		return res, nil
	}
	switch cfg.Engine {
	case Host:
		_, _, err = hostScan(ctx, wm, cfg, res, nil)
	case Phi:
		err = runPhi(ctx, wm, cfg, res, nil)
	case Cluster:
		err = runCluster(ctx, wm, cfg, res)
	case Hybrid:
		err = runHybrid(ctx, wm, cfg, res, nil)
	}
	if err != nil {
		return nil, err
	}

	// Phase 5: parallel DPI, then the optional CMI successor filter
	// (which reads the already rank-normalized rows).
	var rows grn.RowFunc
	if cfg.CMIFilter {
		rows = residentRows(norm)
	}
	if err := applyFilters(cfg, res, rows); err != nil {
		return nil, err
	}
	return res, nil
}

// InferStore runs the out-of-core pipeline directly against a panel
// store — the true streaming path: a loader feeds expr.StreamTSVRows
// into store.Append so the full expression matrix is never resident.
// The store is sealed if it is not already; the caller retains
// ownership (and must Close it). cfg.Engine must be OutOfCore, or Host
// with a memory budget.
func InferStore(store *panelstore.Store, cfg Config) (*Result, error) {
	return InferStoreContext(context.Background(), store, cfg)
}

// InferStoreContext is InferStore with cancellation.
func InferStoreContext(ctx context.Context, store *panelstore.Store, cfg Config) (*Result, error) {
	if ctx == nil {
		return nil, fmt.Errorf("core: nil context")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Engine != OutOfCore && !(cfg.Engine == Host && cfg.MemoryBudget > 0) {
		return nil, fmt.Errorf("core: InferStore requires the ooc engine (or host with a memory budget), have %v", cfg.Engine)
	}
	if store.PanelHeight() != cfg.PanelRows {
		return nil, fmt.Errorf("core: store panel height %d != configured %d", store.PanelHeight(), cfg.PanelRows)
	}
	if err := store.Seal(); err != nil {
		return nil, err
	}
	if store.Rows() < 2 {
		return nil, fmt.Errorf("core: need at least 2 genes, have %d", store.Rows())
	}
	if store.Cols() < 4 {
		return nil, fmt.Errorf("core: need at least 4 experiments, have %d", store.Cols())
	}
	return inferStore(ctx, store, cfg, stats.NewTimer())
}

// inferStore is the shared tail of the out-of-core entry points: the
// disk-backed scan plus the filter phase. The filters run under the
// same memory budget as the scan — adjacency shards spill through
// their own store, and the CMI filter's expression rows are fetched
// from the panel store on demand.
func inferStore(ctx context.Context, store *panelstore.Store, cfg Config, timer *stats.Timer) (*Result, error) {
	if cfg.Ensemble.Enabled() {
		return oocEnsemble(ctx, store, cfg, timer)
	}
	res := &Result{Timer: timer}
	if err := oocScan(ctx, store, cfg, res); err != nil {
		return nil, err
	}
	var rows grn.RowFunc
	if cfg.CMIFilter {
		rows = storeRows(store)
	}
	if err := applyFilters(cfg, res, rows); err != nil {
		return nil, err
	}
	return res, nil
}
