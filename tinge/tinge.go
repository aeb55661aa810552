// Package tinge is the public API of this reproduction of
// "Parallel Mutual Information Based Construction of Whole-Genome
// Networks on the Intel Xeon Phi Coprocessor" (Misra, Pamnany, Aluru —
// IPDPS 2014).
//
// It infers gene regulatory networks from expression matrices using
// B-spline mutual-information estimation with permutation testing
// (the TINGe method), executed on one of four engines:
//
//   - Host: a goroutine pool over cache-sized pair tiles (the paper's
//     Xeon path);
//   - Phi: the same exact computation plus a simulated-time account on
//     a Xeon Phi coprocessor model, including PCIe offload (the paper's
//     coprocessor path — results exact, time modeled);
//   - Cluster: an MPI-style multi-rank execution (the original TINGe
//     cluster baseline);
//   - Hybrid: concurrent host + coprocessor execution with a
//     throughput-proportional work split.
//
// Quickstart:
//
//	data := tinge.MustGenerate(tinge.GenConfig{Genes: 500, Experiments: 300, Seed: 1})
//	res, err := tinge.InferDataset(data, tinge.Config{DPI: true, DPITolerance: 0.1})
//	...
//	score := res.Network.ScoreAgainst(data.TrueEdgeSet())
package tinge

import (
	"context"
	"io"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/diskfault"
	"repro/internal/expr"
	"repro/internal/fleet"
	"repro/internal/grn"
	"repro/internal/mat"
	"repro/internal/mi"
	"repro/internal/mpi"
	"repro/internal/panelstore"
	"repro/internal/phi"
	"repro/internal/soft"
	"repro/internal/tile"
	"repro/internal/trace"
)

// Core pipeline types.
type (
	// Config parameterizes an inference run; see core.Config for field
	// documentation. The zero value gives the paper's defaults.
	Config = core.Config
	// Result is an inference outcome: network, threshold, timings, and
	// the run's Counters.
	Result = core.Result
	// Counters is every count and gauge a run reports (embedded in
	// Result); CounterSchema lists each with its unit, help text and
	// fold rule.
	Counters = core.Counters
	// CounterField is one row of the counter schema.
	CounterField = core.CounterField
	// EngineKind selects Host, Phi, or Cluster execution.
	EngineKind = core.EngineKind
	// Precision selects the MI compute precision.
	Precision = core.Precision
	// EnsembleConfig turns a run into a bootstrap consensus workload:
	// B seeded sample subsets, one network each, folded into per-edge
	// support frequencies plus a consensus network at the cutoff.
	EnsembleConfig = core.EnsembleConfig
)

// CounterSchema returns the counter schema, one row per Counters field.
func CounterSchema() []CounterField { return core.CounterSchema() }

// Ensemble types.
type (
	// Ensemble aggregates bootstrap networks into per-edge support.
	Ensemble = grn.Ensemble
	// SupportEdge is one edge's support count and weight sum.
	SupportEdge = grn.SupportEdge
)

// Ensemble defaults (EnsembleConfig zero values resolve to these).
const (
	// DefaultSubsampleFrac is the fraction of experiments each
	// bootstrap samples.
	DefaultSubsampleFrac = core.DefaultSubsampleFrac
	// DefaultSupportCutoff is the consensus support frequency cutoff.
	DefaultSupportCutoff = core.DefaultSupportCutoff
)

// NewEnsemble creates an empty support aggregate over n genes
// (exposed for tools that fold externally computed bootstrap
// networks; fold in ascending bootstrap order for reproducible
// weight sums).
func NewEnsemble(n int) *Ensemble { return grn.NewEnsemble(n) }

// ReadSupportTSV parses a numeric support table written by
// Ensemble.WriteSupportTSV (or tinge -ensemble-out) over n genes.
func ReadSupportTSV(r io.Reader, n int) (*Ensemble, error) { return grn.ReadSupportTSV(r, n) }

// Fault-tolerance types (cluster engine). A FaultPlan assigned to
// Config.Fault injects deterministic rank kills, message delays, and
// drops for chaos testing; AbortError is what a failed world returns.
type (
	// FaultPlan is a deterministic chaos-injection plan.
	FaultPlan = mpi.FaultPlan
	// KillSpec picks the rank to kill and the trigger point.
	KillSpec = mpi.KillSpec
	// AbortError attributes a world failure to a rank and cause.
	AbortError = mpi.AbortError
)

// Durability types (disk persistence). A DiskFaultPlan's FS wrapper
// assigned to Config.FS injects deterministic disk faults — failed or
// torn writes, ENOSPC, seeded bit flips on read — into checkpoint and
// spill I/O for crash-consistency testing. All persisted formats are
// checksummed; a checkpoint that fails verification surfaces as a
// CheckpointCorruptError from the checkpoint layer and as a counted
// fresh start (Result.CheckpointRecoveries) from the engines.
type (
	// DiskFS is the filesystem seam persistence goes through
	// (diskfault.OS is the passthrough default).
	DiskFS = diskfault.FS
	// DiskFaultPlan deterministically injects disk faults.
	DiskFaultPlan = diskfault.Plan
	// DiskFailSpec makes the k-th operation of a kind fail.
	DiskFailSpec = diskfault.FailSpec
	// DiskTornSpec truncates the k-th write and crash-stops.
	DiskTornSpec = diskfault.TornSpec
	// CheckpointCorruptError reports a checkpoint (and its rotated
	// fallback) that failed checksum verification.
	CheckpointCorruptError = checkpoint.CorruptError
)

// Network types.
type (
	// Network is an MI-weighted undirected gene network.
	Network = grn.Network
	// Edge is one undirected weighted edge.
	Edge = grn.Edge
	// Score holds precision/recall/F1 against a ground truth.
	Score = grn.Score
	// FilterOpts parameterizes the parallel DPI/CMI filters
	// (tolerance, workers, adjacency memory budget, spill dir).
	FilterOpts = grn.FilterOpts
	// FilterStats reports filter work: edges removed and adjacency
	// shard cache traffic.
	FilterStats = grn.FilterStats
	// RowFunc supplies rank-normalized expression rows to the CMI
	// filter.
	RowFunc = grn.RowFunc
)

// Filter defaults. Config.DPITolerance's zero value means strict DPI
// (tolerance 0); pass a negative value (or DefaultDPITolerance) for
// the paper's near-tie slack. Config.CMIRatio's zero value means
// DefaultCMIRatio.
const (
	// DefaultDPITolerance is the paper's DPI near-tie tolerance.
	DefaultDPITolerance = core.DefaultDPITolerance
	// DefaultCMIRatio is the default CMI/MI removal threshold.
	DefaultCMIRatio = core.DefaultCMIRatio
)

// Data types.
type (
	// Dataset is an expression matrix with gene names and (for
	// synthetic data) ground truth.
	Dataset = expr.Dataset
	// GenConfig parameterizes synthetic dataset generation.
	GenConfig = expr.GenConfig
	// Topology selects the synthetic regulatory graph family.
	Topology = expr.Topology
	// Matrix is a dense row-major float32 matrix (genes × experiments).
	Matrix = mat.Dense
)

// Hardware-model types.
type (
	// Device is a simulated chip description for the Phi engine.
	Device = phi.Device
	// Offload is the simulated PCIe link model.
	Offload = phi.Offload
	// Policy selects the tile scheduling strategy.
	Policy = tile.Policy
	// Work is one schedulable unit's cycle cost on a simulated device.
	Work = phi.Work
	// KernelParams describes an MI tile for device cost modeling.
	KernelParams = phi.KernelParams
	// Tile is a rectangular block of gene pairs.
	Tile = tile.Tile
)

// Engine selectors.
const (
	// Host runs on a goroutine pool.
	Host = core.Host
	// Phi runs with the simulated-coprocessor time model.
	Phi = core.Phi
	// Cluster runs over the in-process MPI runtime.
	Cluster = core.Cluster
	// Hybrid models concurrent host + coprocessor execution.
	Hybrid = core.Hybrid
	// OutOfCore runs the tile scan against a disk-backed panel store
	// under Config.MemoryBudget — the whole-genome-scale path, with
	// results bit-identical to Host for equal seeds.
	OutOfCore = core.OutOfCore
)

// PanelStore is a disk-backed gene-row store: streaming ingest spills
// fixed-height row panels to a temp file and an LRU keeps a budgeted
// set resident. It is what the OutOfCore engine scans instead of a
// resident matrix.
type PanelStore = panelstore.Store

// NewPanelStore creates an empty spill store: cols experiments per
// row, panelRows gene rows per panel (must match Config.PanelRows),
// and an in-memory panel byte budget. dir "" uses the OS temp dir.
func NewPanelStore(dir string, cols, panelRows int, budget int64) (*PanelStore, error) {
	return panelstore.New(dir, cols, panelRows, budget)
}

// InferStore runs the out-of-core pipeline against an ingested panel
// store — the streaming path where the expression matrix is never
// resident. The caller keeps ownership of the store (and must Close
// it). See core.InferStore.
func InferStore(store *PanelStore, cfg Config) (*Result, error) {
	return core.InferStore(store, cfg)
}

// InferStoreContext is InferStore with cancellation.
func InferStoreContext(ctx context.Context, store *PanelStore, cfg Config) (*Result, error) {
	return core.InferStoreContext(ctx, store, cfg)
}

// MinMemoryBudget reports the smallest Config.MemoryBudget an
// out-of-core run over genes×samples accepts under cfg — worker
// scratch, store buffers, and the pinned-panel floor. Sizing a run at
// exactly this budget maximizes spill traffic; production runs should
// add slack for the LRU to amortize re-reads. See core.MinMemoryBudget.
func MinMemoryBudget(genes, samples int, cfg Config) (int64, error) {
	return core.MinMemoryBudget(genes, samples, cfg)
}

// IngestExpressionTSV streams a header+rows expression TSV directly
// into a fresh panel store: parse → impute (row means) → spill, one
// row at a time, so peak ingest memory is one panel plus a row buffer.
// It returns the sealed store and the gene names in row order. On
// error the store is already closed. The store's three panel-sized
// buffers come out of budget (core.IngestBudget), so the ingest phase
// stays under the same ceiling as the scan.
func IngestExpressionTSV(r io.Reader, dir string, panelRows int, budget int64) (*PanelStore, []string, error) {
	var store *PanelStore
	genes, _, err := expr.StreamTSVRows(r, func(gene string, row []float32) error {
		if store == nil {
			var err error
			store, err = panelstore.New(dir, len(row), panelRows, core.IngestBudget(budget, len(row), panelRows))
			if err != nil {
				return err
			}
		}
		expr.ImputeRowMeanValues(row)
		return store.Append(row)
	})
	if err == nil {
		err = store.Seal()
	}
	if err != nil {
		if store != nil {
			store.Close()
		}
		return nil, nil, err
	}
	return store, genes, nil
}

// Compute precisions.
const (
	// Float64 (default) accumulates histograms and entropies in double
	// precision.
	Float64 = core.Float64
	// Float32 runs the single-precision kernels — the paper's
	// native-float build: same edge set at default settings, half the
	// joint-accumulator footprint.
	Float32 = core.Float32
)

// Scheduling policies.
const (
	// StaticBlock assigns contiguous tile chunks per worker.
	StaticBlock = tile.StaticBlock
	// StaticCyclic deals tiles round-robin.
	StaticCyclic = tile.StaticCyclic
	// Dynamic uses a shared work queue (the paper's choice).
	Dynamic = tile.Dynamic
	// Stealing uses per-worker deques with work stealing.
	Stealing = tile.Stealing
)

// Synthetic topologies.
const (
	// ScaleFree grows the regulator graph by preferential attachment.
	ScaleFree = expr.ScaleFree
	// ErdosRenyi assigns regulators uniformly at random.
	ErdosRenyi = expr.ErdosRenyi
)

// XeonPhi5110P returns the paper's coprocessor model.
func XeonPhi5110P() Device { return phi.XeonPhi5110P() }

// PCIeGen2x16 returns the 5110P's simulated offload link.
func PCIeGen2x16() Offload { return phi.PCIeGen2x16() }

// PipelineTime returns total seconds for a transfer/compute pipeline,
// optionally double-buffered. See phi.PipelineTime.
func PipelineTime(transfers, computes []float64, doubleBuffered bool) float64 {
	return phi.PipelineTime(transfers, computes, doubleBuffered)
}

// DecomposePairs tiles the n-gene upper-triangular pair matrix into
// size×size blocks.
func DecomposePairs(n, size int) []Tile { return tile.Decompose(n, size) }

// TotalPairs returns n(n-1)/2.
func TotalPairs(n int) int { return tile.TotalPairs(n) }

// XeonE5 returns the paper's dual-socket host model.
func XeonE5() Device { return phi.XeonE5() }

// Profile is an instrumented run exposing per-tile costs for simulated
// scaling studies. See core.Profile.
type Profile = core.Profile

// TraceRecorder records per-worker execution spans; set it as
// Config.Trace and export with WriteChromeTrace.
type TraceRecorder = trace.Recorder

// NewTraceRecorder starts a trace recorder whose epoch is now.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// Infer runs the pipeline on an expression matrix (rows = genes,
// columns = experiments). The matrix is not modified.
func Infer(m *Matrix, cfg Config) (*Result, error) { return core.Infer(m, cfg) }

// InferContext is Infer with cancellation; workers stop at the next
// tile boundary once ctx is done.
func InferContext(ctx context.Context, m *Matrix, cfg Config) (*Result, error) {
	return core.InferContext(ctx, m, cfg)
}

// ProfileTiles runs an instrumented Host-engine pass and returns the
// per-tile cost profile for replaying onto arbitrary worker counts and
// scheduling policies — how this reproduction simulates thread-scaling
// figures beyond the machine's physical core count.
func ProfileTiles(m *Matrix, cfg Config) (*Profile, error) { return core.ProfileTiles(m, cfg) }

// InferDataset runs the pipeline on a dataset's expression matrix.
func InferDataset(d *Dataset, cfg Config) (*Result, error) {
	return core.Infer(d.Expr, cfg)
}

// Generate builds a synthetic dataset with known ground truth.
func Generate(cfg GenConfig) (*Dataset, error) { return expr.Generate(cfg) }

// MustGenerate is Generate but panics on error.
func MustGenerate(cfg GenConfig) *Dataset { return expr.MustGenerate(cfg) }

// MatrixFromRows builds an expression matrix from per-gene rows,
// copying the data. Rows must have equal lengths.
func MatrixFromRows(rows [][]float32) *Matrix { return mat.FromRows(rows) }

// ReadExpressionTSV parses a header+rows expression TSV (as written by
// Dataset.WriteTSV or cmd/genexpr). It streams rows into one contiguous
// buffer (expr.StreamTSV), so peak ingest memory is the matrix itself
// rather than matrix plus a staged per-row copy.
func ReadExpressionTSV(r io.Reader) (*Dataset, error) { return expr.StreamTSV(r) }

// ReadSOFT parses an NCBI GEO SOFT family file (series with per-sample
// tables, or a dataset with a combined table) and assembles the
// expression matrix. Missing values come back as NaN; call
// Dataset.ImputeRowMean before inference.
func ReadSOFT(r io.Reader) (*Dataset, error) {
	f, err := soft.Parse(r)
	if err != nil {
		return nil, err
	}
	return f.Assemble()
}

// WriteSOFTSeries emits a dataset as a minimal SOFT series file.
func WriteSOFTSeries(w io.Writer, d *Dataset, title string) error {
	return soft.WriteSeries(w, d, title)
}

// ReadNetworkTSV parses a numeric "i<TAB>j<TAB>weight" edge list over n
// genes.
func ReadNetworkTSV(r io.Reader, n int) (*Network, error) { return grn.ReadTSV(r, n) }

// GaussianMI returns the analytic MI in bits between the components of
// a bivariate Gaussian with correlation rho — useful for validating
// estimator output.
func GaussianMI(rho float64) float64 { return mi.GaussianMI(rho) }

// BinningMI estimates MI (bits) by plain equal-width binning of values
// in [0,1] — the baseline estimator.
func BinningMI(x, y []float32, bins int) float64 { return mi.BinningMI(x, y, bins) }

// KSGMI estimates MI (bits) with the Kraskov k-nearest-neighbor
// estimator (brute force; for validation, not the pipeline hot path).
func KSGMI(x, y []float32, k int) float64 { return mi.KSG(x, y, k) }

// AdaptiveMI estimates MI (bits) with Darbellay–Vajda adaptive
// partitioning.
func AdaptiveMI(x, y []float32, minCell int) float64 { return mi.AdaptiveMI(x, y, minCell) }

// ConditionalMI estimates I(X;Y|Z) in bits by binning — the sharper
// successor to DPI for separating direct from indirect edges.
func ConditionalMI(x, y, z []float32, bins int) float64 { return mi.ConditionalMI(x, y, z, bins) }

// LaggedMI estimates I(X_t; Y_{t+lag}) from a time-series trajectory
// (see GenConfig.TimeSeries).
func LaggedMI(x, y []float32, lag, bins int) float64 { return mi.LaggedMI(x, y, lag, bins) }

// DirectionScore is LaggedMI(x→y) − LaggedMI(y→x): positive values are
// evidence that x regulates y.
func DirectionScore(x, y []float32, lag, bins int) float64 {
	return mi.DirectionScore(x, y, lag, bins)
}

// NewNetwork creates an empty network over n genes (exposed for tools
// that assemble networks from external edge lists).
func NewNetwork(n int) *Network { return grn.New(n) }

// CommunitySizes returns the member counts of a Communities labeling,
// sorted descending.
func CommunitySizes(labels []int) []int { return grn.CommunitySizes(labels) }

// FleetCoordinator fans scans out over a fleet of worker tinged
// instances, merging chunk results bit-identically to a single-process
// scan and caching completed scans by content address. See
// internal/fleet.
type FleetCoordinator = fleet.Coordinator

// FleetChunk is one unit of fleet fan-out: a contiguous pair-tile
// range of the scan.
type FleetChunk = fleet.Chunk

// NewFleet returns a coordinator over the given worker base URLs.
func NewFleet(workers []string) *FleetCoordinator { return fleet.New(workers) }

// PlanFleetChunks splits the n-gene pair triangle (tiled at tileSize)
// into at most chunks contiguous tile ranges with near-equal pair
// counts; the ranges partition combn(n,2) exactly.
func PlanFleetChunks(n, tileSize, chunks int) []FleetChunk {
	return fleet.PlanChunks(n, tileSize, chunks)
}
