package core

import (
	"fmt"
	"reflect"
)

// FoldRule says how Counters.Fold combines one counter of two partial
// results: the bootstraps of an ensemble, or the chunks of a fleet
// scan.
type FoldRule int

// Fold rules.
const (
	// Sum adds: work done, edges pruned, bytes moved. Every Sum counter
	// covers this session only and is exported on /metrics as a
	// Prometheus counter summed over jobs.
	Sum FoldRule = iota
	// Max keeps the larger value: high-water marks.
	Max
	// Last keeps the newer value: per-scan gauges (the null size, the
	// scan imbalance, the hybrid split).
	Last
)

// Counters is every count and gauge a run reports, and the one schema
// every output reads. Each field's struct tags spell out its whole
// schema row: its JSON key (json), fold rule (fold: sum, max or last),
// unit (count, bytes, seconds or ratio), Prometheus counter name for
// Sum counters (metric) and help text (help). Ensemble and fleet folds
// call Fold; the server's /metrics, the worker's and the coordinator's
// status and result JSON, and the CLI summary iterate CounterSchema.
// Adding a counter is one field here plus the engine line that
// increments it.
//
// Result embeds Counters, so res.PairsEvaluated and the other fields
// read as before.
type Counters struct {
	// RawEdges is the edge count before the filter phase: the tested
	// threshold survivors that passed (with DPI off every survivor is
	// tested, so it equals Network.Len() when the CMI filter is off
	// too). An ensemble sums the per-bootstrap pre-filter counts.
	RawEdges int `json:"rawEdges" fold:"sum" unit:"count" metric:"tinge_raw_edges_total" help:"Significant edges before the filter phase."`
	// DPIEdgesRemoved and CMIEdgesRemoved count the edges each filter
	// pruned (0 when the respective filter is off).
	DPIEdgesRemoved int `json:"dpiEdgesRemoved" fold:"sum" unit:"count" metric:"tinge_dpi_edges_removed_total" help:"Edges pruned by the DPI filter."`
	CMIEdgesRemoved int `json:"cmiEdgesRemoved" fold:"sum" unit:"count" metric:"tinge_cmi_edges_removed_total" help:"Edges pruned by the CMI successor filter."`
	// FilterShardPeakBytes is the resident adjacency-shard high-water
	// mark of the DPI test schedule and the filter phase; on a budgeted
	// run it stays under the effective shard budget. The other
	// FilterShard counters mirror the panel-store counters for their
	// shard stores, summed (all 0 on unbudgeted runs except the peak and
	// hits).
	FilterShardPeakBytes    int64 `json:"filterShardPeakBytes" fold:"max" unit:"bytes" help:"Peak resident adjacency-shard bytes of the DPI test schedule and the filter phase."`
	FilterShardHits         int64 `json:"filterShardHits" fold:"sum" unit:"count" metric:"tinge_filter_shard_hits_total" help:"Adjacency-shard pins served resident."`
	FilterShardLoads        int64 `json:"filterShardLoads" fold:"sum" unit:"count" metric:"tinge_filter_shard_loads_total" help:"Adjacency-shard pins re-read from the spill file."`
	FilterShardEvictions    int64 `json:"filterShardEvictions" fold:"sum" unit:"count" metric:"tinge_filter_shard_evictions_total" help:"Adjacency shards dropped to stay under budget."`
	FilterShardBytesSpilled int64 `json:"filterShardBytesSpilled" fold:"sum" unit:"bytes" metric:"tinge_filter_shard_spilled_bytes_total" help:"Adjacency-shard bytes written to the spill file."`
	FilterShardBytesLoaded  int64 `json:"filterShardBytesLoaded" fold:"sum" unit:"bytes" metric:"tinge_filter_shard_loaded_bytes_total" help:"Adjacency-shard bytes read back from the spill file."`
	// PairsEvaluated counts exact-kernel MI computations of observed
	// pairs computed in this session (one per pair of every tile
	// scanned); a resumed run's committed tiles or bootstraps are not
	// re-counted.
	PairsEvaluated int64 `json:"pairsEvaluated" fold:"sum" unit:"count" metric:"tinge_observed_pair_evaluations_total" help:"Observed-pair MI evaluations (permutations excluded)."`
	// PermEvaluations counts permuted-MI kernel evaluations computed
	// during phase 4 in this session (the per-pair permutation checks;
	// the pooled-null phase is not included).
	PermEvaluations int64 `json:"permEvaluations" fold:"sum" unit:"count" metric:"tinge_perm_evaluations_total" help:"Permutation MI evaluations actually computed."`
	// PairsSurvived counts the observed pairs at or above the threshold
	// in this session — the survivors the test schedule draws from.
	PairsSurvived int64 `json:"pairsSurvived" fold:"sum" unit:"count" metric:"tinge_pairs_survived_total" help:"Observed pairs at or above the pooled-null threshold."`
	// PairsTested counts the survivors whose permutation test ran in
	// this session: every survivor with DPI off, the ones the DPI test
	// schedule requests with it on.
	PairsTested int64 `json:"pairsTested" fold:"sum" unit:"count" metric:"tinge_pairs_tested_total" help:"Threshold survivors whose permutation test ran."`
	// NullSize is the pooled null distribution size.
	NullSize int `json:"nullSize" fold:"last" unit:"count" help:"Pooled null distribution size."`
	// SimSeconds is the Phi and Hybrid engines' simulated device time
	// (compute makespan + offload), 0 for other engines;
	// SimTransferSeconds is its offload transfer part.
	SimSeconds         float64 `json:"simSeconds" fold:"sum" unit:"seconds" metric:"tinge_sim_seconds_total" help:"Simulated coprocessor seconds, offload included."`
	SimTransferSeconds float64 `json:"simTransferSeconds" fold:"sum" unit:"seconds" metric:"tinge_sim_transfer_seconds_total" help:"Simulated offload transfer seconds."`
	// Messages and TrafficBytes report cluster communication (0
	// elsewhere).
	Messages     int64 `json:"messages" fold:"sum" unit:"count" metric:"tinge_cluster_messages_total" help:"Messages the cluster engine's ranks sent."`
	TrafficBytes int64 `json:"trafficBytes" fold:"sum" unit:"bytes" metric:"tinge_cluster_traffic_bytes_total" help:"Bytes the cluster engine's ranks sent."`
	// HybridPhiShare is the fraction of MI evaluations the Hybrid
	// engine's split assigned to the coprocessor (0 elsewhere).
	HybridPhiShare float64 `json:"hybridPhiShare" fold:"last" unit:"ratio" help:"Share of MI evaluations the hybrid split gave the coprocessor."`
	// Imbalance is max/mean per-worker busy time for phase 4.
	Imbalance float64 `json:"imbalance" fold:"last" unit:"ratio" help:"Max over mean per-worker busy time of the pair scan."`
	// PermCacheHits and PermCacheMisses counted lookups of the worker
	// permuted-row caches the scan no longer builds, so they read 0.
	// They stay in the schema while the repository benchmark still
	// reads them.
	PermCacheHits   int64 `json:"permCacheHits" fold:"sum" unit:"count" metric:"tinge_permcache_hits_total" help:"Permuted-row cache hits (always 0: the scan has no cache)."`
	PermCacheMisses int64 `json:"permCacheMisses" fold:"sum" unit:"count" metric:"tinge_permcache_misses_total" help:"Permuted-row cache misses (always 0: the scan has no cache)."`
	// PermutationsSkipped counts permutation evaluations avoided by the
	// early exit during phase 4 in this session (summed over pairs that
	// entered the permutation test).
	PermutationsSkipped int64 `json:"permutationsSkipped" fold:"sum" unit:"count" metric:"tinge_permutations_skipped_total" help:"Permutation evaluations avoided by early exit."`
	// PairsCertified counts the observed pairs (a subset of
	// PairsEvaluated) the certificate proved below the threshold
	// without an entropy pass, in this session; 0 for the scalar and
	// vectorized kernels.
	PairsCertified int64 `json:"pairsCertified" fold:"sum" unit:"count" metric:"tinge_pairs_certified_total" help:"Observed pairs decided below the threshold by the certificate without an entropy pass."`
	// PermutationsCertified counts the phase-4 permutation evaluations
	// (a subset of PermEvaluations) the certificate decided without an
	// entropy pass, in this session; 0 for the scalar and vectorized
	// kernels.
	PermutationsCertified int64 `json:"permutationsCertified" fold:"sum" unit:"count" metric:"tinge_permutations_certified_total" help:"Permutation evaluations decided by the certificate without an entropy pass."`
	// PeakTileBytes is the largest per-worker tile working set of phase
	// 4: the workspace scratch (on the out-of-core path, the whole
	// budgeted working set). It is the number the memory budget must
	// bound.
	PeakTileBytes int64 `json:"peakTileBytes" fold:"max" unit:"bytes" help:"Peak per-worker tile working set of the pair scan."`
	// PanelHits and PanelLoads count pins of spill-store panels during
	// the out-of-core scan that were served resident vs. re-read from
	// disk; PanelEvictions counts panels dropped to stay under budget;
	// PanelBytesSpilled and PanelBytesLoaded are the spill-file traffic
	// (all 0 for resident engines). A resumed run whose tiles are all
	// committed pins nothing.
	PanelHits         int64 `json:"panelHits" fold:"sum" unit:"count" metric:"tinge_panel_hits_total" help:"Out-of-core panel pins served resident."`
	PanelLoads        int64 `json:"panelLoads" fold:"sum" unit:"count" metric:"tinge_panel_loads_total" help:"Out-of-core panel pins re-read from the spill file."`
	PanelEvictions    int64 `json:"panelEvictions" fold:"sum" unit:"count" metric:"tinge_panel_evictions_total" help:"Out-of-core panels dropped to stay under budget."`
	PanelBytesSpilled int64 `json:"panelBytesSpilled" fold:"sum" unit:"bytes" metric:"tinge_panel_spilled_bytes_total" help:"Out-of-core panel bytes written to the spill file."`
	PanelBytesLoaded  int64 `json:"panelBytesLoaded" fold:"sum" unit:"bytes" metric:"tinge_panel_loaded_bytes_total" help:"Out-of-core panel bytes read back from the spill file."`
	// StorePeakBytes is the resident-panel high-water mark of the
	// out-of-core store (one component of PeakTileBytes).
	StorePeakBytes int64 `json:"storePeakBytes" fold:"max" unit:"bytes" help:"Peak resident panel bytes of the out-of-core store."`
	// RankFailures counts rank failures the cluster engine observed
	// (recovered or not); RecoveryRuns the world re-runs after excluding
	// failed ranks; RecoveredTiles the pending tiles redistributed to
	// surviving ranks — the re-scan cost of the failures (committed
	// tiles are never recomputed). All 0 elsewhere.
	RankFailures   int `json:"rankFailures" fold:"sum" unit:"count" metric:"tinge_rank_failures_total" help:"Cluster ranks lost to faults across jobs."`
	RecoveryRuns   int `json:"recoveryRuns" fold:"sum" unit:"count" metric:"tinge_recovery_runs_total" help:"Cluster recovery re-runs after a rank failure."`
	RecoveredTiles int `json:"recoveredTiles" fold:"sum" unit:"count" metric:"tinge_recovered_tiles_total" help:"Pair tiles redistributed to surviving ranks."`
	// FaultDelayedMessages and FaultDroppedMessages report what an
	// injected Config.Fault plan did to this run's message stream.
	FaultDelayedMessages int64 `json:"faultDelayedMessages" fold:"sum" unit:"count" metric:"tinge_fault_delayed_messages_total" help:"Messages delayed by fault injection."`
	FaultDroppedMessages int64 `json:"faultDroppedMessages" fold:"sum" unit:"count" metric:"tinge_fault_dropped_messages_total" help:"Messages dropped by fault injection."`
	// EnsembleBootstrapsRun counts bootstraps inferred in this session
	// (excluding any restored from a checkpoint).
	EnsembleBootstrapsRun int `json:"ensembleBootstrapsRun" fold:"sum" unit:"count" metric:"tinge_ensemble_bootstraps_total" help:"Bootstrap networks inferred by ensemble jobs."`
	// EnsembleStencilsReused counts (gene, sample) B-spline stencils
	// served from the shared full-set precompute via the column-gather
	// view instead of being recomputed — n·mSub per resident bootstrap
	// (0 for the out-of-core path, which recomputes per tile by design).
	EnsembleStencilsReused int64 `json:"ensembleStencilsReused" fold:"sum" unit:"count" metric:"tinge_ensemble_stencils_reused_total" help:"B-spline stencils reused from the shared precompute instead of recomputed."`
	// CheckpointRecoveries counts checkpoint loads that failed integrity
	// checks on every copy (primary and ".prev" rotation) and were
	// handled by starting the scan fresh instead of failing the run. A
	// fallback to a valid ".prev" is silent and not counted.
	CheckpointRecoveries int64 `json:"checkpointRecoveries" fold:"sum" unit:"count" metric:"tinge_checkpoint_corrupt_total" help:"Corrupt checkpoints handled by starting the job fresh."`
	// SpillReadRetries counts spill-file reads (panel store and
	// adjacency shards) that failed integrity or I/O checks once and
	// were re-read; loads that fail twice abort the run with a typed
	// corruption error instead of computing on bad bytes.
	SpillReadRetries int64 `json:"spillReadRetries" fold:"sum" unit:"count" metric:"tinge_spill_read_retries_total" help:"Spill reads that failed verification once and succeeded on retry."`
}

// CounterField is one row of the counter schema, read from a Counters
// field's struct tags.
type CounterField struct {
	// Name is the Go field name, Key its JSON key.
	Name, Key string
	// Rule is how Fold combines the field.
	Rule FoldRule
	// Unit is count, bytes, seconds or ratio.
	Unit string
	// Metric is the Prometheus counter name of a Sum field ("" for the
	// others, which /metrics does not export).
	Metric string
	// Help describes the field in one line.
	Help  string
	index int
}

// Value reads the field of c as a float64.
func (f CounterField) Value(c *Counters) float64 {
	v := reflect.ValueOf(c).Elem().Field(f.index)
	if v.CanInt() {
		return float64(v.Int())
	}
	return v.Float()
}

var counterSchema = parseCounterSchema()

// CounterSchema returns the schema, one row per Counters field in
// declaration order. The slice is shared; callers must not modify it.
func CounterSchema() []CounterField { return counterSchema }

func parseCounterSchema() []CounterField {
	t := reflect.TypeOf(Counters{})
	out := make([]CounterField, t.NumField())
	for i := range out {
		sf := t.Field(i)
		f := CounterField{
			Name:   sf.Name,
			Key:    sf.Tag.Get("json"),
			Unit:   sf.Tag.Get("unit"),
			Metric: sf.Tag.Get("metric"),
			Help:   sf.Tag.Get("help"),
			index:  i,
		}
		switch sf.Tag.Get("fold") {
		case "sum":
			f.Rule = Sum
		case "max":
			f.Rule = Max
		case "last":
			f.Rule = Last
		default:
			panic(fmt.Sprintf("core: counter %s has no valid fold rule", sf.Name))
		}
		switch k := sf.Type.Kind(); {
		case k != reflect.Int && k != reflect.Int64 && k != reflect.Float64:
			panic(fmt.Sprintf("core: counter %s has unsupported type %v", sf.Name, sf.Type))
		case f.Key == "" || f.Unit == "" || f.Help == "":
			panic(fmt.Sprintf("core: counter %s lacks a json, unit or help tag", sf.Name))
		case (f.Rule == Sum) != (f.Metric != ""):
			panic(fmt.Sprintf("core: counter %s: exactly the sum-rule counters carry a metric name", sf.Name))
		}
		out[i] = f
	}
	return out
}

// Fold combines o into c, field by field under each field's rule.
func (c *Counters) Fold(o *Counters) {
	dst, src := reflect.ValueOf(c).Elem(), reflect.ValueOf(o).Elem()
	for _, f := range counterSchema {
		d, s := dst.Field(f.index), src.Field(f.index)
		switch {
		case f.Rule == Last:
			d.Set(s)
		case d.CanInt() && f.Rule == Sum:
			d.SetInt(d.Int() + s.Int())
		case d.CanInt():
			d.SetInt(max(d.Int(), s.Int()))
		case f.Rule == Sum:
			d.SetFloat(d.Float() + s.Float())
		default:
			d.SetFloat(max(d.Float(), s.Float()))
		}
	}
}
