package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/tinge"
)

// dpRow is one measured configuration of the DP experiment, serialized
// into BENCH_dpi.json: the parallel tiled DPI filter on a fixed random
// network, across worker counts, resident and budgeted.
type dpRow struct {
	Genes           int     `json:"genes"`
	Edges           int     `json:"edges"`
	Workers         int     `json:"workers"`
	Budgeted        bool    `json:"budgeted"`
	BudgetBytes     int64   `json:"budget_bytes,omitempty"`
	EffectiveBudget int64   `json:"effective_budget_bytes,omitempty"`
	PeakBytes       int64   `json:"shard_peak_bytes"`
	SpilledBytes    int64   `json:"shard_bytes_spilled,omitempty"`
	ShardLoads      int64   `json:"shard_loads,omitempty"`
	Tolerance       float64 `json:"tolerance"`
	DPISeconds      float64 `json:"dpi_seconds"`
	Speedup         float64 `json:"speedup"`
	Removed         int     `json:"edges_removed"`
}

// dpDoc is the envelope of a BENCH_dpi*.json measurement file.
type dpDoc struct {
	Experiment string  `json:"experiment"`
	Seed       uint64  `json:"seed"`
	SeqSeconds float64 `json:"sequential_dpi_seconds"`
	Rows       []dpRow `json:"rows"`
}

// dpMaxRegression is the relative gate vs a checked-in baseline: a
// matched row may lose up to this fraction of its baseline speedup
// (speedup is within-run relative to the same run's workers=1 row, so
// the gate is immune to absolute machine-speed drift).
const dpMaxRegression = 0.15

func loadDPDoc(path string) (*dpDoc, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc dpDoc
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Rows) == 0 {
		return nil, fmt.Errorf("%s: no measurement rows", path)
	}
	return &doc, nil
}

// compareDP matches baseline rows to fresh rows by configuration and
// reports every matched row whose speedup dropped by more than
// maxRegress (fractional). Unmatched baseline rows are ignored: a
// quick pass gates against a quick baseline.
func compareDP(baseline, fresh []dpRow, maxRegress float64) (regressions []string, matched int) {
	type key struct {
		genes, workers int
		budgeted       bool
	}
	latest := make(map[key]dpRow, len(fresh))
	for _, r := range fresh {
		latest[key{r.Genes, r.Workers, r.Budgeted}] = r
	}
	for _, old := range baseline {
		now, ok := latest[key{old.Genes, old.Workers, old.Budgeted}]
		if !ok {
			continue
		}
		matched++
		floor := old.Speedup * (1 - maxRegress)
		if now.Speedup < floor {
			regressions = append(regressions, fmt.Sprintf(
				"n=%d workers=%d budgeted=%v: speedup %.2fx < %.2fx (baseline %.2fx - %.0f%%)",
				old.Genes, old.Workers, old.Budgeted,
				now.Speedup, floor, old.Speedup, 100*maxRegress))
		}
	}
	return regressions, matched
}

// identicalNetwork reports whether two networks are bit-identical —
// same edges in the same order with bitwise-equal MI weights. The
// parallel filter's claim is exactness, not closeness, so unlike
// sameEdgeSet the weights must match too.
func identicalNetwork(a, b *tinge.Network) bool {
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		return false
	}
	for k := range ae {
		if ae[k].I != be[k].I || ae[k].J != be[k].J || ae[k].Weight != be[k].Weight {
			return false
		}
	}
	return true
}

// dpNetwork builds the experiment's deterministic random network: each
// pair becomes an edge with probability density, weight uniform.
func dpNetwork(n int, density float64, seed uint64) *tinge.Network {
	rng := rand.New(rand.NewSource(int64(seed)))
	net := tinge.NewNetwork(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				net.AddEdge(i, j, rng.Float64())
			}
		}
	}
	return net
}

// DP: the parallel tiled DPI filter against the sequential reference —
// bit-identity enforced, then worker scaling measured resident and
// under a spilling adjacency budget. The full-size network carries
// >=1e5 edges (the whole-genome-shaped regime the tentpole targets);
// quick shrinks it for CI. Measurements go to BENCH_dpi.json.
func (s *suite) dp() {
	header("DP", "parallel tiled DPI: worker x budget scaling (bit-identical to sequential)")
	n, density := 2000, 0.055
	reps := 1
	if s.quick {
		n, density = 400, 0.08
		reps = 3
	}
	const tol = 0.1
	net := dpNetwork(n, density, s.seed)
	edges := net.Len()

	seqStart := time.Now()
	want := net.DPI(tol)
	seqSecs := time.Since(seqStart).Seconds()
	fmt.Printf("network: %d genes, %d edges; sequential DPI(%.2f): %.3fs, removed %d\n",
		n, edges, tol, seqSecs, edges-want.Len())

	// Budgeted rows cap the resident adjacency at a quarter of its
	// total payload (16 bytes per directed entry), with shards short
	// enough that the pin floor stays well under the cap.
	totalAdj := int64(2*edges) * 16
	budget := totalAdj / 4

	fmt.Printf("%9s %8s %10s %9s %14s %12s %10s\n",
		"workers", "budget", "dpi(s)", "speedup", "peakBytes", "spilled", "loads")
	var rows []dpRow
	var speedup8 float64
	for _, budgeted := range []bool{false, true} {
		var base float64
		for _, w := range []int{1, 2, 4, 8} {
			opts := tinge.FilterOpts{Tolerance: tol, Workers: w}
			if budgeted {
				opts.MemoryBudget = budget
				opts.ShardRows = 16
			}
			best := 0.0
			var out *tinge.Network
			var st tinge.FilterStats
			for r := 0; r < reps; r++ {
				start := time.Now()
				o, stats, err := net.DPIParallel(opts)
				if err != nil {
					log.Fatal(err)
				}
				if sec := time.Since(start).Seconds(); best == 0 || sec < best {
					best, out, st = sec, o, stats
				}
			}
			if !identicalNetwork(out, want) {
				log.Fatalf("DP: workers=%d budgeted=%v diverged from the sequential reference", w, budgeted)
			}
			if budgeted {
				if st.ShardPeakBytes > st.EffectiveBudget {
					log.Fatalf("DP: peak %d bytes exceeds effective budget %d", st.ShardPeakBytes, st.EffectiveBudget)
				}
				if st.ShardBytesSpilled == 0 || st.ShardLoads == 0 {
					log.Fatalf("DP: budgeted run never touched the spill file (%+v)", st)
				}
			}
			if base == 0 {
				base = best
			}
			r := dpRow{
				Genes: n, Edges: edges, Workers: w, Budgeted: budgeted,
				EffectiveBudget: st.EffectiveBudget,
				PeakBytes:       st.ShardPeakBytes,
				SpilledBytes:    st.ShardBytesSpilled,
				ShardLoads:      st.ShardLoads,
				Tolerance:       tol,
				DPISeconds:      best, Speedup: base / best,
				Removed: st.Removed,
			}
			if budgeted {
				r.BudgetBytes = budget
			}
			rows = append(rows, r)
			budgetLabel := "-"
			if budgeted {
				budgetLabel = fmt.Sprintf("%dK", budget>>10)
			}
			fmt.Printf("%9d %8s %10.3f %8.2fx %14d %12d %10d\n",
				w, budgetLabel, best, r.Speedup, r.PeakBytes, r.SpilledBytes, r.ShardLoads)
			if !budgeted && w == 8 {
				speedup8 = r.Speedup
			}
		}
	}

	// Hard acceptance bar: on a machine with the cores to show it, the
	// resident filter must scale (>=2x at 8 workers on a >=1e5-edge
	// network). A 1-CPU container cannot exhibit thread scaling, so the
	// bar arms only where it is physically meaningful; the -compare-dp
	// relative gate still protects every environment.
	if !s.quick && edges >= 100_000 && runtime.NumCPU() >= 8 && speedup8 < 2 {
		log.Fatalf("DP: 8-worker speedup %.2fx < 2x on %d edges (%d CPUs)", speedup8, edges, runtime.NumCPU())
	}

	var old *dpDoc
	if s.compareDP != "" {
		var err error
		if old, err = loadDPDoc(s.compareDP); err != nil {
			log.Fatal(err)
		}
	}
	out := dpDoc{Experiment: "DP", Seed: s.seed, SeqSeconds: seqSecs, Rows: rows}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	path := s.benchPath("BENCH_dpi")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote " + path)

	if old != nil {
		regressions, matched := compareDP(old.Rows, rows, dpMaxRegression)
		fmt.Printf("compare vs %s: %d row(s) matched, %d regression(s)\n",
			s.compareDP, matched, len(regressions))
		for _, r := range regressions {
			fmt.Println("  REGRESSION: " + r)
		}
		if len(regressions) > 0 {
			log.Fatalf("parallel DPI speedup regressed vs %s", s.compareDP)
		}
	}
}
