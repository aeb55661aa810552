package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"repro/tinge"
)

// enRow is one measured configuration of the EN experiment, serialized
// into BENCH_ensemble.json. The headline column is the end-to-end
// speedup of one B-bootstrap ensemble run over B naive independent
// scans (one Start/Count partial run per bootstrap, each paying its own
// rank normalization, B-spline precompute, estimator arenas, and
// permutation pool) — the amortization the ensemble engine exists to
// capture. StencilsReused quantifies where the win comes from.
type enRow struct {
	Genes           int     `json:"genes"`
	Samples         int     `json:"samples"`
	Permutations    int     `json:"permutations"`
	Bootstraps      int     `json:"bootstraps"`
	SubsampleFrac   float64 `json:"subsample_frac"`
	NaiveSeconds    float64 `json:"naive_seconds"`
	EnsembleSeconds float64 `json:"ensemble_seconds"`
	Speedup         float64 `json:"speedup"`
	StencilsReused  int64   `json:"stencils_reused"`
	SupportEdges    int     `json:"support_edges"`
	ConsensusEdges  int     `json:"consensus_edges"`
}

// enDoc is the envelope of a BENCH_ensemble*.json measurement file.
type enDoc struct {
	Experiment string  `json:"experiment"`
	Engine     string  `json:"engine"`
	Seed       uint64  `json:"seed"`
	Rows       []enRow `json:"rows"`
}

// enMaxRegression mirrors the PS/SC/DP gates: a matched row may lose up
// to this fraction of its baseline ensemble speedup before -compare-en
// trips.
const enMaxRegression = 0.15

func loadENDoc(path string) (*enDoc, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc enDoc
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Rows) == 0 {
		return nil, fmt.Errorf("%s: no measurement rows", path)
	}
	return &doc, nil
}

// compareEN matches baseline rows to fresh rows by configuration and
// reports every matched row whose ensemble speedup dropped by more than
// maxRegress (fractional). Unmatched baseline rows are ignored, as in
// comparePS: a quick pass gates against a quick baseline.
func compareEN(baseline, fresh []enRow, maxRegress float64) (regressions []string, matched int) {
	type key struct{ genes, samples, perms, boots int }
	latest := make(map[key]enRow, len(fresh))
	for _, r := range fresh {
		latest[key{r.Genes, r.Samples, r.Permutations, r.Bootstraps}] = r
	}
	for _, old := range baseline {
		now, ok := latest[key{old.Genes, old.Samples, old.Permutations, old.Bootstraps}]
		if !ok {
			continue
		}
		matched++
		floor := old.Speedup * (1 - maxRegress)
		if now.Speedup < floor {
			regressions = append(regressions, fmt.Sprintf(
				"n=%d m=%d q=%d B=%d: speedup %.2fx < %.2fx (baseline %.2fx - %.0f%%)",
				old.Genes, old.Samples, old.Permutations, old.Bootstraps,
				now.Speedup, floor, old.Speedup, 100*maxRegress))
		}
	}
	return regressions, matched
}

// enPair is one paired measurement: the naive B-scan total against the
// single ensemble run, interleaved so both see the same transient load.
type enPair struct {
	naive, ens *tinge.Result
	naiveSec   float64
	ensSec     float64
}

// enPairs measures naive-vs-ensemble in interleaved pairs, reps times,
// and keeps the pair with the median naive/ensemble wall ratio — the
// same tail-discarding selection scPairs uses.
func (s *suite) enPairs(d *tinge.Dataset, cfg tinge.Config, reps int) enPair {
	b := cfg.Ensemble.Bootstraps
	runs := make([]enPair, 0, reps)
	for r := 0; r < reps; r++ {
		// Naive baseline: B independent partial runs, each inferring one
		// bootstrap from scratch. Identical subsets and estimates — only
		// the shared precompute, arenas, and permutation pool are lost.
		naiveEns := tinge.NewEnsemble(d.N())
		var last *tinge.Result
		start := time.Now()
		for i := 0; i < b; i++ {
			pc := cfg
			pc.Ensemble.Start, pc.Ensemble.Count = i, 1
			res, err := tinge.InferDataset(d, pc)
			if err != nil {
				log.Fatalf("EN naive bootstrap %d: %v", i, err)
			}
			naiveEns.Fold(res.EnsembleNetworks[0])
			last = res
		}
		naiveSec := time.Since(start).Seconds()
		last.Ensemble = naiveEns

		start = time.Now()
		ens, err := tinge.InferDataset(d, cfg)
		if err != nil {
			log.Fatalf("EN ensemble: %v", err)
		}
		ensSec := time.Since(start).Seconds()
		runs = append(runs, enPair{last, ens, naiveSec, ensSec})
	}
	sort.Slice(runs, func(a, b int) bool {
		return runs[a].naiveSec/runs[a].ensSec < runs[b].naiveSec/runs[b].ensSec
	})
	return runs[(len(runs)-1)/2]
}

// EN: bootstrap consensus ensembles — one B-bootstrap ensemble run
// against B naive independent scans. The two protocols are definitionally
// identical (same seeded subsets, same full-set normalization, same
// per-bootstrap filters), so the support tables must agree exactly; the
// experiment measures what the shared precompute/arena/permutation-pool
// amortization is worth end to end. Results go to BENCH_ensemble.json.
func (s *suite) en() {
	header("EN", "bootstrap ensemble vs naive repeated scans (host engine)")
	type enSize struct{ n, m int }
	sizes := []enSize{{250, 337}, {500, 337}}
	perms, boots := 30, 10
	reps := 3
	if s.quick {
		sizes = []enSize{{100, 128}, {200, 128}}
		perms = 10
		reps = 3
	}
	fmt.Printf("%7s %7s %4s %12s %12s %9s %12s %9s %9s\n",
		"genes", "m", "B", "naive(s)", "ensemble(s)", "speedup", "stencilHits", "support", "consensus")
	var rows []enRow
	for _, sz := range sizes {
		n, m := sz.n, sz.m
		d := s.dataset(n, m)
		cfg := tinge.Config{
			Seed: s.seed, Permutations: perms, DPI: true, DPITolerance: 0.1,
			Ensemble: tinge.EnsembleConfig{
				Bootstraps: boots, SubsampleFrac: 0.8, Seed: s.seed, SupportCutoff: 0.5,
			},
		}

		med := s.enPairs(d, cfg, reps)

		// Bit-identity check: the folded naive support table must equal the
		// ensemble run's exactly — support counts AND weight-sum bits.
		ne, ee := med.naive.Ensemble.Edges(), med.ens.Ensemble.Edges()
		if len(ne) != len(ee) {
			log.Fatalf("EN n=%d: naive fold has %d support edges, ensemble run %d", n, len(ne), len(ee))
		}
		for k := range ne {
			if ne[k] != ee[k] {
				log.Fatalf("EN n=%d: support edge %d differs: naive %+v vs ensemble %+v", n, k, ne[k], ee[k])
			}
		}

		r := enRow{
			Genes: n, Samples: m, Permutations: perms, Bootstraps: boots,
			SubsampleFrac:   cfg.Ensemble.SubsampleFrac,
			NaiveSeconds:    med.naiveSec,
			EnsembleSeconds: med.ensSec,
			Speedup:         med.naiveSec / med.ensSec,
			StencilsReused:  med.ens.EnsembleStencilsReused,
			SupportEdges:    med.ens.Ensemble.Len(),
			ConsensusEdges:  med.ens.Network.Len(),
		}
		rows = append(rows, r)
		fmt.Printf("%7d %7d %4d %12.3f %12.3f %8.2fx %12d %9d %9d\n",
			n, m, boots, r.NaiveSeconds, r.EnsembleSeconds, r.Speedup,
			r.StencilsReused, r.SupportEdges, r.ConsensusEdges)
	}

	// Load the baseline before writing the fresh file: a full-size run
	// gated against the checked-in BENCH_ensemble.json overwrites that
	// very path.
	var old *enDoc
	if s.compareEN != "" {
		var err error
		if old, err = loadENDoc(s.compareEN); err != nil {
			log.Fatal(err)
		}
	}
	out := enDoc{Experiment: "EN", Engine: "host", Seed: s.seed, Rows: rows}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	path := s.benchPath("BENCH_ensemble")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote " + path)

	if old != nil {
		regressions, matched := compareEN(old.Rows, rows, enMaxRegression)
		fmt.Printf("compare vs %s: %d row(s) matched, %d regression(s)\n",
			s.compareEN, matched, len(regressions))
		for _, r := range regressions {
			fmt.Println("  REGRESSION: " + r)
		}
		if len(regressions) > 0 {
			log.Fatalf("ensemble speedup regressed vs %s", s.compareEN)
		}
	}
}
