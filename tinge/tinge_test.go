package tinge_test

import (
	"bytes"
	"math"
	"testing"

	"repro/tinge"
)

func TestQuickstartFlow(t *testing.T) {
	data := tinge.MustGenerate(tinge.GenConfig{
		Genes: 30, Experiments: 120, AvgRegulators: 1, Noise: 0.05, Seed: 1,
	})
	res, err := tinge.InferDataset(data, tinge.Config{
		Seed: 1, Permutations: 10, Workers: 2, DPI: true, DPITolerance: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Network.Len() == 0 {
		t.Fatal("no edges")
	}
	score := res.Network.ScoreAgainst(data.TrueEdgeSet())
	if score.TP == 0 {
		t.Fatal("no true positives on easy data")
	}
}

func TestMatrixFromRowsAndInfer(t *testing.T) {
	rows := make([][]float32, 5)
	for g := range rows {
		rows[g] = make([]float32, 20)
		for s := range rows[g] {
			rows[g][s] = float32((g*7 + s*3) % 13)
		}
	}
	m := tinge.MatrixFromRows(rows)
	res, err := tinge.Infer(m, tinge.Config{Seed: 2, Permutations: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Network.N() != 5 {
		t.Fatalf("N = %d", res.Network.N())
	}
}

func TestEngineConstantsWired(t *testing.T) {
	data := tinge.MustGenerate(tinge.GenConfig{Genes: 12, Experiments: 40, Seed: 3})
	for _, eng := range []tinge.EngineKind{tinge.Host, tinge.Phi, tinge.Cluster, tinge.Hybrid} {
		cfg := tinge.Config{Engine: eng, Seed: 3, Permutations: 5, Workers: 2, Ranks: 2}
		res, err := tinge.InferDataset(data, cfg)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if res.Network == nil {
			t.Fatalf("%v: nil network", eng)
		}
	}
}

func TestTSVRoundTripThroughPublicAPI(t *testing.T) {
	data := tinge.MustGenerate(tinge.GenConfig{Genes: 6, Experiments: 8, Seed: 4})
	var buf bytes.Buffer
	if err := data.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := tinge.ReadExpressionTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 6 || back.M() != 8 {
		t.Fatalf("shape %dx%d", back.N(), back.M())
	}

	net := tinge.NewNetwork(3)
	net.AddEdge(0, 2, 0.5)
	var nb bytes.Buffer
	if err := net.WriteTSV(&nb, nil); err != nil {
		t.Fatal(err)
	}
	nnet, err := tinge.ReadNetworkTSV(&nb, 3)
	if err != nil {
		t.Fatal(err)
	}
	if nnet.Len() != 1 {
		t.Fatalf("network round trip Len = %d", nnet.Len())
	}
}

func TestDeviceModels(t *testing.T) {
	p := tinge.XeonPhi5110P()
	x := tinge.XeonE5()
	if p.Cores != 60 || p.VectorLanes != 16 {
		t.Fatalf("phi model %+v", p)
	}
	if x.Cores != 16 || x.VectorLanes != 8 {
		t.Fatalf("xeon model %+v", x)
	}
}

func TestGaussianMI(t *testing.T) {
	if tinge.GaussianMI(0) != 0 {
		t.Fatal("MI(rho=0) != 0")
	}
	if math.Abs(tinge.GaussianMI(0.6)-0.3219) > 1e-3 {
		t.Fatalf("MI(0.6) = %v", tinge.GaussianMI(0.6))
	}
}

func TestPolicyConstantsDistinct(t *testing.T) {
	set := map[tinge.Policy]bool{
		tinge.StaticBlock: true, tinge.StaticCyclic: true,
		tinge.Dynamic: true, tinge.Stealing: true,
	}
	if len(set) != 4 {
		t.Fatal("policy constants collide")
	}
}

// TestIngestAtMinimumBudget: a streaming ingest and an out-of-core scan
// of its store at exactly MinMemoryBudget report PeakTileBytes within
// the budget, the ingest phase included. The matrix is larger than the
// budget, so the ingest spills, and the store's three panel-sized
// buffers must come out of the ingest budget.
func TestIngestAtMinimumBudget(t *testing.T) {
	const genes, experiments, tile = 400, 40, 8
	data := tinge.MustGenerate(tinge.GenConfig{Genes: genes, Experiments: experiments, Seed: 5})
	var buf bytes.Buffer
	if err := data.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := tinge.Config{Engine: tinge.OutOfCore, Seed: 5, Permutations: 5, Workers: 2, TileSize: tile}
	budget, err := tinge.MinMemoryBudget(genes, experiments, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if genes*experiments*4 <= budget {
		t.Fatalf("the %d B matrix fits the %d B budget; the ingest would not spill", genes*experiments*4, budget)
	}
	cfg.MemoryBudget = budget
	store, _, err := tinge.IngestExpressionTSV(&buf, t.TempDir(), tile, budget)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	res, err := tinge.InferStore(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakTileBytes > budget {
		t.Fatalf("peakTileBytes %d above the %d B budget", res.PeakTileBytes, budget)
	}
}
