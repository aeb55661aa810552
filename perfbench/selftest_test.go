package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"repro/tinge"
)

// TestAlteredNetworkCountsAsFailure feeds the run's output checks one
// altered network each — a batch inference whose edge TSV differs from
// the run's first, and a served job whose network differs from the
// in-process reference — and shows each counted as a failed operation.
func TestAlteredNetworkCountsAsFailure(t *testing.T) {
	data := tinge.MustGenerate(tinge.GenConfig{Genes: 40, Experiments: 64, Seed: 3})
	res, err := tinge.Infer(data.Expr, tinge.Config{Permutations: 10, DPI: true, DPITolerance: dpiTolerance, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := res.Network.WriteTSV(&b, data.Genes); err != nil {
		t.Fatal(err)
	}
	good := b.Bytes()
	if len(good) == 0 {
		t.Fatal("reference network is empty")
	}
	// Change the last digit of the first edge's weight.
	altered := slices.Clone(good)
	nl := bytes.IndexByte(altered, '\n')
	altered[nl-1] = '0' + (altered[nl-1]-'0'+1)%10

	batch := &batchRun{o: newOutcome()}
	for i, net := range [][]byte{good, good, altered} {
		batch.o.attempted++
		if got, want := batch.accept("inference", net), i < 2; got != want {
			t.Errorf("batch network %d accepted = %v, want %v", i, got, want)
		}
	}
	served := newOutcome()
	spec := &jobSpec{data: data}
	for i, net := range [][]byte{good, altered} {
		served.attempted++
		if got, want := checkServed(served, &jobRecord{spec: spec, network: net}, good), i == 0; got != want {
			t.Errorf("served network %d accepted = %v, want %v", i, got, want)
		}
	}
	for name, o := range map[string]*outcome{"batch": batch.o, "served": served} {
		if o.failed != 1 || o.errorRate() <= 0 {
			t.Errorf("%s: failed %d of %d, error_rate %v; want one failure", name, o.failed, o.attempted, o.errorRate())
		}
	}
}

// TestCatalogMatchesBenchmarkJSON pins the metrics and workloads the
// program reports to the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind     string
		declared []struct{ Name, Unit string }
		have     []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.declared) != len(c.have) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", c.kind, len(c.declared), len(c.have))
			continue
		}
		for i, d := range c.declared {
			if d.Name != c.have[i].name || d.Unit != c.have[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", c.kind, i, d.Name, d.Unit, c.have[i].name, c.have[i].unit)
			}
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program runs %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is declared but not run", w.Name)
		}
	}
}
