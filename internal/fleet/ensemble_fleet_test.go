package fleet

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/grn"
	"repro/internal/server"
)

// ensembleScanConfig is scanConfig plus a small bootstrap ensemble:
// 4 bootstraps over 75% subsamples, consensus at majority support.
func ensembleScanConfig(t testing.TB) core.Config {
	t.Helper()
	cfg := scanConfig(t)
	cfg.Ensemble = core.EnsembleConfig{
		Bootstraps: 4, SubsampleFrac: 0.75, Seed: 3, SupportCutoff: 0.5,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// assertEnsembleIdentical fails unless the fleet's ensemble aggregate
// reproduces the single-process one exactly: support table (counts AND
// WeightSum bits — the fold order is part of the contract), per-bootstrap
// thresholds, consensus network, and work counters.
func assertEnsembleIdentical(t testing.TB, got, want *core.Result) {
	t.Helper()
	if got.Ensemble == nil {
		t.Fatal("fleet result has no ensemble aggregate")
	}
	ge, we := got.Ensemble.Edges(), want.Ensemble.Edges()
	if len(ge) != len(we) {
		t.Fatalf("support edges %d != single-process %d", len(ge), len(we))
	}
	for i := range ge {
		if ge[i] != we[i] {
			t.Fatalf("support edge %d: fleet %+v != single-process %+v", i, ge[i], we[i])
		}
	}
	if len(got.EnsembleThresholds) != len(want.EnsembleThresholds) {
		t.Fatalf("thresholds %d != %d", len(got.EnsembleThresholds), len(want.EnsembleThresholds))
	}
	for b := range got.EnsembleThresholds {
		if got.EnsembleThresholds[b] != want.EnsembleThresholds[b] {
			t.Fatalf("bootstrap %d threshold %v != single-process %v",
				b, got.EnsembleThresholds[b], want.EnsembleThresholds[b])
		}
	}
	ce, cw := got.Network.Edges(), want.Network.Edges()
	if len(ce) != len(cw) {
		t.Fatalf("consensus edges %d != single-process %d", len(ce), len(cw))
	}
	for i := range ce {
		if ce[i] != cw[i] {
			t.Fatalf("consensus edge %d: fleet %+v != single-process %+v", i, ce[i], cw[i])
		}
	}
	if got.PairsEvaluated != want.PairsEvaluated {
		t.Fatalf("pairs evaluated %d != single-process %d", got.PairsEvaluated, want.PairsEvaluated)
	}
	if got.PermEvaluations != want.PermEvaluations {
		t.Fatalf("perm evaluations %d != single-process %d", got.PermEvaluations, want.PermEvaluations)
	}
}

// TestFleetEnsembleBitIdentity is the ensemble analogue of the fleet
// tentpole invariant: 4 bootstraps fanned out over 3 workers (one
// worker job per bootstrap) fold to the exact support table, thresholds,
// and consensus network a single process produces.
func TestFleetEnsembleBitIdentity(t *testing.T) {
	body := fleetBody(t, 24, 16, 4)
	cfg := ensembleScanConfig(t)
	want := reference(t, body, cfg)
	if want.Ensemble == nil || want.Ensemble.Len() == 0 {
		t.Fatal("reference ensemble is empty — test dataset too weak")
	}

	c, _ := newFleet(t, 3)
	id, hit, err := c.Submit(body, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("fresh submission reported a cache hit")
	}
	got, err := c.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	assertEnsembleIdentical(t, got, want)
	if got.EnsembleBootstrapsRun != cfg.Ensemble.Bootstraps {
		t.Fatalf("bootstraps run = %d, want %d", got.EnsembleBootstrapsRun, cfg.Ensemble.Bootstraps)
	}
	if v := c.mDispatched.Value(); v < float64(cfg.Ensemble.Bootstraps) {
		t.Fatalf("only %v bootstrap dispatches — no real fan-out", v)
	}

	// The coordinator serves the merged support table over HTTP with the
	// same route and framing as the single server.
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/support")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /support = %d: %s", resp.StatusCode, body2)
	}
	var wantTSV bytes.Buffer
	if err := want.Ensemble.WriteSupportTSV(&wantTSV, c.jobs[id].scan.genes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body2, wantTSV.Bytes()) {
		t.Fatalf("coordinator support TSV differs from single-process table:\ngot:\n%s\nwant:\n%s", body2, wantTSV.Bytes())
	}
}

// TestFleetEnsembleLedgerResume seeds a coordinator ledger with
// bootstrap 0 already folded (computed honestly single-process via a
// Start/Count partial run) and requires the fleet to dispatch only the
// remaining bootstraps yet converge bit-identically.
func TestFleetEnsembleLedgerResume(t *testing.T) {
	body := fleetBody(t, 24, 16, 4)
	cfg := ensembleScanConfig(t)
	want := reference(t, body, cfg)
	dir := t.TempDir()
	b := cfg.Ensemble.Bootstraps

	// Bootstrap 0's honest partial result, exactly as a worker computes it.
	partCfg := cfg
	partCfg.Ensemble.Start, partCfg.Ensemble.Count = 0, 1
	part := reference(t, body, partCfg)
	if len(part.EnsembleNetworks) != 1 || len(part.EnsembleThresholds) != 1 {
		t.Fatalf("partial run returned %d networks, %d thresholds",
			len(part.EnsembleNetworks), len(part.EnsembleThresholds))
	}

	ens := grn.NewEnsemble(24)
	ens.Fold(part.EnsembleNetworks[0])
	st := checkpoint.NewState(core.Fingerprint(24, 16, cfg), b)
	st.Done[0] = true
	st.EnsembleEdges = ens.Edges()
	st.EnsembleThresholds = make([]float64, b)
	st.EnsembleThresholds[0] = part.EnsembleThresholds[0]
	key := server.JobKey(body, cfg)
	ledger := dir + "/" + key + ".fleet.ckpt"
	if err := checkpoint.SaveFile(ledger, st); err != nil {
		t.Fatal(err)
	}

	c, _ := newFleet(t, 2)
	c.CheckpointDir = dir
	id, _, err := c.Submit(body, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	// The resumed scan counts only the bootstraps this session ran.
	session := *want
	session.PairsEvaluated -= part.PairsEvaluated
	session.PermEvaluations -= part.PermEvaluations
	assertEnsembleIdentical(t, got, &session)
	if got.EnsembleBootstrapsRun != b-1 {
		t.Fatalf("bootstraps run = %d, want %d (bootstrap 0 resumed)", got.EnsembleBootstrapsRun, b-1)
	}
	if v := c.mDispatched.Value(); v != float64(b-1) {
		t.Fatalf("dispatched %v bootstraps, want %d (bootstrap 0 resumed from ledger)", v, b-1)
	}
	if s, _ := checkpoint.LoadFile(ledger); s != nil {
		t.Fatal("ledger not removed after successful merge")
	}
}

// TestFleetEnsembleSubmitValidation pins the submission guard: a
// bootstrap-range config is a worker-protocol detail, never a fleet
// submission.
func TestFleetEnsembleSubmitValidation(t *testing.T) {
	body := fleetBody(t, 16, 12, 4)
	c, _ := newFleet(t, 1)
	cfg := ensembleScanConfig(t)
	cfg.Ensemble.Start, cfg.Ensemble.Count = 1, 2
	if _, _, err := c.Submit(body, cfg); err == nil {
		t.Fatal("bootstrap-range submission accepted")
	}
}
