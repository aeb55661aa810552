package core

import (
	"context"

	"repro/internal/bspline"
	"repro/internal/phi"
)

// runHybrid models the paper's combined execution: the host processor
// and the coprocessor work on the pair scan simultaneously, each taking
// the share of tiles its throughput earns. Results are computed exactly
// on the host (identical to every other engine); the simulated time is
// the slower of the two devices' shares, with the coprocessor's share
// paying its offload transfers.
//
// The split is a greedy heterogeneous list schedule: tiles (priced per
// device from observed evaluation counts) go to whichever device would
// finish its accumulated share sooner — the steady state of the
// paper's dynamic host/device work distribution. kit is hostScan's
// optional shared scanners (the ensemble loop's entry).
func runHybrid(ctx context.Context, wm *bspline.WeightMatrix, cfg Config, res *Result, kit []*tileScanner) error {
	evalsPerTile, tiles, err := hostScan(ctx, wm, cfg, res, kit)
	if err != nil {
		return err
	}
	devP := cfg.Device
	devX := cfg.HostDevice

	unit := func(d phi.Device) float64 {
		return d.TileCost(phi.KernelParams{
			Pairs: 1, Samples: wm.Samples, Order: cfg.Order, Bins: cfg.Bins,
			Perms: 0, Vectorized: true,
		}).ComputeCycles
	}
	unitP, unitX := unit(devP), unit(devX)

	// Rough per-device throughput (issue slots per second across the
	// chip) used only for the greedy finish-time estimates; the final
	// makespans use the full core model.
	throughput := func(d phi.Device, tpc int) float64 {
		perCore := d.IssueWidth
		if float64(tpc)/d.SingleThreadIssueGap < perCore {
			perCore = float64(tpc) / d.SingleThreadIssueGap
		}
		return d.ClockGHz * 1e9 * float64(d.Cores) * perCore
	}
	thrP := throughput(devP, cfg.ThreadsPerCore)
	thrX := throughput(devX, devX.ThreadsPerCore)

	var phiItems, xeonItems []phi.Work
	var phiEvals, totalEvals int64
	var accP, accX float64
	for ti := range tiles {
		evals := float64(evalsPerTile[ti])
		totalEvals += evalsPerTile[ti]
		costP := evals * unitP / thrP
		costX := evals * unitX / thrX
		if accP+costP <= accX+costX {
			accP += costP
			phiItems = append(phiItems, phi.Work{ComputeCycles: evals * unitP})
			phiEvals += evalsPerTile[ti]
		} else {
			accX += costX
			xeonItems = append(xeonItems, phi.Work{ComputeCycles: evals * unitX})
		}
	}

	var phiSec, xeonSec float64
	if len(phiItems) > 0 {
		phiSec = devP.Seconds(devP.Makespan(phiItems, cfg.ThreadsPerCore, cfg.Policy))
		// The coprocessor share still needs the full weight matrix
		// (tiles touch arbitrary gene rows); stream it double-buffered.
		inputBytes := int64(wm.Genes) * int64(cfg.Bins) * int64(wm.Samples) * 4
		chunks := offloadChunks
		transfers := make([]float64, chunks)
		computes := make([]float64, chunks)
		for i := range transfers {
			transfers[i] = cfg.Offload.TransferTime(inputBytes / int64(chunks))
			computes[i] = phiSec / float64(chunks)
		}
		pipelined := phi.PipelineTime(transfers, computes, true)
		res.SimTransferSeconds = pipelined - phiSec
		if res.SimTransferSeconds < 0 {
			res.SimTransferSeconds = 0
		}
		phiSec = pipelined
	}
	if len(xeonItems) > 0 {
		xeonSec = devX.Seconds(devX.Makespan(xeonItems, devX.ThreadsPerCore, cfg.Policy))
	}
	res.SimSeconds = phiSec
	if xeonSec > res.SimSeconds {
		res.SimSeconds = xeonSec
	}
	if totalEvals > 0 {
		res.HybridPhiShare = float64(phiEvals) / float64(totalEvals)
	}
	return nil
}
