package core

import (
	"context"

	"repro/internal/bspline"
	"repro/internal/phi"
)

// offloadChunks is the number of gene-block transfers the simulated
// offload pipeline uses for double-buffering.
const offloadChunks = 16

// runPhi executes the pipeline with exact host arithmetic (so the
// resulting network is identical to the host engine's for the same
// seed) while accounting simulated coprocessor time:
//
//   - compute: per-tile MI-evaluation counts observed during the real
//     scan are priced with the device's kernel cost model and scheduled
//     onto cores × threads with the configured policy;
//   - offload: the dense weight matrix streams to the device in gene
//     blocks, double-buffered against compute.
//
// SimSeconds is the pipelined total; SimTransferSeconds isolates the
// transfer component. kit is hostScan's optional shared scanners; each
// ensemble bootstrap accounts its own simulated scan over the
// subsampled width.
func runPhi(ctx context.Context, wm *bspline.WeightMatrix, cfg Config, res *Result, kit []*tileScanner) error {
	evalsPerTile, tiles, err := hostScan(ctx, wm, cfg, res, kit)
	if err != nil {
		return err
	}
	dev := cfg.Device

	// Price one MI evaluation (one pair, no permutations) once; a
	// tile's compute cost is its observed evaluation count times that.
	unit := dev.TileCost(phi.KernelParams{
		Pairs: 1, Samples: wm.Samples, Order: cfg.Order, Bins: cfg.Bins,
		Perms: 0, Vectorized: true,
	}).ComputeCycles

	items := make([]phi.Work, len(tiles))
	for ti, tl := range tiles {
		pairs := tl.Pairs()
		avgPerms := 0
		if pairs > 0 {
			avgPerms = int(evalsPerTile[ti])/pairs - 1
			if avgPerms < 0 {
				avgPerms = 0
			}
		}
		stall := dev.TileCost(phi.KernelParams{
			Pairs: pairs, Samples: wm.Samples, Order: cfg.Order,
			Bins: cfg.Bins, Perms: avgPerms, Vectorized: true,
		}).StallCycles
		items[ti] = phi.Work{
			ComputeCycles: float64(evalsPerTile[ti]) * unit,
			StallCycles:   stall,
		}
	}
	makespan := dev.Seconds(dev.Makespan(items, cfg.ThreadsPerCore, cfg.Policy))

	// Offload: the device needs the dense weight matrix
	// (genes × bins × samples float32) plus permutation indices; the
	// result edge list returns. Stream the input in gene blocks so
	// compute on early blocks overlaps later transfers. When the matrix
	// exceeds device memory, the out-of-core plan's panel reloads
	// inflate the transfer volume.
	plan := dev.PlanOutOfCore(wm.Genes, cfg.Bins, wm.Samples)
	inputBytes := plan.TotalTransferBytes
	permBytes := int64(cfg.Permutations) * int64(wm.Samples) * 4
	resultBytes := int64(res.Network.Len()) * 16

	chunks := offloadChunks
	if chunks > wm.Genes {
		chunks = wm.Genes
	}
	if chunks < 1 {
		chunks = 1
	}
	transfers := make([]float64, chunks)
	computes := make([]float64, chunks)
	for i := range transfers {
		transfers[i] = cfg.Offload.TransferTime(inputBytes / int64(chunks))
		computes[i] = makespan / float64(chunks)
	}
	transfers[0] += cfg.Offload.TransferTime(permBytes)
	pipeline := phi.PipelineTime(transfers, computes, true)

	var transferTotal float64
	for _, x := range transfers {
		transferTotal += x
	}
	resultXfer := cfg.Offload.TransferTime(resultBytes)
	res.SimSeconds = pipeline + resultXfer
	res.SimTransferSeconds = transferTotal + resultXfer
	return nil
}
