package mi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bspline"
	"repro/internal/mat"
	"repro/internal/perm"
)

// TestScatterSSEMatchesPortable pins the SSE2 order-3 scatter to the
// portable scatterGo bit for bit: the bucket blocks after the scatter,
// and the float64 and float32 joints merged from them, for gene j
// unpermuted, gathered through every pool permutation, and read from
// PermCache rows (which always take the portable path). The fixtures
// cover m = 1, m at the order × bins floor, bins == order (a single
// bucket), and certRows' constant and heavily tied rows. Every gene
// meets the last one, whose stencils end the weight matrix, and every
// permutation sends some sample to the last sample (the tail read).
func TestScatterSSEMatchesPortable(t *testing.T) {
	const n, q = 7, 9
	for _, c := range []struct{ m, bins int }{{1, 10}, {2, 3}, {30, 10}, {37, 3}, {128, 10}, {337, 12}} {
		rng := rand.New(rand.NewSource(int64(100*c.m + c.bins)))
		data := mat.FromRows(certRows(rng, n, c.m))
		data.RankNormalize()
		e := NewEstimator(bspline.Precompute(bspline.MustNew(3, c.bins), data))
		vec, port := NewWorkspace(e), NewWorkspace(e)
		perms := perm.MustNewPool(uint64(c.m), c.m, q).Perms()
		pc := NewPermCache(e, perms, n)
		m, bins := c.m, c.bins
		// same compares the two workspaces' blocks, then merges each at
		// both precisions and compares the joints, leaving both clear.
		same := func(what string, i, j int) {
			t.Helper()
			for x := range vec.blockAcc {
				if math.Float32bits(vec.blockAcc[x]) != math.Float32bits(port.blockAcc[x]) {
					t.Fatalf("m %d bins %d pair (%d,%d) %s: block entry %d SSE %v != portable %v",
						m, bins, i, j, what, x, vec.blockAcc[x], port.blockAcc[x])
				}
			}
			v64, p64 := make([]float64, bins*bins), make([]float64, bins*bins)
			v32, p32 := make([]float32, bins*bins), make([]float32, bins*bins)
			mergeBlocks(vec.blockAcc, v64, bins, 3)
			mergeBlocks(port.blockAcc, p64, bins, 3)
			mergeBlocks(vec.blockAcc, v32, bins, 3)
			mergeBlocks(port.blockAcc, p32, bins, 3)
			for x := range v64 {
				if math.Float64bits(v64[x]) != math.Float64bits(p64[x]) || math.Float32bits(v32[x]) != math.Float32bits(p32[x]) {
					t.Fatalf("m %d bins %d pair (%d,%d) %s: joint cell %d SSE %v/%v != portable %v/%v",
						m, bins, i, j, what, x, v64[x], v32[x], p64[x], p32[x])
				}
			}
			clear(vec.blockAcc)
			clear(port.blockAcc)
		}
		for i := 0; i < n; i++ {
			e.prepareRowKeys(i, vec)
			e.prepareRowKeys(i, port)
			for j := 0; j < n; j++ {
				if !e.scatterVec3(i, j, nil, vec) {
					t.Fatal("no SSE2 kernel at order 3")
				}
				e.scatterGo(i, j, nil, nil, nil, port)
				same("unpermuted", i, j)
				offs, w := pc.Gene(j)
				for p, pm := range perms {
					e.scatterVec3(i, j, pm, vec)
					e.scatterGo(i, j, pm, nil, nil, port)
					same(fmt.Sprintf("perm %d", p), i, j)
					e.scatterVec3(i, j, pm, vec)
					e.scatterGo(i, j, nil, offs[p*m:(p+1)*m], w[3*p*m:3*(p+1)*m], port)
					same(fmt.Sprintf("perm %d cached", p), i, j)
				}
			}
		}
	}
}

// BenchmarkFillPortable is BenchmarkFillBlocked with the portable
// scatter in place of the SSE2 kernel.
func BenchmarkFillPortable(b *testing.B) {
	benchFill(b, func(e *Estimator, i, j int, perm []int32, ws *Workspace) {
		e.scatterGo(i, j, perm, nil, nil, ws)
		ws.mergeBlockAcc(3)
	})
}
