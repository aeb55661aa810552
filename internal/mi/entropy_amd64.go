package mi

import "math"

// The float64 entropy pass's log2 in SSE2 (entropy_amd64.s), two cells
// per instruction. log2SSE replays Go's amd64 math.Log2 operation for
// operation: Frexp's bit split (a fraction of exactly 0.5 returns
// exp-1), archLog's sequence on the fraction — including its CMPSD
// predicate 5, which takes f1 <= Sqrt2/2 where the pure-Go log takes
// f1 < Sqrt2/2 — and then Log(frac)*(1/Ln2) + exp. The exponent
// converts to double exactly through the 2^52 magic number, and packed
// MULPD, ADDPD, SUBPD and DIVPD round each lane exactly as the scalar
// MULSD, ADDSD, SUBSD and DIVSD do, so every log is bit for bit
// math.Log2's (TestLog2SSEMatchesMathLog2). SSE2 is the amd64 baseline,
// so no CPU-feature check selects the kernel, and it uses no fused
// multiply-add.
//
// log2SSE writes dst[x] = log2(src[x]) for x from 0, two cells at a
// time, and stops before an odd last cell and before the first pair
// holding a value outside the positive normal range [2^-1022,
// MaxFloat64]; it returns the number of cells written. dst must be at
// least as long as src.
//
// The race detector does not instrument assembly. The kernel writes
// only the workspace's cells, which belong to one goroutine, as the
// scatter kernels write only its blockAcc (scatter_amd64.go).
//
//go:noescape
func log2SSE(dst, src []float64) int

// entropyScratchLen is the length of Workspace.cells: the compacted
// probabilities and their logs.
func entropyScratchLen(bins int) int { return 2 * bins * bins }

// log2Cells sets dst[x] = math.Log2(src[x]) for every cell of src, two
// at a time in log2SSE. An odd last cell, and a pair holding a value
// outside the positive normal range, go to math.Log2.
func log2Cells(dst, src []float64) {
	dst = dst[:len(src)]
	for x := 0; x < len(src); x++ {
		x += log2SSE(dst[x:], src[x:])
		if x < len(src) {
			dst[x] = math.Log2(src[x])
		}
	}
}

// jointEntropy returns the entropy in bits of the float64 joint scaled
// by inv: the cells with c > 0 are compacted, in cell order, as
// p = c·inv into the first half of ws.cells, log2Cells writes their
// logs into the second half, and -p·log2(p) is summed in cell order —
// the terms and the order of the math.Log2 loop the other
// architectures run. No p is outside the positive normals: a cell
// holds a float32 count of at least 2^-149, so p ≥ 2^-149/m.
func (ws *Workspace) jointEntropy(inv float64) float64 {
	cells := len(ws.joint)
	p, l := ws.cells[:cells], ws.cells[cells:2*cells]
	n := 0
	for _, c := range ws.joint {
		if c > 0 {
			p[n] = c * inv
			n++
		}
	}
	p = p[:n]
	log2Cells(l, p)
	var h float64
	for x, v := range p {
		h -= v * l[x]
	}
	return h
}
