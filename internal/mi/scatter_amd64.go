package mi

import "fmt"

// The order-3 block scatter in SSE2 (scatter_amd64.s). Each sample's
// stencil row u is one 4-lane multiply of gene i's weight w_i(u),
// broadcast across the lanes, by gene j's three weights (lane 3 is
// zero) and one 4-lane add into row u of its bucket block. The
// broadcast rows are built once per row gene beside its bucket keys
// (Workspace.wiBcast, 48 B per sample), which measured faster on the
// tile scan than broadcasting in registers for every pair.
//
// MULPS and ADDPS round every lane exactly as the scalar MULSS and
// ADDSS of scatterGo do, and each block entry receives the same
// products in the same ascending sample order, so the blocks — and
// every joint, MI value and verdict — are bit for bit those of the
// portable scatter. SSE2 is the amd64 baseline, so no CPU-feature
// check selects the kernel, and it uses no fused multiply-add, which
// would skip the product's rounding.
//
// Both kernels take m = len(keyI) and rely on their wrapper for every
// other length: offJ and perm hold m entries, wi 12·m broadcast
// weights and wj 3·m weights. They read each of gene j's stencils with
// an 8-byte and a 4-byte load, never past wj, and they stop at the
// first sample whose bucket block lies outside acc or, in
// scatter3PermSSE, whose permutation index lies outside [0, m),
// returning its index; a complete pass returns m.
//
// The race detector does not instrument assembly. The kernels write
// only the workspace's blockAcc, which belongs to one goroutine, and
// read its wiBcast and the weight matrix, which is read-only while
// kernels run — the rules every kernel in this package already relies
// on.

// scatter3SSE is the unpermuted scatter: sample s pairs with sample s
// of gene j.
//
//go:noescape
func scatter3SSE(acc []float32, keyI, offJ []int32, wi, wj []float32) int

// scatter3PermSSE gathers gene j through perm: sample s pairs with
// sample perm[s] of gene j.
//
//go:noescape
func scatter3PermSSE(acc []float32, keyI, offJ []int32, wi, wj []float32, perm []int32) int

// vecBcastLen is the length of Workspace.wiBcast: at order 3, gene i's
// three weights per sample, each broadcast across four lanes.
func vecBcastLen(k, m int) int {
	if k != 3 {
		return 0
	}
	return 12 * m
}

// scatterVec3 runs the SSE2 scatter for an order-3 basis, gene j taken
// unpermuted or through perm, and reports whether it ran. ws.keyI and
// ws.wiBcast must hold gene i's rows (prepareRowKeys). A permutation
// index outside [0, m) panics, as an out-of-range index does in
// scatterGo.
func (e *Estimator) scatterVec3(i, j int, perm []int32, ws *Workspace) bool {
	if e.wm.Basis.Order() != 3 {
		return false
	}
	m := e.wm.Samples
	keyI := ws.keyI[:m]
	offJ := e.wm.Offsets[j*m : (j+1)*m]
	wi := ws.wiBcast[:12*m]
	wj := e.wm.Sparse[3*j*m : 3*(j+1)*m]
	var n int
	if perm == nil {
		n = scatter3SSE(ws.blockAcc, keyI, offJ, wi, wj)
	} else {
		perm = perm[:m]
		n = scatter3PermSSE(ws.blockAcc, keyI, offJ, wi, wj, perm)
		if n < m && uint32(perm[n]) >= uint32(m) {
			panic(fmt.Sprintf("mi: permutation index %d out of range [0, %d)", perm[n], m))
		}
	}
	if n < m {
		panic(fmt.Sprintf("mi: sample %d of pair (%d, %d) maps outside the bucket grid", n, i, j))
	}
	return true
}
