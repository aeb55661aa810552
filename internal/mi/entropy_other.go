//go:build !amd64

package mi

import "math"

// entropyScratchLen is 0: the entropy pass here needs no scratch.
func entropyScratchLen(bins int) int { return 0 }

// jointEntropy returns the entropy in bits of the float64 joint scaled
// by inv: -p·log2(p) with p = c·inv over the cells with c > 0, one
// math.Log2 per cell, in cell order.
func (ws *Workspace) jointEntropy(inv float64) float64 {
	var h float64
	for _, c := range ws.joint {
		if c > 0 {
			p := c * inv
			h -= p * math.Log2(p)
		}
	}
	return h
}
