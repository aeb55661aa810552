//go:build !amd64

package mi

// vecBcastLen is 0: no vector kernel reads broadcast rows here.
func vecBcastLen(k, m int) int { return 0 }

// scatterVec3 reports that this architecture has no vector scatter
// kernel: every fill runs the portable scatterGo.
func (e *Estimator) scatterVec3(i, j int, perm []int32, ws *Workspace) bool { return false }
