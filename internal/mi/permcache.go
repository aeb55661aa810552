package mi

// PermCache materializes, per gene, the permuted offset rows
// permOffs[p][s] = Offsets[g·m + perm_p[s]] and the matching permuted
// stencil-weight rows for every permutation of the pool. Building an
// entry costs one gather per permutation; after that every permuted
// evaluation against the gene streams both arrays sequentially —
// no double indirection, no per-permutation gather — and the entry is
// shared by all rows i of a tile and all q permutations.
//
// The cache is worker-local (the Workspace rule: one per goroutine).
// All entries live in a single arena allocated up front and sized to
// capacity genes, so its footprint is fixed: evicting re-points slots
// into the same arena instead of handing dead entries to the garbage
// collector. Eviction is wholesale when the capacity is exceeded.
//
// The scan does not use it (see sweep.go); the repository benchmark's
// permutation-kernel timing still streams its rows through
// SweepBucketed.
type PermCache struct {
	est      *Estimator
	perms    [][]int32
	capacity int
	entries  map[int]int // gene -> slot index in the arena
	next     int         // next free slot; == capacity triggers eviction
	offsAll  []int32     // capacity × q·m permuted offsets
	wAll     []float32   // capacity × q·m·k permuted weights
	hits     int64
	misses   int64
}

// NewPermCache builds a cache over the given permutation pool rows.
// capacity bounds the number of genes cached at once (the arena is
// allocated for exactly that many up front); values < 1 are clamped
// to 1.
func NewPermCache(est *Estimator, perms [][]int32, capacity int) *PermCache {
	if capacity < 1 {
		capacity = 1
	}
	m := est.wm.Samples
	k := est.wm.Basis.Order()
	q := len(perms)
	return &PermCache{
		est:      est,
		perms:    perms,
		capacity: capacity,
		entries:  make(map[int]int, capacity),
		offsAll:  make([]int32, capacity*q*m),
		wAll:     make([]float32, capacity*q*m*k),
	}
}

// slot returns the arena views of slot idx: q·m offsets and q·m·k
// weights.
func (c *PermCache) slot(idx int) (offs []int32, w []float32) {
	m := c.est.wm.Samples
	k := c.est.wm.Basis.Order()
	q := len(c.perms)
	no, nw := q*m, q*m*k
	return c.offsAll[idx*no : (idx+1)*no], c.wAll[idx*nw : (idx+1)*nw]
}

// Gene returns gene g's cached permuted offset and weight rows,
// materializing them into an arena slot on first use.
func (c *PermCache) Gene(g int) (offs []int32, w []float32) {
	if idx, ok := c.entries[g]; ok {
		c.hits++
		return c.slot(idx)
	}
	c.misses++
	if c.next >= c.capacity {
		// Wholesale eviction: the scan visits genes in tile-block order,
		// so anything older than the current column block is dead anyway.
		// The arena stays put; only the slot map resets.
		clear(c.entries)
		c.next = 0
	}
	idx := c.next
	c.next++
	offs, w = c.slot(idx)
	m := c.est.wm.Samples
	k := c.est.wm.Basis.Order()
	base := g * m
	srcOffs := c.est.wm.Offsets
	srcW := c.est.wm.Sparse
	for p, perm := range c.perms {
		po := offs[p*m:]
		pw := w[p*m*k:]
		for s, idx := range perm {
			j := base + int(idx)
			po[s] = srcOffs[j]
			copy(pw[s*k:s*k+k], srcW[j*k:j*k+k])
		}
	}
	c.entries[g] = idx
	return offs, w
}

// Bytes reports the cache's arena footprint — fixed at construction,
// independent of how many genes have been materialized.
func (c *PermCache) Bytes() int {
	return len(c.offsAll)*4 + len(c.wAll)*4
}

// Hits returns the number of cache hits so far.
func (c *PermCache) Hits() int64 { return c.hits }

// Misses returns the number of entry materializations so far.
func (c *PermCache) Misses() int64 { return c.misses }
