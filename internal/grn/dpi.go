package grn

// This file is the parallel, tiled DPI and CMI filtering phase. The
// sequential Network.DPI in grn.go remains the reference
// implementation; DPIParallel is the scaled phase the pipeline runs:
// the same triangle sweep over CSR-sharded adjacency, marked
// concurrently and rebuilt in edge order, bit-identical to the
// reference for every worker count and memory budget. Bit-identity
// holds because every triangle is decided once, from its smallest
// vertex, by the reference's rule (dpiLoser), so the parallel mark set
// is exactly the sequential one regardless of sweep order, and the
// rebuild walks the original edge list in insertion order.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/diskfault"
	"repro/internal/mi"
)

// FilterOpts parameterizes the parallel network filters (DPI and CMI).
type FilterOpts struct {
	// Tolerance is the DPI near-tie tolerance in [0,1); 0 is strict
	// (every violating triangle loses its weakest edge). Ignored by the
	// CMI filter.
	Tolerance float64
	// Workers is the sweep goroutine count (<= 0 selects GOMAXPROCS).
	Workers int
	// MemoryBudget, when > 0, caps the resident adjacency-shard payload
	// bytes; shards beyond it spill to a temp file and are re-read on
	// demand. It is raised to the pinned floor (3 shards per worker)
	// when set below it — FilterStats.EffectiveBudget reports the
	// ceiling actually enforced. 0 keeps the whole adjacency resident.
	MemoryBudget int64
	// SpillDir is where the shard spill file goes (default OS temp).
	SpillDir string
	// ShardRows is the shard height in genes (default 256).
	ShardRows int
	// FS is the filesystem seam the shard spill file goes through
	// (nil: the real filesystem) — the disk-fault tests' injection hook.
	FS diskfault.FS
}

// FilterStats reports what a filter pass did: edges removed, and the
// adjacency-shard store's traffic and high-water mark.
type FilterStats struct {
	// Removed is the number of edges the filter pruned.
	Removed int
	// EffectiveBudget is the shard budget actually enforced (>= the
	// configured one; 0 when unbudgeted).
	EffectiveBudget int64
	// ShardPeakBytes is the resident shard-payload high-water mark.
	ShardPeakBytes int64
	// ShardHits / ShardLoads count pins served resident vs. re-read
	// from the spill file; ShardEvictions counts payloads freed to stay
	// under budget.
	ShardHits, ShardLoads, ShardEvictions int64
	// ShardBytesSpilled / ShardBytesLoaded are cumulative spill-file
	// traffic.
	ShardBytesSpilled, ShardBytesLoaded int64
	// ShardReadRetries counts shard loads whose first read failed the
	// integrity trailer or I/O and were re-read once before succeeding
	// or surfacing a corruption error.
	ShardReadRetries int64
}

// RowFunc supplies gene g's rank-normalized expression row to the CMI
// filter. Implementations must be safe for concurrent use; the
// returned slice is read-only to the filter.
type RowFunc func(g int) ([]float32, error)

func (o FilterOpts) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// DPIParallel is the worker-parallel data-processing-inequality
// filter: identical output to DPI(opts.Tolerance) — same surviving
// edges, same order, same bitwise weights — for every worker count,
// shard height, and memory budget. The receiver is unmodified.
//
// Apex shards are handed to workers dynamically; each worker pins its
// apex shard plus one lookup shard at a time (the neighbor row scan is
// ascending, so lookups cross shard boundaries rarely) and marks doomed
// edges in a shared atomic bitset keyed by edge id. Marking is
// idempotent and each triangle is decided once, so the mark set is
// schedule-independent.
func (g *Network) DPIParallel(opts FilterOpts) (*Network, FilterStats, error) {
	if opts.Tolerance < 0 || opts.Tolerance >= 1 {
		return nil, FilterStats{}, fmt.Errorf("grn: DPI tolerance %v out of [0,1)", opts.Tolerance)
	}
	workers := opts.workers()
	st, err := buildAdjStore(g.n, g.edges, opts, workers)
	if err != nil {
		return nil, FilterStats{}, err
	}
	defer st.close()

	marks := make([]uint32, (len(g.edges)+31)/32)
	scale := 1 - opts.Tolerance
	fail := newFailSlot()

	// sweepShard marks every DPI-violating triangle whose smallest
	// vertex lies in apex shard si.
	sweepShard := func(si int) error {
		apex, err := st.pin(si)
		if err != nil {
			return err
		}
		defer st.release(apex)
		var look *adjShard
		defer func() {
			if look != nil {
				st.release(look)
			}
		}()
		for gi := apex.lo; gi < apex.hi; gi++ {
			lo, hi := apex.row(gi)
			for a := lo; a < hi; a++ {
				j := int(apex.nbr[a])
				if j < gi {
					continue // handle each triangle from its smallest vertex
				}
				if look == nil || j < look.lo || j >= look.hi {
					if look != nil {
						st.release(look)
						look = nil
					}
					if look, err = st.pin(j / st.rows); err != nil {
						return err
					}
				}
				wij := apex.wt[a]
				for b := a + 1; b < hi; b++ {
					k := int(apex.nbr[b])
					p, ok := look.search(j, k)
					if !ok {
						continue
					}
					wik := apex.wt[b]
					wjk := look.wt[p]
					switch dpiLoser(wij, wik, wjk, scale) {
					case 0:
						markEdge(marks, apex.eid[a])
					case 1:
						markEdge(marks, apex.eid[b])
					case 2:
						markEdge(marks, look.eid[p])
					}
				}
			}
		}
		return nil
	}

	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fail.err() == nil {
				si := int(atomic.AddInt64(&next, 1) - 1)
				if si >= len(st.shards) {
					return
				}
				if err := sweepShard(si); err != nil {
					fail.set(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := fail.err(); err != nil {
		return nil, FilterStats{}, err
	}

	out := New(g.n)
	removed := 0
	for x, e := range g.edges {
		if marks[x>>5]&(1<<uint(x&31)) != 0 {
			removed++
			continue
		}
		out.AddEdge(e.I, e.J, e.Weight)
	}
	stats := st.stats
	stats.Removed = removed
	return out, stats, nil
}

// CMIFilterParallel is the worker-parallel conditional-mutual-
// information successor filter: edge (i, j) is removed when some
// common neighbor k explains the dependence, I(i;j|k) < ratio·I(i;j),
// with common-neighbor sets produced by merging the two genes' sorted
// shard rows (ascending k, matching mi.CMIFilter's scan order). The
// per-edge decisions are independent, so the result is identical to
// the sequential mi.CMIFilter for every worker count and budget.
// rows supplies rank-normalized expression rows; bins is the per-
// dimension histogram size of the CMI estimate.
func (g *Network) CMIFilterParallel(rows RowFunc, bins int, ratio float64, opts FilterOpts) (*Network, FilterStats, error) {
	if rows == nil {
		return nil, FilterStats{}, fmt.Errorf("grn: CMI filter needs an expression row source")
	}
	if bins <= 0 {
		return nil, FilterStats{}, fmt.Errorf("grn: CMI bins %d <= 0", bins)
	}
	if ratio < 0 || ratio > 1 {
		return nil, FilterStats{}, fmt.Errorf("grn: CMI ratio %v out of [0,1]", ratio)
	}
	workers := opts.workers()
	st, err := buildAdjStore(g.n, g.edges, opts, workers)
	if err != nil {
		return nil, FilterStats{}, err
	}
	defer st.close()

	remove := make([]bool, len(g.edges))
	fail := newFailSlot()

	// Edge chunks are the work unit: big enough to amortize scheduling,
	// small enough to balance the skew of per-edge neighbor counts.
	const chunk = 256
	numChunks := (len(g.edges) + chunk - 1) / chunk

	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := mi.NewCMIWorkspace(bins)
			cache := newRowCache(rows)
			// Two cached pins — the shards holding the current edge's
			// endpoint rows. Edges arrive in chunk order, so both slots
			// have high reuse on insertion-ordered edge lists.
			var pinI, pinJ *adjShard
			releaseAll := func() {
				if pinI != nil {
					st.release(pinI)
					pinI = nil
				}
				if pinJ != nil {
					st.release(pinJ)
					pinJ = nil
				}
			}
			defer releaseAll()
			ensure := func(slot **adjShard, gene int) error {
				if s := *slot; s != nil {
					if gene >= s.lo && gene < s.hi {
						return nil
					}
					st.release(s)
					*slot = nil
				}
				s, err := st.pin(gene / st.rows)
				if err != nil {
					return err
				}
				*slot = s
				return nil
			}
			for fail.err() == nil {
				c := int(atomic.AddInt64(&next, 1) - 1)
				if c >= numChunks {
					return
				}
				lo, hi := c*chunk, (c+1)*chunk
				if hi > len(g.edges) {
					hi = len(g.edges)
				}
				for x := lo; x < hi; x++ {
					e := g.edges[x]
					ri, err := cache.get(e.I)
					if err == nil {
						var rj []float32
						if rj, err = cache.get(e.J); err == nil {
							base := mi.BinningMIWS(ri, rj, ws)
							if base == 0 {
								continue
							}
							if err = ensure(&pinI, e.I); err == nil {
								err = ensure(&pinJ, e.J)
							}
							if err == nil {
								err = cmiScanEdge(x, e, ri, rj, base, ratio, pinI, pinJ, cache, ws, remove)
							}
						}
					}
					if err != nil {
						fail.set(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := fail.err(); err != nil {
		return nil, FilterStats{}, err
	}

	out := New(g.n)
	removed := 0
	for x, e := range g.edges {
		if remove[x] {
			removed++
			continue
		}
		out.AddEdge(e.I, e.J, e.Weight)
	}
	stats := st.stats
	stats.Removed = removed
	return out, stats, nil
}

// cmiScanEdge walks the sorted-row intersection of edge e's endpoint
// adjacencies (the common neighbors, ascending) and flags the edge at
// the first k whose conditional MI falls under ratio·base.
func cmiScanEdge(x int, e Edge, ri, rj []float32, base, ratio float64,
	si, sj *adjShard, cache *rowCache, ws *mi.CMIWorkspace, remove []bool) error {
	ia, iz := si.row(e.I)
	ja, jz := sj.row(e.J)
	for ia < iz && ja < jz {
		ki, kj := si.nbr[ia], sj.nbr[ja]
		switch {
		case ki < kj:
			ia++
		case ki > kj:
			ja++
		default:
			rk, err := cache.get(int(ki))
			if err != nil {
				return err
			}
			if mi.ConditionalMIWS(ri, rj, rk, ws) < ratio*base {
				remove[x] = true
				return nil
			}
			ia++
			ja++
		}
	}
	return nil
}

// markEdge sets edge id x's bit with a CAS loop (sync/atomic gains
// native Or* only after this module's minimum Go version).
func markEdge(marks []uint32, x int32) {
	w := &marks[x>>5]
	bit := uint32(1) << uint(x&31)
	for {
		old := atomic.LoadUint32(w)
		if old&bit != 0 || atomic.CompareAndSwapUint32(w, old, old|bit) {
			return
		}
	}
}

// failSlot is the first-error capture shared by a worker pool.
type failSlot struct {
	mu sync.Mutex
	e  error
}

func newFailSlot() *failSlot { return &failSlot{} }

func (f *failSlot) set(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.e == nil {
		f.e = err
	}
	f.mu.Unlock()
}

func (f *failSlot) err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.e
}

// rowCacheCap bounds the per-worker normalized-row cache; past it the
// cache resets (the CMI scan has strong gene locality inside a chunk,
// so a simple clear beats LRU bookkeeping).
const rowCacheCap = 512

// rowCache memoizes RowFunc fetches per worker — on the out-of-core
// path a fetch pins a panel and rank-normalizes a copy, far too
// expensive to repeat for every triangle.
type rowCache struct {
	rows RowFunc
	m    map[int][]float32
}

func newRowCache(rows RowFunc) *rowCache {
	return &rowCache{rows: rows, m: make(map[int][]float32)}
}

func (c *rowCache) get(g int) ([]float32, error) {
	if r, ok := c.m[g]; ok {
		return r, nil
	}
	r, err := c.rows(g)
	if err != nil {
		return nil, err
	}
	if len(c.m) >= rowCacheCap {
		c.m = make(map[int][]float32, rowCacheCap)
	}
	c.m[g] = r
	return r, nil
}
