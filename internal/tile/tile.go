// Package tile decomposes the upper-triangular gene-pair matrix into
// rectangular tiles and schedules them over workers.
//
// With n genes there are n(n-1)/2 pairs (i<j). The paper blocks this
// triangle into T×T tiles so that the 2T gene weight rows a tile touches
// fit in a core's L2 cache, then distributes tiles over threads. Tile
// costs are skewed (diagonal tiles are half-size; permutation early-exit
// makes some tiles cheaper), so the paper uses dynamic scheduling; this
// package provides the static, cyclic, dynamic, and work-stealing
// policies the scheduling ablation compares.
package tile

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Tile is a rectangular block of gene pairs: rows [I0,I1) × cols [J0,J1)
// of the pair matrix, restricted to i < j. Diagonal tiles (I0 == J0)
// cover only their upper triangle.
type Tile struct {
	I0, I1, J0, J1 int
}

// Pairs returns the number of (i,j) pairs with i<j inside the tile.
func (t Tile) Pairs() int {
	count := 0
	for i := t.I0; i < t.I1; i++ {
		lo := t.J0
		if i+1 > lo {
			lo = i + 1
		}
		if t.J1 > lo {
			count += t.J1 - lo
		}
	}
	return count
}

// ForEachPair invokes f for every pair (i,j), i<j, in the tile in
// row-major order.
func (t Tile) ForEachPair(f func(i, j int)) {
	for i := t.I0; i < t.I1; i++ {
		lo := t.J0
		if i+1 > lo {
			lo = i + 1
		}
		for j := lo; j < t.J1; j++ {
			f(i, j)
		}
	}
}

// String renders the tile bounds.
func (t Tile) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", t.I0, t.I1, t.J0, t.J1)
}

// Decompose tiles the n×n upper triangle into size×size blocks
// (boundary blocks are smaller). Only blocks intersecting the strict
// upper triangle are returned, in row-major block order. It panics if
// n < 0 or size <= 0.
func Decompose(n, size int) []Tile {
	if n < 0 {
		panic(fmt.Sprintf("tile: negative n %d", n))
	}
	if size <= 0 {
		panic(fmt.Sprintf("tile: non-positive tile size %d", size))
	}
	var tiles []Tile
	for i0 := 0; i0 < n; i0 += size {
		i1 := i0 + size
		if i1 > n {
			i1 = n
		}
		for j0 := i0; j0 < n; j0 += size {
			j1 := j0 + size
			if j1 > n {
				j1 = n
			}
			t := Tile{I0: i0, I1: i1, J0: j0, J1: j1}
			if t.Pairs() > 0 {
				tiles = append(tiles, t)
			}
		}
	}
	return tiles
}

// IndexOf returns the index in Decompose(n, size) of the tile that
// holds pair (i, j), 0 <= i < j < n.
func IndexOf(n, size, i, j int) int {
	blocks := (n + size - 1) / size
	bi, bj := i/size, j/size
	at := bi*blocks - bi*(bi-1)/2 + bj - bi
	if size == 1 {
		// Every diagonal block is a single gene with no pair, and
		// Decompose skips it. For larger sizes only a last block one
		// gene wide has an empty diagonal, and no pair's row lies in it.
		at -= bi + 1
	}
	return at
}

// TotalPairs returns n(n-1)/2.
func TotalPairs(n int) int { return n * (n - 1) / 2 }

// Scheduler hands tiles to workers. Implementations must be safe for
// concurrent use by the worker count they were built for.
type Scheduler interface {
	// Next returns the next tile index for the given worker, or -1 when
	// the worker should stop.
	Next(worker int) int
	// Name identifies the policy in benchmark output.
	Name() string
}

// Policy selects a scheduling strategy.
type Policy int

// Scheduling policies compared in the paper's load-balancing discussion.
const (
	// StaticBlock gives worker w the w-th contiguous chunk of tiles.
	StaticBlock Policy = iota
	// StaticCyclic deals tiles round-robin: worker w gets tiles
	// w, w+P, w+2P, ….
	StaticCyclic
	// Dynamic is a shared atomic counter: workers grab the next
	// unclaimed tile (the paper's choice on the Phi).
	Dynamic
	// Stealing gives each worker a private deque and lets idle workers
	// steal from the busiest victim.
	Stealing
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case StaticBlock:
		return "static-block"
	case StaticCyclic:
		return "static-cyclic"
	case Dynamic:
		return "dynamic"
	case Stealing:
		return "stealing"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// NewScheduler builds a scheduler over nTiles tiles for workers workers.
// It panics if workers <= 0 or nTiles < 0.
func NewScheduler(p Policy, nTiles, workers int) Scheduler {
	if workers <= 0 {
		panic(fmt.Sprintf("tile: non-positive workers %d", workers))
	}
	if nTiles < 0 {
		panic(fmt.Sprintf("tile: negative tile count %d", nTiles))
	}
	switch p {
	case StaticBlock:
		return newStaticBlock(nTiles, workers)
	case StaticCyclic:
		return newStaticCyclic(nTiles, workers)
	case Dynamic:
		return &dynamicSched{n: int64(nTiles)}
	case Stealing:
		return newStealing(nTiles, workers)
	default:
		panic(fmt.Sprintf("tile: unknown policy %v", p))
	}
}

type staticBlock struct {
	// next[w] and end[w] bound worker w's contiguous range.
	next []int64
	end  []int
}

func newStaticBlock(nTiles, workers int) *staticBlock {
	s := &staticBlock{next: make([]int64, workers), end: make([]int, workers)}
	base := nTiles / workers
	extra := nTiles % workers
	start := 0
	for w := 0; w < workers; w++ {
		count := base
		if w < extra {
			count++
		}
		s.next[w] = int64(start)
		s.end[w] = start + count
		start += count
	}
	return s
}

func (s *staticBlock) Next(worker int) int {
	i := atomic.AddInt64(&s.next[worker], 1) - 1
	if int(i) >= s.end[worker] {
		return -1
	}
	return int(i)
}

func (s *staticBlock) Name() string { return StaticBlock.String() }

type staticCyclic struct {
	nTiles  int
	workers int
	next    []int64
}

func newStaticCyclic(nTiles, workers int) *staticCyclic {
	s := &staticCyclic{nTiles: nTiles, workers: workers, next: make([]int64, workers)}
	for w := range s.next {
		s.next[w] = int64(w)
	}
	return s
}

func (s *staticCyclic) Next(worker int) int {
	i := atomic.AddInt64(&s.next[worker], int64(s.workers)) - int64(s.workers)
	if int(i) >= s.nTiles {
		return -1
	}
	return int(i)
}

func (s *staticCyclic) Name() string { return StaticCyclic.String() }

type dynamicSched struct {
	counter int64
	n       int64
}

func (s *dynamicSched) Next(worker int) int {
	i := atomic.AddInt64(&s.counter, 1) - 1
	if i >= s.n {
		return -1
	}
	return int(i)
}

func (s *dynamicSched) Name() string { return Dynamic.String() }

// stealing implements per-worker deques with locked steal-from-richest.
type stealing struct {
	mu     sync.Mutex
	queues [][]int
}

func newStealing(nTiles, workers int) *stealing {
	s := &stealing{queues: make([][]int, workers)}
	// Deal tiles block-wise so local runs stay cache-friendly; steals
	// rebalance at runtime.
	base := nTiles / workers
	extra := nTiles % workers
	idx := 0
	for w := 0; w < workers; w++ {
		count := base
		if w < extra {
			count++
		}
		q := make([]int, 0, count)
		for c := 0; c < count; c++ {
			q = append(q, idx)
			idx++
		}
		s.queues[w] = q
	}
	return s
}

func (s *stealing) Next(worker int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Pop from own queue front.
	if q := s.queues[worker]; len(q) > 0 {
		t := q[0]
		s.queues[worker] = q[1:]
		return t
	}
	// Steal from the richest victim's tail.
	victim, best := -1, 0
	for w, q := range s.queues {
		if len(q) > best {
			victim, best = w, len(q)
		}
	}
	if victim < 0 {
		return -1
	}
	q := s.queues[victim]
	t := q[len(q)-1]
	s.queues[victim] = q[:len(q)-1]
	return t
}

func (s *stealing) Name() string { return Stealing.String() }

// Assign distributes items 0..nItems-1 over workers with the given
// policy and returns each worker's item list in pull order. The pull
// loop always advances the least-loaded worker (by accumulated cost),
// which is the steady-state behaviour of a dynamic queue and an exact
// replay for static policies. cost(i) must be non-negative.
//
// Assign exists so scaling experiments can be *simulated* from measured
// per-item costs on machines whose real core count cannot exercise the
// paper's 240-thread configurations.
func Assign(nItems, workers int, policy Policy, cost func(i int) float64) [][]int {
	sched := NewScheduler(policy, nItems, workers)
	out := make([][]int, workers)
	load := make([]float64, workers)
	active := make([]bool, workers)
	for w := range active {
		active[w] = true
	}
	remaining := workers
	for remaining > 0 {
		best := -1
		var bestLoad float64
		for w := 0; w < workers; w++ {
			if !active[w] {
				continue
			}
			if best == -1 || load[w] < bestLoad {
				best, bestLoad = w, load[w]
			}
		}
		item := sched.Next(best)
		if item == -1 {
			active[best] = false
			remaining--
			continue
		}
		out[best] = append(out[best], item)
		load[best] += cost(item)
	}
	return out
}

// SimMakespan returns the simulated parallel wall time of running the
// items (with the given per-item costs) on `workers` workers under the
// policy: the maximum per-worker accumulated cost after Assign.
func SimMakespan(costs []float64, workers int, policy Policy) float64 {
	assignment := Assign(len(costs), workers, policy, func(i int) float64 { return costs[i] })
	var worst float64
	for _, items := range assignment {
		var sum float64
		for _, i := range items {
			sum += costs[i]
		}
		if sum > worst {
			worst = sum
		}
	}
	return worst
}

// Imbalance summarizes a run's load distribution: the ratio of the
// maximum per-worker cost to the mean. 1.0 is perfect balance.
func Imbalance(perWorkerCost []float64) float64 {
	if len(perWorkerCost) == 0 {
		return 1
	}
	var sum, max float64
	for _, c := range perWorkerCost {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 1
	}
	mean := sum / float64(len(perWorkerCost))
	return max / mean
}
