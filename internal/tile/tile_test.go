package tile

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestTilePairs(t *testing.T) {
	// Off-diagonal tile: full rectangle.
	if got := (Tile{0, 2, 4, 6}).Pairs(); got != 4 {
		t.Fatalf("off-diagonal Pairs = %d, want 4", got)
	}
	// Diagonal tile: strict upper triangle of a 3x3 block = 3 pairs.
	if got := (Tile{0, 3, 0, 3}).Pairs(); got != 3 {
		t.Fatalf("diagonal Pairs = %d, want 3", got)
	}
	// Tile below the diagonal contributes nothing.
	if got := (Tile{4, 6, 0, 2}).Pairs(); got != 0 {
		t.Fatalf("below-diagonal Pairs = %d, want 0", got)
	}
}

func TestForEachPairMatchesPairs(t *testing.T) {
	tiles := []Tile{{0, 3, 0, 3}, {0, 2, 4, 6}, {2, 5, 3, 7}}
	for _, tl := range tiles {
		count := 0
		tl.ForEachPair(func(i, j int) {
			if i >= j {
				t.Fatalf("tile %v yielded i>=j: (%d,%d)", tl, i, j)
			}
			if i < tl.I0 || i >= tl.I1 || j < tl.J0 || j >= tl.J1 {
				t.Fatalf("tile %v yielded out-of-bounds pair (%d,%d)", tl, i, j)
			}
			count++
		})
		if count != tl.Pairs() {
			t.Fatalf("tile %v: ForEachPair count %d != Pairs %d", tl, count, tl.Pairs())
		}
	}
}

func TestDecomposeCoversAllPairsExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ n, size int }{{10, 3}, {10, 10}, {10, 100}, {100, 7}, {1, 4}, {0, 4}, {2, 1}} {
		tiles := Decompose(tc.n, tc.size)
		seen := make(map[[2]int]int)
		for _, tl := range tiles {
			tl.ForEachPair(func(i, j int) { seen[[2]int{i, j}]++ })
		}
		if len(seen) != TotalPairs(tc.n) {
			t.Fatalf("n=%d size=%d: covered %d pairs, want %d", tc.n, tc.size, len(seen), TotalPairs(tc.n))
		}
		for p, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d size=%d: pair %v covered %d times", tc.n, tc.size, p, c)
			}
		}
	}
}

func TestDecomposeProperty(t *testing.T) {
	f := func(rawN, rawSize uint8) bool {
		n := int(rawN % 60)
		size := int(rawSize%16) + 1
		tiles := Decompose(n, size)
		total := 0
		for _, tl := range tiles {
			p := tl.Pairs()
			if p == 0 {
				return false // empty tiles must be filtered
			}
			total += p
		}
		return total == TotalPairs(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestIndexOfMatchesDecompose: IndexOf names the Decompose tile that
// holds each pair.
func TestIndexOfMatchesDecompose(t *testing.T) {
	for _, tc := range []struct{ n, size int }{{10, 3}, {10, 10}, {10, 100}, {100, 7}, {2, 1}, {7, 1}, {9, 2}, {33, 8}} {
		for ti, tl := range Decompose(tc.n, tc.size) {
			tl.ForEachPair(func(i, j int) {
				if got := IndexOf(tc.n, tc.size, i, j); got != ti {
					t.Fatalf("n=%d size=%d: IndexOf(%d,%d) = %d, want %d", tc.n, tc.size, i, j, got, ti)
				}
			})
		}
	}
}

func TestDecomposePanics(t *testing.T) {
	mustPanic(t, func() { Decompose(-1, 4) })
	mustPanic(t, func() { Decompose(4, 0) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		StaticBlock:  "static-block",
		StaticCyclic: "static-cyclic",
		Dynamic:      "dynamic",
		Stealing:     "stealing",
		Policy(99):   "policy(99)",
	} {
		if p.String() != want {
			t.Fatalf("Policy %d String = %q, want %q", int(p), p.String(), want)
		}
	}
}

// Every scheduler must hand out each tile exactly once across all
// workers, sequentially or concurrently.
func TestSchedulersCompleteSequential(t *testing.T) {
	for _, p := range []Policy{StaticBlock, StaticCyclic, Dynamic, Stealing} {
		for _, tc := range []struct{ tiles, workers int }{{20, 4}, {7, 3}, {3, 8}, {0, 2}, {1, 1}} {
			s := NewScheduler(p, tc.tiles, tc.workers)
			if s.Name() != p.String() {
				t.Fatalf("Name = %q, want %q", s.Name(), p.String())
			}
			seen := make(map[int]bool)
			for w := 0; w < tc.workers; w++ {
				for {
					i := s.Next(w)
					if i == -1 {
						break
					}
					if i < 0 || i >= tc.tiles || seen[i] {
						t.Fatalf("%v tiles=%d workers=%d: bad tile %d", p, tc.tiles, tc.workers, i)
					}
					seen[i] = true
				}
			}
			if len(seen) != tc.tiles {
				t.Fatalf("%v tiles=%d workers=%d: handed out %d", p, tc.tiles, tc.workers, len(seen))
			}
		}
	}
}

func TestSchedulersCompleteConcurrent(t *testing.T) {
	const tiles = 500
	const workers = 8
	for _, p := range []Policy{StaticBlock, StaticCyclic, Dynamic, Stealing} {
		s := NewScheduler(p, tiles, workers)
		var mu sync.Mutex
		seen := make(map[int]int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				local := []int{}
				for {
					i := s.Next(w)
					if i == -1 {
						break
					}
					local = append(local, i)
				}
				mu.Lock()
				for _, i := range local {
					seen[i]++
				}
				mu.Unlock()
			}(w)
		}
		wg.Wait()
		if len(seen) != tiles {
			t.Fatalf("%v: %d distinct tiles, want %d", p, len(seen), tiles)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("%v: tile %d handed out %d times", p, i, c)
			}
		}
	}
}

func TestStealingRebalances(t *testing.T) {
	// Worker 1 never calls Next until worker 0 has drained everything;
	// worker 0 must be able to steal worker 1's share.
	s := NewScheduler(Stealing, 10, 2)
	got := 0
	for {
		if s.Next(0) == -1 {
			break
		}
		got++
	}
	if got != 10 {
		t.Fatalf("worker 0 should steal all 10 tiles, got %d", got)
	}
	if s.Next(1) != -1 {
		t.Fatal("worker 1 should find nothing left")
	}
}

func TestStaticBlockFairSplit(t *testing.T) {
	s := newStaticBlock(10, 3)
	counts := make([]int, 3)
	for w := 0; w < 3; w++ {
		for s.Next(w) != -1 {
			counts[w]++
		}
	}
	// 10 = 4+3+3.
	if counts[0] != 4 || counts[1] != 3 || counts[2] != 3 {
		t.Fatalf("split = %v, want [4 3 3]", counts)
	}
}

func TestStaticCyclicInterleaves(t *testing.T) {
	s := newStaticCyclic(6, 2)
	var w0 []int
	for {
		i := s.Next(0)
		if i == -1 {
			break
		}
		w0 = append(w0, i)
	}
	want := []int{0, 2, 4}
	if len(w0) != 3 {
		t.Fatalf("worker 0 tiles = %v", w0)
	}
	for k := range want {
		if w0[k] != want[k] {
			t.Fatalf("worker 0 tiles = %v, want %v", w0, want)
		}
	}
}

func TestNewSchedulerPanics(t *testing.T) {
	mustPanic(t, func() { NewScheduler(Dynamic, 5, 0) })
	mustPanic(t, func() { NewScheduler(Dynamic, -1, 2) })
	mustPanic(t, func() { NewScheduler(Policy(42), 5, 2) })
}

func TestImbalance(t *testing.T) {
	if got := Imbalance([]float64{1, 1, 1, 1}); got != 1 {
		t.Fatalf("balanced = %v, want 1", got)
	}
	if got := Imbalance([]float64{4, 0, 0, 0}); got != 4 {
		t.Fatalf("worst case = %v, want 4", got)
	}
	if got := Imbalance(nil); got != 1 {
		t.Fatalf("empty = %v, want 1", got)
	}
	if got := Imbalance([]float64{0, 0}); got != 1 {
		t.Fatalf("zero cost = %v, want 1", got)
	}
}

func BenchmarkDynamicNext(b *testing.B) {
	s := NewScheduler(Dynamic, b.N+1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Next(0)
	}
}

func BenchmarkDecompose15575(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Decompose(15575, 64)
	}
}

func TestAssignCoversAllItems(t *testing.T) {
	costs := make([]float64, 37)
	for i := range costs {
		costs[i] = float64(i%5 + 1)
	}
	for _, p := range []Policy{StaticBlock, StaticCyclic, Dynamic, Stealing} {
		got := Assign(len(costs), 4, p, func(i int) float64 { return costs[i] })
		seen := make([]bool, len(costs))
		for _, list := range got {
			for _, i := range list {
				if seen[i] {
					t.Fatalf("%v: item %d assigned twice", p, i)
				}
				seen[i] = true
			}
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("%v: item %d unassigned", p, i)
			}
		}
	}
}

func TestSimMakespanBounds(t *testing.T) {
	costs := []float64{5, 1, 1, 1, 1, 1}
	var total, max float64
	for _, c := range costs {
		total += c
		if c > max {
			max = c
		}
	}
	for _, p := range []Policy{StaticBlock, StaticCyclic, Dynamic, Stealing} {
		for _, w := range []int{1, 2, 3, 6, 10} {
			ms := SimMakespan(costs, w, p)
			if ms < max-1e-12 || ms > total+1e-12 {
				t.Fatalf("%v w=%d: makespan %v outside [max=%v,total=%v]", p, w, ms, max, total)
			}
			if w == 1 && ms != total {
				t.Fatalf("%v: single worker makespan %v != total %v", p, ms, total)
			}
		}
	}
}

func TestSimMakespanDynamicNearOptimalUniform(t *testing.T) {
	costs := make([]float64, 1000)
	for i := range costs {
		costs[i] = 1
	}
	ms := SimMakespan(costs, 10, Dynamic)
	if ms != 100 {
		t.Fatalf("uniform dynamic makespan = %v, want 100", ms)
	}
}

func TestSimMakespanDynamicBeatsStaticOnSkew(t *testing.T) {
	costs := make([]float64, 100)
	for i := range costs {
		if i < 50 {
			costs[i] = 10
		} else {
			costs[i] = 1
		}
	}
	dyn := SimMakespan(costs, 10, Dynamic)
	static := SimMakespan(costs, 10, StaticBlock)
	if dyn >= static {
		t.Fatalf("dynamic %v should beat static-block %v on skewed costs", dyn, static)
	}
}
