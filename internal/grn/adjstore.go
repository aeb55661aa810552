package grn

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"sync"

	"repro/internal/diskfault"
)

// adjEntryBytes is the payload cost of one directed adjacency entry:
// a neighbor id (int32), an edge id into the network's edge list
// (int32), and the edge weight (float64).
const adjEntryBytes = 4 + 4 + 8

// adjTrailerBytes is the per-shard integrity trailer in the spill
// file: payload length (uint32 LE) + CRC32C of the payload (uint32
// LE). Every shard read verifies it, so a flipped bit in a spilled
// adjacency row fails loudly instead of silently rewiring the network.
const adjTrailerBytes = 8

var adjCRCTable = crc32.MakeTable(crc32.Castagnoli)

// adjShard is one block of consecutive genes' CSR adjacency rows: for
// every gene g in [lo, hi) the neighbors, their edge ids, and their
// weights occupy [off[g-lo], off[g-lo+1]) of the three payload arrays,
// sorted by neighbor id. The offset array is always resident (4 bytes
// per gene); the payload is what spills under a budget. Payloads are
// immutable after the build, so an eviction just frees them — the
// spill file is written exactly once.
type adjShard struct {
	lo, hi   int
	off      []int32
	nbr      []int32
	eid      []int32
	wt       []float64
	pins     int
	lastUse  int64
	resident bool
}

// entries is the shard's directed adjacency entry count.
func (s *adjShard) entries() int64 { return int64(s.off[len(s.off)-1]) }

// payloadBytes is the spillable byte cost of the shard.
func (s *adjShard) payloadBytes() int64 { return s.entries() * adjEntryBytes }

// row returns gene g's slice bounds into the payload arrays.
func (s *adjShard) row(g int) (int32, int32) {
	return s.off[g-s.lo], s.off[g-s.lo+1]
}

// search binary-searches gene g's sorted neighbor row for k and
// returns the payload position.
func (s *adjShard) search(g, k int) (int32, bool) {
	lo, hi := s.row(g)
	for lo < hi {
		mid := (lo + hi) / 2
		switch v := s.nbr[mid]; {
		case v == int32(k):
			return mid, true
		case v < int32(k):
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0, false
}

// adjStore is the filter phase's counterpart of the panel store: the
// network's adjacency in fixed-height CSR shards behind a pin/release
// interface, with an LRU spill file keeping resident payload bytes
// under a budget. A zero budget keeps everything resident and never
// creates the file.
type adjStore struct {
	mu       sync.Mutex
	n        int
	rows     int // genes per shard
	shards   []*adjShard
	budget   int64 // effective payload budget; 0 = unbudgeted
	resident int64
	clock    int64
	fsys     diskfault.FS
	file     diskfault.File
	fileOff  []int64
	iobuf    []byte
	stats    FilterStats
}

// defaultShardRows is the adjacency shard height when FilterOpts does
// not override it: tall enough that shard bookkeeping is negligible,
// short enough that a whole-genome network splits into dozens of
// independently spillable blocks.
const defaultShardRows = 256

// buildAdjStore shards the adjacency of edges over n genes; edge ids
// are positions in edges. Under a budget the build itself is tiled:
// shards are filled in batches of consecutive blocks that fit the
// budget, each batch taking one pass over the edge list before being
// written to the spill file and freed, so the build peak matches the
// sweep's ceiling instead of the whole adjacency.
func buildAdjStore(n int, edges []Edge, opts FilterOpts, workers int) (st *adjStore, err error) {
	// The spill temp file must not outlive a failed build: every error
	// return after CreateTemp — present or future — funnels through this
	// cleanup instead of trusting each path to remember it.
	defer func() {
		if err != nil && st != nil {
			st.close()
			st = nil
		}
	}()
	if len(edges) > math.MaxInt32 {
		return nil, fmt.Errorf("grn: %d edges exceed the filter's int32 edge-id space", len(edges))
	}
	rows := opts.ShardRows
	if rows <= 0 {
		rows = defaultShardRows
	}
	if rows > n {
		rows = n
	}
	if rows < 1 {
		rows = 1
	}
	st = &adjStore{n: n, rows: rows, fsys: diskfault.OrOS(opts.FS)}
	numShards := (n + rows - 1) / rows

	deg := make([]int32, n)
	for _, e := range edges {
		deg[e.I]++
		deg[e.J]++
	}
	var maxShard int64
	for si := 0; si < numShards; si++ {
		lo := si * rows
		hi := lo + rows
		if hi > n {
			hi = n
		}
		s := &adjShard{lo: lo, hi: hi, off: make([]int32, hi-lo+1)}
		for gi := lo; gi < hi; gi++ {
			s.off[gi-lo+1] = s.off[gi-lo] + deg[gi]
		}
		if b := s.payloadBytes(); b > maxShard {
			maxShard = b
		}
		st.shards = append(st.shards, s)
	}

	if opts.MemoryBudget > 0 && numShards > 0 {
		// The budget cannot go below the pinned floor: every sweep worker
		// holds an apex shard plus a lookup shard, and one slot of
		// headroom keeps the LRU from thrashing pins. The effective
		// budget (reported in FilterStats) is raised to that floor, never
		// silently violated.
		floor := int64(3*workers) * maxShard
		if all := int64(numShards) * maxShard; floor > all {
			floor = all
		}
		st.budget = opts.MemoryBudget
		if st.budget < floor {
			st.budget = floor
		}
		st.stats.EffectiveBudget = st.budget
	}

	// cur[g] is the next unfilled payload position of gene g's row,
	// relative to its shard offsets.
	cur := make([]int32, n)
	if st.budget == 0 {
		for _, s := range st.shards {
			st.allocLocked(s)
		}
		for x, e := range edges {
			st.place(e, int32(x), cur)
		}
		for _, s := range st.shards {
			sortShardRows(s)
		}
		st.trackPeakLocked()
		return st, nil
	}

	f, err := st.fsys.CreateTemp(opts.SpillDir, "tinge-adj-*.spill")
	if err != nil {
		return nil, err
	}
	st.file = f
	st.fileOff = make([]int64, numShards)
	var off int64
	for si, s := range st.shards {
		st.fileOff[si] = off
		off += s.payloadBytes() + adjTrailerBytes
	}

	for lo := 0; lo < numShards; {
		hi := lo + 1
		batch := st.shards[lo].payloadBytes()
		for hi < numShards && batch+st.shards[hi].payloadBytes() <= st.budget {
			batch += st.shards[hi].payloadBytes()
			hi++
		}
		for _, s := range st.shards[lo:hi] {
			st.allocLocked(s)
			for gi := s.lo; gi < s.hi; gi++ {
				cur[gi] = 0
			}
		}
		first, last := st.shards[lo].lo, st.shards[hi-1].hi
		for x, e := range edges {
			if (e.I >= first && e.I < last) || (e.J >= first && e.J < last) {
				st.placeRange(e, int32(x), cur, first, last)
			}
		}
		st.trackPeakLocked()
		for si := lo; si < hi; si++ {
			s := st.shards[si]
			sortShardRows(s)
			if werr := st.writeShardLocked(si); werr != nil {
				return st, werr
			}
			st.freeLocked(s)
		}
		lo = hi
	}
	return st, nil
}

// place scatters edge x into both endpoints' rows.
func (st *adjStore) place(e Edge, x int32, cur []int32) {
	st.placeHalf(e.I, e.J, x, e.Weight, cur)
	st.placeHalf(e.J, e.I, x, e.Weight, cur)
}

// placeRange is place restricted to endpoint genes in [first, last).
func (st *adjStore) placeRange(e Edge, x int32, cur []int32, first, last int) {
	if e.I >= first && e.I < last {
		st.placeHalf(e.I, e.J, x, e.Weight, cur)
	}
	if e.J >= first && e.J < last {
		st.placeHalf(e.J, e.I, x, e.Weight, cur)
	}
}

func (st *adjStore) placeHalf(g, nb int, x int32, w float64, cur []int32) {
	s := st.shards[g/st.rows]
	p := s.off[g-s.lo] + cur[g]
	cur[g]++
	s.nbr[p] = int32(nb)
	s.eid[p] = x
	s.wt[p] = w
}

// shardRowSorter co-sorts one gene's (nbr, eid, wt) row by neighbor id.
type shardRowSorter struct {
	nbr, eid []int32
	wt       []float64
}

func (r shardRowSorter) Len() int           { return len(r.nbr) }
func (r shardRowSorter) Less(a, b int) bool { return r.nbr[a] < r.nbr[b] }
func (r shardRowSorter) Swap(a, b int) {
	r.nbr[a], r.nbr[b] = r.nbr[b], r.nbr[a]
	r.eid[a], r.eid[b] = r.eid[b], r.eid[a]
	r.wt[a], r.wt[b] = r.wt[b], r.wt[a]
}

func sortShardRows(s *adjShard) {
	for gi := s.lo; gi < s.hi; gi++ {
		lo, hi := s.row(gi)
		sort.Sort(shardRowSorter{nbr: s.nbr[lo:hi], eid: s.eid[lo:hi], wt: s.wt[lo:hi]})
	}
}

func (st *adjStore) allocLocked(s *adjShard) {
	n := s.entries()
	s.nbr = make([]int32, n)
	s.eid = make([]int32, n)
	s.wt = make([]float64, n)
	s.resident = true
	st.resident += s.payloadBytes()
}

func (st *adjStore) freeLocked(s *adjShard) {
	st.resident -= s.payloadBytes()
	s.nbr, s.eid, s.wt = nil, nil, nil
	s.resident = false
}

func (st *adjStore) trackPeakLocked() {
	if st.resident > st.stats.ShardPeakBytes {
		st.stats.ShardPeakBytes = st.resident
	}
}

// pin makes shard si resident (loading it from the spill file if
// needed), protects it from eviction, and returns it. The payload
// arrays may be read until the matching release.
func (st *adjStore) pin(si int) (*adjShard, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.shards[si]
	st.clock++
	s.lastUse = st.clock
	if s.resident {
		st.stats.ShardHits++
		s.pins++
		return s, nil
	}
	st.allocLocked(s)
	if err := st.readShardLocked(si); err != nil {
		st.freeLocked(s)
		return nil, err
	}
	st.stats.ShardLoads++
	st.stats.ShardBytesLoaded += s.payloadBytes()
	s.pins++
	st.evictLocked()
	st.trackPeakLocked()
	return s, nil
}

func (st *adjStore) release(s *adjShard) {
	st.mu.Lock()
	s.pins--
	st.mu.Unlock()
}

// evictLocked frees least-recently-used unpinned shards until the
// resident payload fits the budget. Pinned shards are untouchable; if
// pins alone exceed the budget the overshoot stands and is reported
// honestly through ShardPeakBytes (the build floor makes this
// unreachable for the filter's own sweeps).
func (st *adjStore) evictLocked() {
	for st.resident > st.budget {
		var victim *adjShard
		for _, s := range st.shards {
			if !s.resident || s.pins > 0 {
				continue
			}
			if victim == nil || s.lastUse < victim.lastUse {
				victim = s
			}
		}
		if victim == nil {
			return
		}
		st.freeLocked(victim)
		st.stats.ShardEvictions++
	}
}

// writeShardLocked serializes shard si's payload to its fixed spill
// slot: the nbr array, then eid, then wt, little-endian, followed by
// the integrity trailer — all in one write.
func (st *adjStore) writeShardLocked(si int) error {
	s := st.shards[si]
	buf := st.encodeBuf(s)
	p := 0
	for _, v := range s.nbr {
		binary.LittleEndian.PutUint32(buf[p:], uint32(v))
		p += 4
	}
	for _, v := range s.eid {
		binary.LittleEndian.PutUint32(buf[p:], uint32(v))
		p += 4
	}
	for _, v := range s.wt {
		binary.LittleEndian.PutUint64(buf[p:], math.Float64bits(v))
		p += 8
	}
	binary.LittleEndian.PutUint32(buf[p:], uint32(p))
	binary.LittleEndian.PutUint32(buf[p+4:], crc32.Checksum(buf[:p], adjCRCTable))
	if _, err := st.file.WriteAt(buf, st.fileOff[si]); err != nil {
		return fmt.Errorf("grn: adjacency spill write: %w", err)
	}
	st.stats.ShardBytesSpilled += int64(len(buf))
	return nil
}

// readShardLocked loads shard si from its spill slot and verifies the
// trailer. A failed read or checksum is retried once — transient I/O
// errors recover, genuine corruption fails both attempts and surfaces
// a typed error wrapping diskfault.ErrCorrupt.
func (st *adjStore) readShardLocked(si int) error {
	err := st.readVerifyLocked(si)
	if err != nil {
		st.stats.ShardReadRetries++
		err = st.readVerifyLocked(si)
	}
	if err != nil {
		return err
	}
	s := st.shards[si]
	buf := st.iobuf
	p := 0
	for i := range s.nbr {
		s.nbr[i] = int32(binary.LittleEndian.Uint32(buf[p:]))
		p += 4
	}
	for i := range s.eid {
		s.eid[i] = int32(binary.LittleEndian.Uint32(buf[p:]))
		p += 4
	}
	for i := range s.wt {
		s.wt[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[p:]))
		p += 8
	}
	return nil
}

// readVerifyLocked reads shard si's slot into st.iobuf and checks the
// trailer against the payload.
func (st *adjStore) readVerifyLocked(si int) error {
	s := st.shards[si]
	buf := st.encodeBuf(s)
	if _, err := st.file.ReadAt(buf, st.fileOff[si]); err != nil {
		return fmt.Errorf("grn: adjacency spill read shard %d: %w", si, err)
	}
	payload := int(s.payloadBytes())
	if n := binary.LittleEndian.Uint32(buf[payload:]); n != uint32(payload) {
		return fmt.Errorf("grn: adjacency shard %d trailer length %d, want %d: %w",
			si, n, payload, diskfault.ErrCorrupt)
	}
	got := crc32.Checksum(buf[:payload], adjCRCTable)
	if want := binary.LittleEndian.Uint32(buf[payload+4:]); got != want {
		return fmt.Errorf("grn: adjacency shard %d CRC32C mismatch: computed %08x, stored %08x: %w",
			si, got, want, diskfault.ErrCorrupt)
	}
	return nil
}

// encodeBuf returns the store's reusable IO buffer grown to the
// shard's slot size (payload + trailer). Callers hold st.mu, which
// serializes spill IO.
func (st *adjStore) encodeBuf(s *adjShard) []byte {
	n := int(s.payloadBytes()) + adjTrailerBytes
	if cap(st.iobuf) < n {
		st.iobuf = make([]byte, n)
	}
	return st.iobuf[:n]
}

func (st *adjStore) close() {
	if st.file != nil {
		name := st.file.Name()
		st.file.Close()
		st.fsys.Remove(name)
		st.file = nil
	}
}
