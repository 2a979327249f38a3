// Package monotable implements the MonoTable of paper §5.2 (Figure 7):
// the distributed mutable in-memory table holding the state of a
// recursive computation. Each row has an Accumulation entry (the result
// x, folded monotonically) and an Intermediate entry (the aggregated
// delta g(Δx)). Updates follow the paper's three-step protocol:
//
//  1. atomically exchange the Intermediate with the aggregate identity
//     into a local tmp (so a delta is never aggregated twice),
//  2. fold tmp into the Accumulation at the same row,
//  3. apply f to tmp and atomically aggregate the results into the
//     Intermediate entries of dependent rows (possibly on other workers).
//
// Steps 1–2 are Drain+FoldAcc; step 3 is FoldDelta (via message passing
// for remote rows). Auxiliaries (per-vertex attribute columns) live in
// the compiled plan, not in the table.
//
// Two shard layouts are provided: a dense array shard for vertex-keyed
// programs (key space [0,n) striped across workers) and a sparse map
// shard for pair-keyed programs such as APSP and SimRank.
package monotable

import (
	"sync"

	"powerlog/internal/agg"
)

// Table is one worker's shard of the MonoTable.
type Table interface {
	// Op returns the aggregate the table folds with.
	Op() *agg.Op

	// FoldDelta aggregates v into the Intermediate entry of key (protocol
	// step 3 at the receiving row). It reports whether the entry changed
	// and marks the row dirty when it did.
	FoldDelta(key int64, v float64) bool

	// Drain atomically exchanges key's Intermediate with the identity and
	// returns the previous value (protocol steps 1–2 fetch); ok is false
	// when the entry already held the identity.
	Drain(key int64) (v float64, ok bool)

	// Acc returns the Accumulation entry of key (identity if untouched).
	Acc(key int64) float64

	// FoldAcc folds v into key's Accumulation. It reports whether the
	// entry improved, the magnitude of the change (an identity→v jump
	// improves with magnitude |v|, so a shortest-path source at distance
	// 0 still counts as an improvement), and the signed delta the fold
	// contributed to the shard's Σacc over non-identity rows (a row born
	// from the identity contributes its full new value). The signed
	// delta lets callers maintain a running accumulation sum instead of
	// re-scanning the shard (§5.4's termination check made O(1)).
	FoldAcc(key int64, v float64) (improved bool, change, accDelta float64)

	// ScanDirty drains the dirty set, invoking f for each dirty key. Keys
	// made dirty again during the scan are observed by a later scan.
	ScanDirty(f func(key int64))

	// Subshards reports how many disjoint scan ranges the shard supports
	// for a caller that wants up to `want` of them (intra-worker
	// parallelism). The result is in [1, want]; ranges are cache-line
	// granular for Dense and stripe granular for Sparse, so a small shard
	// may support fewer ranges than asked for.
	Subshards(want int) int

	// ScanDirtyRange drains the dirty keys of subshard sub of nsub,
	// invoking f for each. The nsub subshards partition the shard: over a
	// fixed nsub every dirty key belongs to exactly one subshard, and
	// ScanDirtyRange(0, 1) is ScanDirty. Scans of DISTINCT subshards may
	// run concurrently (the dirty tracking is per-subshard words for
	// Dense, per-stripe sets for Sparse — no shared cache lines); the
	// same subshard must not be scanned by two goroutines at once.
	ScanDirtyRange(sub, nsub int, f func(key int64))

	// DirtyApprox estimates the size of the dirty set without draining
	// it — a scheduling hint (is a parallel pass worth its fan-out?), not
	// a linearizable count: concurrent folds may be missed or double
	// counted.
	DirtyApprox() int

	// HasDirty reports whether any row is marked dirty.
	HasDirty() bool

	// Range iterates all rows with a non-identity Accumulation.
	Range(f func(key int64, acc float64) bool)

	// RangeRows iterates all rows where the Accumulation or the
	// Intermediate is non-identity — the state a checkpoint must capture.
	RangeRows(f func(key int64, acc, inter float64) bool)

	// SetAcc overwrites key's Accumulation (checkpoint restore only; it
	// bypasses the monotone fold).
	SetAcc(key int64, v float64)

	// Invalidate erases key's row — Accumulation AND Intermediate back to
	// the identity — so a delete-invalidation pass can force the key to
	// re-derive from surviving inputs. Like SetAcc it bypasses the
	// monotone fold and must only run while the engine is quiesced. It
	// returns the row's Σacc contribution (its Accumulation, 0 at the
	// identity), which a caller maintaining a running Σacc subtracts.
	Invalidate(key int64) float64

	// Len returns the number of rows with non-identity Accumulation.
	Len() int
}

// Dense is an array-backed shard covering the global keys
// {offset + i*stride : 0 <= i < size} — PowerLog's modulo partitioning
// of a dense vertex key space across `stride` workers.
type Dense struct {
	Column // the Intermediate entries and the dirty set
	route  Route
	offset int64
	acc    []uint64
}

// Column is an Intermediate column by local slot, with a bit per slot for
// the slots that hold an unconsumed delta: a Dense shard's own, whose bits
// are its dirty set, or a mirror (NewMirror). Its methods use plain loads
// and stores, for a caller that is the column's only accessor while they
// run: always, for a mirror; for a shard, the worker goroutine outside a
// fanned-out pass. DESIGN.md §9 ("who may touch a shard when") is the
// exclusivity argument, and the //plvet:ignore lines below and in
// FoldAccOwned are its plain accesses to atomically-used words.
type Column struct {
	op    *agg.Op
	inter []uint64
	dirty []uint32 // atomic bitmap over local slots

	mirror bool
	staged []int32 // a mirror's dirty slots, in first-touch order
}

// shardSize is how many of the keys [0, n) worker offset of stride owns.
func shardSize(n int, stride, offset int64) int {
	if stride <= 0 || offset < 0 || offset >= stride {
		panic("monotable: bad stride/offset")
	}
	return max(0, int((int64(n)-offset+stride-1)/stride))
}

func newColumn(op *agg.Op, size int, mirror bool) Column {
	c := Column{op: op, inter: make([]uint64, size), dirty: make([]uint32, (size+31)/32), mirror: mirror}
	for i := range c.inter {
		agg.Store(&c.inter[i], op.Identity())
	}
	return c
}

// NewDense creates a dense shard for worker `offset` of `stride` workers
// over the global key space [0, n).
func NewDense(op *agg.Op, n int, stride, offset int64) *Dense {
	d := &Dense{
		Column: newColumn(op, shardSize(n, stride, offset), false),
		route:  NewRoute(int(stride)),
		offset: offset,
	}
	d.acc = make([]uint64, len(d.inter))
	for i := range d.acc {
		agg.Store(&d.acc[i], op.Identity())
	}
	return d
}

// NewMirror creates a sender's mirror of the Intermediate column of the
// shard NewDense makes from the same arguments: what the sender has folded
// for that shard's keys and not yet sent. Unlike a shard's column it
// stages a slot at its first fold whatever the value, and holds that
// value as given, so a batch taken from it is the one a combiner keyed by
// hash would have built.
func NewMirror(op *agg.Op, n int, stride, offset int64) *Column {
	c := newColumn(op, shardSize(n, stride, offset), true)
	return &c
}

func (d *Dense) slot(key int64) int {
	s, _ := d.route.Split(int32(key))
	return s
}

// globalKey maps a local slot back to its global key.
func (d *Dense) globalKey(slot int) int64 { return d.offset + int64(slot)*int64(d.route.mod) }

// Op implements Table.
func (c *Column) Op() *agg.Op { return c.op }

// FoldDelta implements Table.
func (d *Dense) FoldDelta(key int64, v float64) bool { return d.FoldDeltaAt(d.slot(key), v) }

// FoldDeltaAt is FoldDelta by local slot, for a caller that has already
// resolved it: a key this shard owns sits at slot key / stride.
func (d *Dense) FoldDeltaAt(s int, v float64) bool {
	if !d.op.AtomicFold(&d.inter[s], v) {
		return false
	}
	markDirty(d.dirty, s)
	return true
}

// FoldDeltaOwned is FoldDeltaAt for the column's only accessor. A slot
// whose bit is set folds in place — one path for a shard and a mirror. It
// reports whether it staged the slot: a mirror's first fold of it.
func (c *Column) FoldDeltaOwned(s int, v float64) bool {
	old := c.at(s)
	next := c.op.Fold(old, v)
	switch {
	case c.held(s):
		c.put(s, next)
		return false
	case c.mirror:
		next = v
		c.staged = append(c.staged, int32(s))
	case next == old || next != next && old != old: // as AtomicFold: NaN over NaN is no change
		return false
	}
	c.put(s, next)
	c.dirty[uint(s)/32] |= 1 << (uint(s) % 32) //plvet:ignore atomicmix owner-exclusive, see DESIGN.md §9
	return c.mirror
}

// held, at and put are the owner's plain reads and writes of slot s: its
// bit, and its value.
func (c *Column) held(s int) bool      { return c.dirty[uint(s)/32]&(1<<(uint(s)%32)) != 0 } //plvet:ignore atomicmix owner-exclusive, see DESIGN.md §9
func (c *Column) at(s int) float64     { return fromBits(c.inter[s]) }                       //plvet:ignore atomicmix owner-exclusive, see DESIGN.md §9
func (c *Column) put(s int, v float64) { c.inter[s] = toBits(v) }                            //plvet:ignore atomicmix owner-exclusive, see DESIGN.md §9

// Staged is a mirror's dirty slots, in the order they were first folded.
func (c *Column) Staged() []int32 { return c.staged }

// TakeOwned empties slot s of a mirror and returns what it held; the
// caller drops the slots it has taken, in Staged's order, with Unstage.
func (c *Column) TakeOwned(s int) float64 {
	v := c.at(s)
	c.put(s, c.op.Identity())
	c.dirty[s/32] &^= 1 << (s % 32) //plvet:ignore atomicmix owner-exclusive, see DESIGN.md §9
	return v
}

// Unstage drops the first n staged slots.
func (c *Column) Unstage(n int) { c.staged = c.staged[:copy(c.staged, c.staged[n:])] }

// DrainOwned is ScanDirty with Drain in one: it empties the dirty set in
// slot order, exchanging each dirty row's Intermediate with the identity,
// and hands f the rows that held something.
func (d *Dense) DrainOwned(f func(key int64, v float64)) {
	id := d.op.Identity()
	for w := range d.dirty {
		bits := d.dirty[w] //plvet:ignore atomicmix owner-exclusive, see DESIGN.md §9
		if bits == 0 {
			continue
		}
		d.dirty[w] = 0 //plvet:ignore atomicmix owner-exclusive, see DESIGN.md §9
		for ; bits != 0; bits &= bits - 1 {
			s := w*32 + trailingZeros32(bits)
			if s >= len(d.inter) {
				break
			}
			if v := d.at(s); v != id {
				d.put(s, id)
				f(d.globalKey(s), v)
			}
		}
	}
}

// Drain implements Table.
func (d *Dense) Drain(key int64) (float64, bool) {
	s := d.slot(key)
	v := d.op.AtomicExchangeIdentity(&d.inter[s])
	if v == d.op.Identity() {
		return v, false
	}
	return v, true
}

// Acc implements Table.
func (d *Dense) Acc(key int64) float64 { return agg.Load(&d.acc[d.slot(key)]) }

// FoldAcc implements Table.
func (d *Dense) FoldAcc(key int64, v float64) (bool, float64, float64) {
	return foldAccCell(d.op, &d.acc[d.slot(key)], v)
}

// FoldAccOwned is FoldAcc by local slot for the shard's only accessor: one
// load, one fold, one store.
func (d *Dense) FoldAccOwned(s int, v float64) (bool, float64, float64) {
	old := fromBits(d.acc[s]) //plvet:ignore atomicmix owner-exclusive, see DESIGN.md §9
	next := d.op.Fold(old, v)
	if next == old {
		return false, 0, 0
	}
	d.acc[s] = toBits(next) //plvet:ignore atomicmix owner-exclusive, see DESIGN.md §9
	change, signed := accChange(d.op, old, next, v)
	return true, change, signed
}

// dirtyWordsPerLine groups the dirty bitmap into 64-byte cache lines
// (16 × uint32 = 512 slots). Subshard boundaries fall only on line
// boundaries, so two goroutines scanning different subshards never CAS
// or swap words on the same cache line — the mark-dirty bitmap stays
// per-subshard and ping-pong free.
const dirtyWordsPerLine = 16

// dirtyLines is the number of cache-line groups in the bitmap.
func (d *Dense) dirtyLines() int {
	return (len(d.dirty) + dirtyWordsPerLine - 1) / dirtyWordsPerLine
}

// scanWords drains the dirty words in [lo, hi), invoking f per set bit.
func (d *Dense) scanWords(lo, hi int, f func(key int64)) {
	for w := lo; w < hi; w++ {
		bits := swapWord(&d.dirty[w], 0)
		for bits != 0 {
			b := bits & (-bits)
			bit := trailingZeros32(bits)
			bits ^= b
			slot := w*32 + bit
			if slot < len(d.acc) {
				f(d.globalKey(slot))
			}
		}
	}
}

// ScanDirty implements Table.
func (d *Dense) ScanDirty(f func(key int64)) { d.scanWords(0, len(d.dirty), f) }

// Subshards implements Table: at most one subshard per bitmap cache
// line, so disjoint ranges never share a dirty word's line.
func (d *Dense) Subshards(want int) int {
	lines := d.dirtyLines()
	if lines < 1 {
		lines = 1
	}
	if want < 1 {
		want = 1
	}
	if want > lines {
		return lines
	}
	return want
}

// ScanDirtyRange implements Table: subshard sub of nsub covers the
// cache-line block [sub·L/nsub, (sub+1)·L/nsub) of the dirty bitmap —
// contiguous slot ranges, scanned in ascending slot order.
func (d *Dense) ScanDirtyRange(sub, nsub int, f func(key int64)) {
	lines := d.dirtyLines()
	lo := sub * lines / nsub * dirtyWordsPerLine
	hi := (sub + 1) * lines / nsub * dirtyWordsPerLine
	if hi > len(d.dirty) {
		hi = len(d.dirty)
	}
	d.scanWords(lo, hi, f)
}

// DirtyApprox implements Table: a popcount sweep of the bitmap.
func (d *Dense) DirtyApprox() int {
	n := 0
	for w := range d.dirty {
		n += onesCount32(loadWord(&d.dirty[w]))
	}
	return n
}

// HasDirty implements Table.
func (d *Dense) HasDirty() bool {
	for w := range d.dirty {
		if loadWord(&d.dirty[w]) != 0 {
			return true
		}
	}
	return false
}

// Range implements Table.
func (d *Dense) Range(f func(key int64, acc float64) bool) {
	id := d.op.Identity()
	for s := range d.acc {
		v := agg.Load(&d.acc[s])
		if v == id {
			continue
		}
		if !f(d.globalKey(s), v) {
			return
		}
	}
}

// RangeRows implements Table.
func (d *Dense) RangeRows(f func(key int64, acc, inter float64) bool) {
	id := d.op.Identity()
	for s := range d.acc {
		a := agg.Load(&d.acc[s])
		i := agg.Load(&d.inter[s])
		if a == id && i == id {
			continue
		}
		if !f(d.globalKey(s), a, i) {
			return
		}
	}
}

// SetAcc implements Table.
func (d *Dense) SetAcc(key int64, v float64) {
	agg.Store(&d.acc[d.slot(key)], v)
}

// Invalidate implements Table. The dirty bit (if set) is left alone: a
// later scan drains an identity Intermediate and skips the key.
func (d *Dense) Invalidate(key int64) float64 {
	s := d.slot(key)
	old := agg.Load(&d.acc[s])
	agg.Store(&d.acc[s], d.op.Identity())
	agg.Store(&d.inter[s], d.op.Identity())
	return sumPart(d.op, old)
}

// Len implements Table.
func (d *Dense) Len() int {
	id := d.op.Identity()
	n := 0
	for s := range d.acc {
		if agg.Load(&d.acc[s]) != id {
			n++
		}
	}
	return n
}

// sparseStripes is the fixed stripe count of the sparse layout: a power
// of two so stripe selection is a mask, and comfortably above the
// per-worker core cap (8) so any Subshards(want) request partitions
// stripes evenly enough to balance.
const sparseStripes = 32

// Sparse is a map-backed shard for pair-keyed programs, hash-striped so
// range scans and folds on different stripes never contend. Each stripe
// serialises its maps with a mutex; the per-row entries still use the
// atomic protocol so Drain and FoldDelta interleave correctly with
// readers once a row pointer is in hand.
type Sparse struct {
	op      *agg.Op
	stripes [sparseStripes]sparseStripe
}

type sparseStripe struct {
	mu      sync.Mutex
	rows    map[int64]*sparseRow
	dirty   map[int64]struct{}
	scratch []int64 // reused ScanDirty drain target (one scanner per stripe)

	// Pad stripes apart so one stripe's mutex traffic does not
	// false-share with its neighbour's.
	_ [64]byte
}

type sparseRow struct {
	acc, inter uint64
}

// NewSparse creates an empty sparse shard.
func NewSparse(op *agg.Op) *Sparse {
	s := &Sparse{op: op}
	for i := range s.stripes {
		s.stripes[i].rows = map[int64]*sparseRow{}
		s.stripes[i].dirty = map[int64]struct{}{}
	}
	return s
}

// stripeOf hashes a key to its stripe (Fibonacci mix, like the runtime's
// combiner hash, so src<<32|dst pair keys spread).
func (s *Sparse) stripeOf(key int64) *sparseStripe {
	x := uint64(key) * 0x9E3779B97F4A7C15
	return &s.stripes[(x^(x>>32))&(sparseStripes-1)]
}

// Op implements Table.
func (s *Sparse) Op() *agg.Op { return s.op }

// row returns (creating if needed) the row for key. Caller holds st.mu.
func (st *sparseStripe) row(key int64, op *agg.Op) *sparseRow {
	r, ok := st.rows[key]
	if !ok {
		r = &sparseRow{}
		agg.Store(&r.acc, op.Identity())
		agg.Store(&r.inter, op.Identity())
		st.rows[key] = r
	}
	return r
}

// FoldDelta implements Table.
func (s *Sparse) FoldDelta(key int64, v float64) bool {
	st := s.stripeOf(key)
	st.mu.Lock()
	r := st.row(key, s.op)
	changed := s.op.AtomicFold(&r.inter, v)
	if changed {
		st.dirty[key] = struct{}{}
	}
	st.mu.Unlock()
	return changed
}

// Drain implements Table.
func (s *Sparse) Drain(key int64) (float64, bool) {
	st := s.stripeOf(key)
	st.mu.Lock()
	r := st.row(key, s.op)
	st.mu.Unlock()
	v := s.op.AtomicExchangeIdentity(&r.inter)
	if v == s.op.Identity() {
		return v, false
	}
	return v, true
}

// Acc implements Table.
func (s *Sparse) Acc(key int64) float64 {
	st := s.stripeOf(key)
	st.mu.Lock()
	r, ok := st.rows[key]
	st.mu.Unlock()
	if !ok {
		return s.op.Identity()
	}
	return agg.Load(&r.acc)
}

// FoldAcc implements Table.
func (s *Sparse) FoldAcc(key int64, v float64) (bool, float64, float64) {
	st := s.stripeOf(key)
	st.mu.Lock()
	r := st.row(key, s.op)
	st.mu.Unlock()
	return foldAccCell(s.op, &r.acc, v)
}

// scanDirtyStripe drains one stripe's dirty set into its reused scratch
// (deleting in place keeps the map's buckets, so a steady-state scan
// allocates nothing), then invokes f outside the lock.
func (s *Sparse) scanDirtyStripe(st *sparseStripe, f func(key int64)) {
	st.mu.Lock()
	keys := st.scratch[:0]
	for k := range st.dirty {
		keys = append(keys, k)
		delete(st.dirty, k)
	}
	st.scratch = keys
	st.mu.Unlock()
	for _, k := range keys {
		f(k)
	}
}

// ScanDirty implements Table.
func (s *Sparse) ScanDirty(f func(key int64)) {
	for i := range s.stripes {
		s.scanDirtyStripe(&s.stripes[i], f)
	}
}

// Subshards implements Table: at most one subshard per stripe.
func (s *Sparse) Subshards(want int) int {
	if want < 1 {
		return 1
	}
	if want > sparseStripes {
		return sparseStripes
	}
	return want
}

// ScanDirtyRange implements Table: subshard sub of nsub covers the
// stripe block [sub·S/nsub, (sub+1)·S/nsub).
func (s *Sparse) ScanDirtyRange(sub, nsub int, f func(key int64)) {
	lo := sub * sparseStripes / nsub
	hi := (sub + 1) * sparseStripes / nsub
	for i := lo; i < hi; i++ {
		s.scanDirtyStripe(&s.stripes[i], f)
	}
}

// DirtyApprox implements Table.
func (s *Sparse) DirtyApprox() int {
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		n += len(st.dirty)
		st.mu.Unlock()
	}
	return n
}

// HasDirty implements Table.
func (s *Sparse) HasDirty() bool {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		n := len(st.dirty)
		st.mu.Unlock()
		if n != 0 {
			return true
		}
	}
	return false
}

// Range implements Table.
func (s *Sparse) Range(f func(key int64, acc float64) bool) {
	type kv struct {
		k int64
		v float64
	}
	id := s.op.Identity()
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		all := make([]kv, 0, len(st.rows))
		for k, r := range st.rows {
			if v := agg.Load(&r.acc); v != id {
				all = append(all, kv{k, v})
			}
		}
		st.mu.Unlock()
		for _, e := range all {
			if !f(e.k, e.v) {
				return
			}
		}
	}
}

// RangeRows implements Table.
func (s *Sparse) RangeRows(f func(key int64, acc, inter float64) bool) {
	type kv struct {
		k        int64
		acc, del float64
	}
	id := s.op.Identity()
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		all := make([]kv, 0, len(st.rows))
		for k, r := range st.rows {
			a, d := agg.Load(&r.acc), agg.Load(&r.inter)
			if a == id && d == id {
				continue
			}
			all = append(all, kv{k, a, d})
		}
		st.mu.Unlock()
		for _, e := range all {
			if !f(e.k, e.acc, e.del) {
				return
			}
		}
	}
}

// SetAcc implements Table.
func (s *Sparse) SetAcc(key int64, v float64) {
	st := s.stripeOf(key)
	st.mu.Lock()
	r := st.row(key, s.op)
	st.mu.Unlock()
	agg.Store(&r.acc, v)
}

// Invalidate implements Table: the row and its dirty entry are removed
// outright, so the key re-derives (or stays absent) from scratch.
func (s *Sparse) Invalidate(key int64) float64 {
	st := s.stripeOf(key)
	st.mu.Lock()
	old := s.op.Identity()
	if r := st.rows[key]; r != nil {
		old = agg.Load(&r.acc)
	}
	delete(st.rows, key)
	delete(st.dirty, key)
	st.mu.Unlock()
	return sumPart(s.op, old)
}

// Len implements Table.
func (s *Sparse) Len() int {
	n := 0
	s.Range(func(int64, float64) bool { n++; return true })
	return n
}

// foldAccCell folds v into an accumulation cell, reporting improvement,
// |change|, and the signed Σacc contribution (identity counts as 0, so a
// row leaving the identity contributes its full value).
func foldAccCell(op *agg.Op, cell *uint64, v float64) (bool, float64, float64) {
	for {
		oldBits := loadU64(cell)
		old := fromBits(oldBits)
		next := op.Fold(old, v)
		if next == old {
			return false, 0, 0
		}
		if casU64(cell, oldBits, toBits(next)) {
			change, signed := accChange(op, old, next, v)
			return true, change, signed
		}
	}
}

// accChange is what folding v moved an accumulation by, old → next: its
// ε-termination contribution — for selective aggregates the distance moved
// (when finite), for combining aggregates the folded delta itself — and
// the signed Σacc contribution.
func accChange(op *agg.Op, old, next, v float64) (change, signed float64) {
	signed = next - sumPart(op, old)
	if d := agg.Abs(old - next); op.Selective() && d == d && d <= 1e300 {
		return d, signed // else NaN or a from-identity jump: count the value move
	}
	return agg.Abs(v), signed
}

// sumPart is what an accumulation adds to Σacc: itself, 0 at the identity.
func sumPart(op *agg.Op, acc float64) float64 {
	if acc == op.Identity() {
		return 0
	}
	return acc
}
