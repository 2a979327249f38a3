// Package monotable implements the MonoTable of paper §5.2 (Figure 7):
// the distributed mutable in-memory table holding the state of a
// recursive computation. Each row has an Accumulation entry (the result
// x, folded monotonically) and an Intermediate entry (the aggregated
// delta g(Δx)). Updates follow the paper's three-step protocol:
//
//  1. exchange the Intermediate with the aggregate identity into a local
//     tmp (so a delta is never aggregated twice),
//  2. fold tmp into the Accumulation at the same row,
//  3. apply f to tmp and aggregate the results into the Intermediate
//     entries of dependent rows (possibly on other workers).
//
// Steps 1–2 are Drain+FoldAcc; step 3 is FoldDelta (via message passing
// for remote rows). Auxiliaries (per-vertex attribute columns) live in
// the compiled plan, not in the table.
//
// A shard has one accessor at a time — its worker's compute goroutine,
// or whoever that worker handed the shard to at a park or on exit
// (DESIGN.md §9) — so every method reads and writes with plain loads and
// stores, and the steps need no atomics.
//
// Two shard layouts are provided: a dense array shard for vertex-keyed
// programs (key space [0,n) cut into one block per worker, Route) and a
// sparse map shard for pair-keyed programs such as APSP and SimRank.
package monotable

import (
	"math"
	"math/bits"

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

	// Drain exchanges key's Intermediate with the identity and returns
	// the previous value (protocol steps 1–2 fetch); ok is false when the
	// entry already held the identity.
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

	// DrainAdmitted is ScanDirty with Drain in one, under an admission
	// rule: it takes the Intermediate of each dirty row a admits and
	// hands f the key and what it held, and leaves the rows a holds back
	// dirty in place. It returns how many it held back as far and as
	// small. A dirty row that holds the identity is cleaned and counted
	// in neither. f must not fold into the table.
	DrainAdmitted(a Admit, f func(key int64, v float64)) (far, small int)

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

// Dense is an array-backed shard covering one block of the global keys
// (Route): slot s holds key base + s.
type Dense struct {
	Column // the Intermediate entries and the dirty set
	base   int64
	acc    []uint64
	near   []uint32 // drainBucket's marks, a word per dirty word
}

// Column is an Intermediate column by local slot, with a bit per slot for
// the slots that hold an unconsumed delta: a Dense shard's own, whose bits
// are its dirty set, or a mirror (NewMirror). Its *Owned methods, and
// Dense's, take a slot rather than a key: they are what the column's owner
// — the worker that folds into it — calls once it has resolved the slot
// with Route.Split, and the Table methods are the same bodies by key.
type Column struct {
	op    *agg.Op
	inter []uint64
	dirty []uint32 // bitmap over local slots

	mirror bool
	staged []int32 // a mirror's dirty slots, in first-touch order
}

func newColumn(op *agg.Op, size int, mirror bool) Column {
	c := Column{op: op, inter: make([]uint64, size), dirty: make([]uint32, (size+31)/32), mirror: mirror}
	for i := range c.inter {
		c.put(i, op.Identity())
	}
	return c
}

// NewDense creates a dense shard for worker `offset` of `stride` workers
// over the global key space [0, n): shard offset of NewRoute(n, stride).
func NewDense(op *agg.Op, n int, stride, offset int64) *Dense {
	if offset < 0 || offset >= stride {
		panic("monotable: bad stride/offset")
	}
	r := NewRoute(n, int(stride))
	d := &Dense{
		Column: newColumn(op, r.Size(int(offset)), false),
		base:   r.Key(int(offset), 0),
	}
	d.acc = make([]uint64, len(d.inter))
	for i := range d.acc {
		d.acc[i] = toBits(op.Identity())
	}
	return d
}

// NewMirror creates a sender's mirror of the Intermediate column of shard
// o of route: what the sender has folded for that shard's keys and not
// yet sent. Unlike a shard's column it stages a slot at its first fold
// whatever the value, and holds that value as given, so a batch taken
// from it is the one a combiner keyed by hash would have built.
func NewMirror(op *agg.Op, route Route, o int) *Column {
	c := newColumn(op, route.Size(o), true)
	return &c
}

// slot and globalKey map an owned key to its local slot and back.
func (d *Dense) slot(key int64) int       { return int(key - d.base) }
func (d *Dense) globalKey(slot int) int64 { return d.base + int64(slot) }

// Op implements Table.
func (c *Column) Op() *agg.Op { return c.op }

// FoldDelta implements Table: FoldDeltaOwned at key's slot.
func (d *Dense) FoldDelta(key int64, v float64) bool {
	s := d.slot(key)
	old := d.at(s)
	d.FoldDeltaOwned(s, v)
	return !same(d.at(s), old)
}

// FoldDeltaOwned folds v into slot s. A slot whose bit is set folds in
// place — one path for a shard and a mirror; a shard's row whose value
// changed goes dirty. It reports whether it staged the slot: a mirror's
// first fold of it.
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
	case same(next, old):
		return false
	}
	c.put(s, next)
	c.dirty[uint(s)/32] |= 1 << (uint(s) % 32)
	return c.mirror
}

// same is the folds' test for no change: equal values, or NaN over NaN.
func same(a, b float64) bool { return a == b || a != a && b != b }

// held, at and put are the plain reads and writes of slot s: its bit, and
// its value.
func (c *Column) held(s int) bool      { return c.dirty[uint(s)/32]&(1<<(uint(s)%32)) != 0 }
func (c *Column) at(s int) float64     { return fromBits(c.inter[s]) }
func (c *Column) put(s int, v float64) { c.inter[s] = toBits(v) }

// Staged is a mirror's dirty slots, in the order they were first folded.
func (c *Column) Staged() []int32 { return c.staged }

// TakeOwned empties slot s — its value back to the identity, its bit
// cleared — and returns what it held. A mirror's caller drops the slots it
// has taken, in Staged's order, with Unstage.
func (c *Column) TakeOwned(s int) float64 {
	v := c.at(s)
	c.put(s, c.op.Identity())
	c.dirty[s/32] &^= 1 << (s % 32)
	return v
}

// Unstage drops the first n staged slots.
func (c *Column) Unstage(n int) { c.staged = c.staged[:copy(c.staged, c.staged[n:])] }

// Admit is the rule a drain takes a dirty row's delta v by
// (Table.DrainAdmitted). With Sign ≠ 0 it is a bucket: v is far when
// Sign·v > b + Width, b the least Sign·v over the dirty rows' deltas — a
// NaN is never b, nor far. With Threshold > 0 it is a hold: a v that is
// not far is small when not |v| ≥ Threshold, a NaN included. A drain
// admits what is neither; the zero Admit admits every row.
type Admit struct {
	Sign, Width float64
	Threshold   float64
}

func (a Admit) small(v float64) bool { return a.Threshold > 0 && !(agg.Abs(v) >= a.Threshold) }

// DrainAdmitted implements Table, in slot order. It writes each dirty
// word once, with the bits of the rows it held back.
func (d *Dense) DrainAdmitted(a Admit, f func(key int64, v float64)) (far, small int) {
	if a.Sign != 0 {
		return d.drainBucket(a, f)
	}
	id := d.op.Identity()
	for w, bits := range d.dirty {
		if bits == 0 {
			continue
		}
		keep := uint32(0)
		for ; bits != 0; bits &= bits - 1 {
			s := w*32 + trailingZeros32(bits)
			if s >= len(d.inter) {
				break // past the shard's end: never a row
			}
			v := d.at(s)
			if v != id && a.small(v) {
				small++
				keep |= bits & -bits
				continue
			}
			d.put(s, id)
			if v != id {
				f(d.globalKey(s), v)
			}
		}
		d.dirty[w] = keep
	}
	return 0, small
}

// drainBucket is DrainAdmitted under a bucket in one scan of the dirty
// words, not one to find b and another to drain: the scan cleans the rows
// that hold the identity, reads b, and marks the slots within Width of
// the least value seen so far — a superset of those within Width of b —
// which a second loop, over the marks alone, admits in slot order.
func (d *Dense) drainBucket(a Admit, f func(key int64, v float64)) (far, small int) {
	id, least := d.op.Identity(), math.Inf(1)
	if len(d.near) != len(d.dirty) {
		d.near = make([]uint32, len(d.dirty))
	}
	for w, bits := range d.dirty {
		near := uint32(0)
		for ; bits != 0; bits &= bits - 1 {
			s, bit := w*32+trailingZeros32(bits), bits&-bits
			if s >= len(d.inter) {
				d.dirty[w] &= bit - 1 // past the shard's end: never a row
				break
			}
			v := d.at(s)
			if v == id {
				d.TakeOwned(s)
				continue
			}
			far++
			x := a.Sign * v
			if x < least {
				least = x
			}
			if !(x > least+a.Width) {
				near |= bit
			}
		}
		d.near[w] = near
	}
	limit := least + a.Width
	for w, bits := range d.near {
		for ; bits != 0; bits &= bits - 1 {
			s := w*32 + trailingZeros32(bits)
			v := d.at(s)
			if a.Sign*v > limit {
				continue
			}
			far--
			if a.small(v) {
				small++
				continue
			}
			d.TakeOwned(s)
			f(d.globalKey(s), v)
		}
	}
	return far, small
}

// Drain implements Table: TakeOwned at key's slot.
func (d *Dense) Drain(key int64) (float64, bool) {
	v := d.TakeOwned(d.slot(key))
	return v, v != d.op.Identity()
}

// Acc implements Table.
func (d *Dense) Acc(key int64) float64 { return fromBits(d.acc[d.slot(key)]) }

// FoldAcc implements Table: FoldAccOwned at key's slot.
func (d *Dense) FoldAcc(key int64, v float64) (bool, float64, float64) {
	return d.FoldAccOwned(d.slot(key), v)
}

// FoldAccOwned is FoldAcc by local slot: one load, one fold, one store.
func (d *Dense) FoldAccOwned(s int, v float64) (bool, float64, float64) {
	return foldAcc(d.op, &d.acc[s], v)
}

// ScanDirty implements Table.
func (d *Dense) ScanDirty(f func(key int64)) {
	for w, bits := range d.dirty {
		d.dirty[w] = 0
		for ; bits != 0; bits &= bits - 1 {
			if s := w*32 + trailingZeros32(bits); s < len(d.acc) {
				f(d.globalKey(s))
			}
		}
	}
}

// HasDirty implements Table.
func (d *Dense) HasDirty() bool {
	for _, bits := range d.dirty {
		if bits != 0 {
			return true
		}
	}
	return false
}

// Marked counts the rows marked dirty: at most what one drain hands over.
func (d *Dense) Marked() int {
	n := 0
	for _, word := range d.dirty {
		n += bits.OnesCount32(word)
	}
	return n
}

// Range implements Table.
func (d *Dense) Range(f func(key int64, acc float64) bool) {
	id := d.op.Identity()
	for s, a := range d.acc {
		if v := fromBits(a); v != id && !f(d.globalKey(s), v) {
			return
		}
	}
}

// RangeRows implements Table.
func (d *Dense) RangeRows(f func(key int64, acc, inter float64) bool) {
	id := d.op.Identity()
	for s, a := range d.acc {
		acc, inter := fromBits(a), d.at(s)
		if (acc != id || inter != id) && !f(d.globalKey(s), acc, inter) {
			return
		}
	}
}

// SetAcc implements Table.
func (d *Dense) SetAcc(key int64, v float64) { d.acc[d.slot(key)] = toBits(v) }

// Invalidate implements Table. The dirty bit (if set) is left alone: a
// later scan drains an identity Intermediate and skips the key.
func (d *Dense) Invalidate(key int64) float64 {
	s := d.slot(key)
	old := fromBits(d.acc[s])
	d.acc[s] = toBits(d.op.Identity())
	d.put(s, d.op.Identity())
	return sumPart(d.op, old)
}

// Len implements Table.
func (d *Dense) Len() int {
	n := 0
	d.Range(func(int64, float64) bool { n++; return true })
	return n
}

// Sparse is a map-backed shard for pair-keyed programs: one map of rows
// and one of the dirty keys.
type Sparse struct {
	op      *agg.Op
	rows    map[int64]*sparseRow
	dirty   map[int64]struct{}
	scratch []int64 // reused ScanDirty drain target
}

type sparseRow struct {
	acc, inter uint64
}

// NewSparse creates an empty sparse shard.
func NewSparse(op *agg.Op) *Sparse {
	return &Sparse{op: op, rows: map[int64]*sparseRow{}, dirty: map[int64]struct{}{}}
}

// Op implements Table.
func (s *Sparse) Op() *agg.Op { return s.op }

// row returns (creating if needed) the row for key.
func (s *Sparse) row(key int64) *sparseRow {
	r, ok := s.rows[key]
	if !ok {
		id := toBits(s.op.Identity())
		r = &sparseRow{acc: id, inter: id}
		s.rows[key] = r
	}
	return r
}

// FoldDelta implements Table.
func (s *Sparse) FoldDelta(key int64, v float64) bool {
	r := s.row(key)
	old := fromBits(r.inter)
	next := s.op.Fold(old, v)
	if same(next, old) {
		return false
	}
	r.inter = toBits(next)
	s.dirty[key] = struct{}{}
	return true
}

// Drain implements Table.
func (s *Sparse) Drain(key int64) (float64, bool) {
	id := s.op.Identity()
	r := s.rows[key]
	if r == nil {
		return id, false
	}
	v := fromBits(r.inter)
	r.inter = toBits(id)
	return v, v != id
}

// Acc implements Table.
func (s *Sparse) Acc(key int64) float64 {
	if r := s.rows[key]; r != nil {
		return fromBits(r.acc)
	}
	return s.op.Identity()
}

// FoldAcc implements Table.
func (s *Sparse) FoldAcc(key int64, v float64) (bool, float64, float64) {
	return foldAcc(s.op, &s.row(key).acc, v)
}

// ScanDirty implements Table. It drains the dirty set into a reused
// scratch first (deleting in place keeps the map's buckets, so a
// steady-state scan allocates nothing), so keys f dirties again wait for
// the next scan.
func (s *Sparse) ScanDirty(f func(key int64)) {
	keys := s.scratch[:0]
	for k := range s.dirty {
		keys = append(keys, k)
		delete(s.dirty, k)
	}
	s.scratch = keys
	for _, k := range keys {
		f(k)
	}
}

// DrainAdmitted implements Table, in the dirty map's order: a bucket's
// b first, then the drain.
func (s *Sparse) DrainAdmitted(a Admit, f func(key int64, v float64)) (far, small int) {
	id, limit := s.op.Identity(), math.Inf(1)
	if a.Sign != 0 {
		least := math.Inf(1)
		for k := range s.dirty {
			if v := fromBits(s.rows[k].inter); v != id && a.Sign*v < least {
				least = a.Sign * v
			}
		}
		limit = least + a.Width
	}
	for k := range s.dirty {
		r := s.rows[k]
		v := fromBits(r.inter)
		if v != id {
			if a.Sign*v > limit {
				far++
				continue
			}
			if a.small(v) {
				small++
				continue
			}
		}
		delete(s.dirty, k)
		r.inter = toBits(id)
		if v != id {
			f(k, v)
		}
	}
	return far, small
}

// HasDirty implements Table.
func (s *Sparse) HasDirty() bool { return len(s.dirty) != 0 }

// Range implements Table.
func (s *Sparse) Range(f func(key int64, acc float64) bool) {
	id := s.op.Identity()
	for k, r := range s.rows {
		if v := fromBits(r.acc); v != id && !f(k, v) {
			return
		}
	}
}

// RangeRows implements Table.
func (s *Sparse) RangeRows(f func(key int64, acc, inter float64) bool) {
	id := s.op.Identity()
	for k, r := range s.rows {
		acc, inter := fromBits(r.acc), fromBits(r.inter)
		if (acc != id || inter != id) && !f(k, acc, inter) {
			return
		}
	}
}

// SetAcc implements Table.
func (s *Sparse) SetAcc(key int64, v float64) { s.row(key).acc = toBits(v) }

// Invalidate implements Table: the row and its dirty entry are removed
// outright, so the key re-derives (or stays absent) from scratch.
func (s *Sparse) Invalidate(key int64) float64 {
	old := s.Acc(key)
	delete(s.rows, key)
	delete(s.dirty, key)
	return sumPart(s.op, old)
}

// Len implements Table.
func (s *Sparse) Len() int {
	n := 0
	s.Range(func(int64, float64) bool { n++; return true })
	return n
}

// foldAcc folds v into an accumulation cell, reporting improvement,
// |change|, and the signed Σacc contribution (identity counts as 0, so a
// row leaving the identity contributes its full value).
func foldAcc(op *agg.Op, cell *uint64, v float64) (bool, float64, float64) {
	old := fromBits(*cell)
	next := op.Fold(old, v)
	if next == old {
		return false, 0, 0
	}
	*cell = toBits(next)
	change, signed := accChange(op, old, next, v)
	return true, change, signed
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

func toBits(f float64) uint64      { return math.Float64bits(f) }
func fromBits(b uint64) float64    { return math.Float64frombits(b) }
func trailingZeros32(v uint32) int { return bits.TrailingZeros32(v) }
