package monotable

import (
	"math/bits"

	"powerlog/internal/agg"
)

// Route is the block partition of the vertex keys [0, n) over w shards:
// with size = ⌈n/w⌉, owner o holds the keys [o·size, min((o+1)·size, n)),
// and key t lives at slot t − o·size of its owner's shard. Neighbouring
// ids share an owner, so a graph whose ids carry locality — a chain, a
// crawl order — keeps most of its edges inside one shard. A Dense shard
// finds its slots with it and a Sink its owners and slots.
//
// Route has four fields so that the compiler keeps an inlined Split's
// copy of it in registers; a fifth puts it on the stack every call.
type Route struct {
	n, size int
	recip   uint64 // ⌊2⁶³/size⌋+1, Split's reciprocal
	shift   uint8  // Owner's key → vertex: 32 for pair keys (Pairs)
}

// NewRoute is the route of the keys [0, n) over w shards.
func NewRoute(n, w int) Route {
	if w <= 0 || n < 0 {
		panic("monotable: bad route")
	}
	size := max(1, (n+w-1)/w)
	return Route{n: n, size: size, recip: 1<<63/uint64(size) + 1}
}

// Pairs is the route of pair keys hi<<32|lo over the same blocks: a pair
// is owned by the block of its first vertex hi.
func (r Route) Pairs() Route { r.shift = 32; return r }

// Size is how many keys shard o owns.
func (r Route) Size(o int) int { return max(0, min(r.size, r.n-o*r.size)) }

// Key is the key at slot s of shard o.
func (r Route) Key(o, s int) int64 { return int64(o*r.size + s) }

// Owner is the shard that owns key — for a pair route, the owner of its
// first vertex — or -1 for a key outside the route's [0, n).
func (r Route) Owner(key int64) int {
	if v := key >> r.shift; uint64(v) < uint64(r.n) {
		_, o := r.Split(int32(v))
		return o
	}
	return -1
}

// Split is the route of a vertex key t without a hardware divide: its
// slot in its owner's shard, t − owner·size, and the owner, t / size. The
// quotient is one multiply by a reciprocal, for every block size: with
// M = ⌊2⁶³/size⌋+1 the high word of M·2t is ⌊t/size⌋ exactly for every
// t < 2³¹ and size < 2³², since M·size = 2⁶³+e with 0 < e ≤ size and the
// product therefore overshoots t/size by e·t/(size·2⁶³) < 2⁻³² < 1/size.
func (r Route) Split(t int32) (slot, owner int) {
	hi, _ := bits.Mul64(r.recip, uint64(t)<<1)
	return int(t) - int(hi)*r.size, int(hi)
}

// Form is how the values along a row derive from the row's scalar x: the
// shapes of a propagation kernel's per-edge residual (DESIGN.md §9).
type Form uint8

const (
	Given Form = iota // each edge's value computed by the caller
	Const             // x on every edge
	AddW              // x + w
	MulW              // x · w
)

// Sink is where a pass that is the only accessor of every column it folds
// into puts a row: an edge's target splits by Route into an owner and a
// slot, and the edge's value folds into Cols[owner] at that slot — a
// shard's own Intermediate, or the mirror of a peer's that buffers for it
// (NewMirror). Counts[owner] counts the fold. A fold that staged a mirror's
// slot and so brought it to Limits[owner], or of a value whose magnitude
// is Urgent or more, hands the owner back to the caller to flush.
type Sink struct {
	Route  Route
	Cols   []*Column // by owner; every column folds with one aggregate
	Limits []int     // by owner: the staged slots at which a mirror is flushed
	Counts []int64   // by owner: values folded
	Urgent float64   // NaN: no value is
}

// Fold folds edges i, i+1, … of a row into their owners' columns, edge j
// carrying x (Const), x + per[j] (AddW), x · per[j] (MulW) or per[j]
// (Given). It stops after the first edge whose owner must be flushed
// before the row goes on, returning that owner and the edge to go on
// from, or at the row's end with owner -1.
//
// A row folds as runs of one owner: the route splits a run's first
// target, which picks the run's column, and the edges after it stay in
// the run while their targets fall in that owner's block; the run is
// counted once, where it ends. An edge of a run is a slot subtract, a
// bit test and a fold — a load, a fold and a store when the slot's bit
// is already set, the common case; its first fold goes through
// FoldDeltaOwned, which marks a shard's row dirty or stages a mirror's
// slot. On a row sorted by target (graph.SortedRows) there is
// one run per owner the row reaches; any other row folds the same, in
// shorter runs. There is one loop per form — Given values go through
// MulW's — so an edge pays no test of the form, and a Const row's
// urgency is one test.
func (s *Sink) Fold(f Form, x float64, targets []int32, per []float64, i int) (next, owner int) {
	switch f {
	case Const:
		return s.foldConst(x, targets, i)
	case AddW:
		return s.foldAddW(x, targets, per[:len(targets)], i)
	case MulW:
		return s.foldMulW(x, targets, per[:len(targets)], i)
	default:
		return s.foldMulW(1, targets, per[:len(targets)], i) // 1 · v is v, bit for bit
	}
}

// run opens the run that starts at target t: its owner, the owner's
// column and the first key of the owner's block. A run reads and writes
// the column's value and bit slices as Column.held, at and put do, held
// in locals: FoldDeltaOwned, the one call in a run, grows neither.
func (s *Sink) run(t int32) (o int, c *Column, base int) {
	slot, o := s.Route.Split(t)
	return o, s.Cols[o], int(t) - slot
}

// stop ends a run at edge j, which the fold stops after: edges i to j
// are counted for owner o.
func (s *Sink) stop(i, j, o int) (int, int) {
	s.Counts[o] += int64(j + 1 - i)
	return j + 1, o
}

// stage is an edge's first fold into slot of owner o's column c: whether
// the owner must now be flushed for its limit.
func (s *Sink) stage(c *Column, slot, o int, v float64) bool {
	return c.FoldDeltaOwned(slot, v) && len(c.staged) >= s.Limits[o]
}

func (s *Sink) foldConst(v float64, ts []int32, i int) (int, int) {
	kind, size, urgent := s.Cols[0].op.Kind(), uint(s.Route.size), agg.Abs(v) >= s.Urgent
	for i < len(ts) {
		o, c, base := s.run(ts[i])
		inter, dirty := c.inter, c.dirty
		j := i
		for ; j < len(ts); j++ {
			slot := int(ts[j]) - base
			if uint(slot) >= size {
				break
			}
			if dirty[uint(slot)/32]&(1<<(uint(slot)%32)) != 0 {
				inter[slot] = toBits(kind.Fold(fromBits(inter[slot]), v))
			} else if s.stage(c, slot, o, v) {
				return s.stop(i, j, o)
			}
			if urgent {
				return s.stop(i, j, o)
			}
		}
		s.Counts[o] += int64(j - i)
		i = j
	}
	return i, -1
}

func (s *Sink) foldAddW(x float64, ts []int32, ws []float64, i int) (int, int) {
	kind, size, urgent := s.Cols[0].op.Kind(), uint(s.Route.size), s.Urgent
	for i < len(ts) {
		o, c, base := s.run(ts[i])
		inter, dirty := c.inter, c.dirty
		j := i
		for ; j < len(ts); j++ {
			slot := int(ts[j]) - base
			if uint(slot) >= size {
				break
			}
			v := x + ws[j]
			if dirty[uint(slot)/32]&(1<<(uint(slot)%32)) != 0 {
				inter[slot] = toBits(kind.Fold(fromBits(inter[slot]), v))
			} else if s.stage(c, slot, o, v) {
				return s.stop(i, j, o)
			}
			if agg.Abs(v) >= urgent {
				return s.stop(i, j, o)
			}
		}
		s.Counts[o] += int64(j - i)
		i = j
	}
	return i, -1
}

func (s *Sink) foldMulW(x float64, ts []int32, ws []float64, i int) (int, int) {
	kind, size, urgent := s.Cols[0].op.Kind(), uint(s.Route.size), s.Urgent
	for i < len(ts) {
		o, c, base := s.run(ts[i])
		inter, dirty := c.inter, c.dirty
		j := i
		for ; j < len(ts); j++ {
			slot := int(ts[j]) - base
			if uint(slot) >= size {
				break
			}
			v := float64(x * ws[j]) // rounded here: a sum's add must not fuse with it
			if dirty[uint(slot)/32]&(1<<(uint(slot)%32)) != 0 {
				inter[slot] = toBits(kind.Fold(fromBits(inter[slot]), v))
			} else if s.stage(c, slot, o, v) {
				return s.stop(i, j, o)
			}
			if agg.Abs(v) >= urgent {
				return s.stop(i, j, o)
			}
		}
		s.Counts[o] += int64(j - i)
		i = j
	}
	return i, -1
}
