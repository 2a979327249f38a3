package monotable

import (
	"math/bits"

	"powerlog/internal/agg"
)

// Route is the modulo partition of vertex keys over mod shards: key t
// lives at slot t / mod of shard t mod mod. A Dense shard finds its slots
// with it and a Sink its owners and slots.
type Route struct {
	mod   int
	recip uint64 // ⌊2⁶³/mod⌋+1, Split's reciprocal
}

// NewRoute is the route over mod shards.
func NewRoute(mod int) Route { return Route{mod: mod, recip: 1<<63/uint64(mod) + 1} }

// Mod is how many shards the route spreads keys over.
func (r Route) Mod() int { return r.mod }

// Split is the route of a vertex key t without a hardware divide: t / mod
// — the key's slot in its owner's shard — and t mod mod, the owner. The
// quotient is one multiply by a reciprocal, for every fleet size: with
// M = ⌊2⁶³/mod⌋+1 the high word of M·2t is ⌊t/mod⌋ exactly for every
// t < 2³¹ and mod < 2³², since M·mod = 2⁶³+e with 0 < e ≤ mod and the
// product therefore overshoots t/mod by e·t/(mod·2⁶³) < 2⁻³² < 1/mod.
func (r Route) Split(t int32) (slot, owner int) {
	hi, _ := bits.Mul64(r.recip, uint64(t)<<1)
	return int(hi), int(t) - int(hi)*r.mod
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
// There is one loop per form — Given values go through MulW's — so an
// edge pays no test of the form, and a Const row's urgency is one test. A
// slot whose bit is already set — the common case — is a load, a fold
// and a store in the loop; its first fold goes through FoldDeltaOwned,
// which marks a shard's row dirty or stages a mirror's slot.
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

// stage is an edge's first fold into slot of owner o's column c: whether
// the owner must now be flushed for its limit.
func (s *Sink) stage(c *Column, slot, o int, v float64) bool {
	return c.FoldDeltaOwned(slot, v) && len(c.staged) >= s.Limits[o]
}

func (s *Sink) foldConst(v float64, ts []int32, i int) (int, int) {
	kind, cols, counts := s.Cols[0].op.Kind(), s.Cols, s.Counts
	urgent := agg.Abs(v) >= s.Urgent
	for ; i < len(ts); i++ {
		slot, o := s.Route.Split(ts[i])
		c := cols[o]
		counts[o]++
		if c.held(slot) {
			c.put(slot, kind.Fold(c.at(slot), v))
		} else if s.stage(c, slot, o, v) {
			return i + 1, o
		}
		if urgent {
			return i + 1, o
		}
	}
	return i, -1
}

func (s *Sink) foldAddW(x float64, ts []int32, ws []float64, i int) (int, int) {
	kind, cols, counts, urgent := s.Cols[0].op.Kind(), s.Cols, s.Counts, s.Urgent
	for ; i < len(ts); i++ {
		v := x + ws[i]
		slot, o := s.Route.Split(ts[i])
		c := cols[o]
		counts[o]++
		if c.held(slot) {
			c.put(slot, kind.Fold(c.at(slot), v))
		} else if s.stage(c, slot, o, v) {
			return i + 1, o
		}
		if agg.Abs(v) >= urgent {
			return i + 1, o
		}
	}
	return i, -1
}

func (s *Sink) foldMulW(x float64, ts []int32, ws []float64, i int) (int, int) {
	kind, cols, counts, urgent := s.Cols[0].op.Kind(), s.Cols, s.Counts, s.Urgent
	for ; i < len(ts); i++ {
		v := float64(x * ws[i]) // rounded here: a sum's add must not fuse with it
		slot, o := s.Route.Split(ts[i])
		c := cols[o]
		counts[o]++
		if c.held(slot) {
			c.put(slot, kind.Fold(c.at(slot), v))
		} else if s.stage(c, slot, o, v) {
			return i + 1, o
		}
		if agg.Abs(v) >= urgent {
			return i + 1, o
		}
	}
	return i, -1
}
