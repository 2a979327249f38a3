package monotable

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"powerlog/internal/agg"
)

// ownedCase is one worker's Sink — its own shard's column at self and a
// mirror of each peer's — and the rows a direct pass folds into it.
type ownedCase struct {
	kind             agg.Kind
	n, workers, self int
	limits           []int
	urgent           float64
	rows             []ownedRow
}

// ownedRow is a row as Sink.Fold takes it.
type ownedRow struct {
	form    Form
	x       float64
	targets []int32
	per     []float64
}

// value is what Kernel.Fill stores for edge i of the row.
func (r ownedRow) value(i int) float64 {
	switch r.form {
	case Const:
		return r.x
	case AddW:
		return r.x + r.per[i]
	case MulW:
		return float64(r.x * r.per[i])
	default:
		return r.per[i]
	}
}

// flushed is one flush a pass made: after which edge of the case's rows,
// of which owner, and the values it took from the owner's mirror.
type flushed struct {
	edge, owner int
	taken       []uint64
}

// ownedRun is one side of the comparison: a Sink, the shard it folds into
// and the flushes it asked for.
type ownedRun struct {
	sink    *Sink
	shard   *Dense
	flushes []flushed
}

func newOwnedRun(c ownedCase) *ownedRun {
	op := agg.ByKind(c.kind)
	r := &ownedRun{sink: &Sink{
		Route:  NewRoute(c.workers),
		Cols:   make([]*Column, c.workers),
		Limits: c.limits,
		Counts: make([]int64, c.workers),
		Urgent: c.urgent,
	}}
	for o := range r.sink.Cols {
		if o == c.self {
			r.shard = NewDense(op, c.n, int64(c.workers), int64(o))
			r.sink.Cols[o] = &r.shard.Column
		} else {
			r.sink.Cols[o] = NewMirror(op, c.n, int64(c.workers), int64(o))
		}
	}
	return r
}

// flush is what the worker's flush does to owner o's column: a mirror
// hands over its staged slots in order, the shard's own column nothing.
func (r *ownedRun) flush(edge, o int) {
	f := flushed{edge: edge, owner: o}
	if c := r.sink.Cols[o]; c.mirror {
		for _, s := range c.Staged() {
			f.taken = append(f.taken, math.Float64bits(c.TakeOwned(int(s))))
		}
		c.Unstage(len(c.Staged()))
	}
	r.flushes = append(r.flushes, f)
}

// perEdge is the direct pass's sink as it was before Sink.Fold, kept as
// the oracle: Fill's values, one FoldDeltaOwned per edge, the limit asked
// when a fold staged a slot and the urgency of every value.
func (r *ownedRun) perEdge(row ownedRow, base int) {
	s := r.sink
	for i, t := range row.targets {
		v := row.value(i)
		slot, o := s.Route.Split(t)
		col := s.Cols[o]
		s.Counts[o]++
		if col.FoldDeltaOwned(slot, v) && len(col.Staged()) >= s.Limits[o] || agg.Abs(v) >= s.Urgent {
			r.flush(base+i+1, o)
		}
	}
}

// fold is the pass's sink now: Sink.Fold, flushing where it stops.
func (r *ownedRun) fold(row ownedRow, base int) {
	for i, o := 0, 0; i < len(row.targets); {
		if i, o = r.sink.Fold(row.form, row.x, row.targets, row.per, i); o >= 0 {
			r.flush(base+i, o)
		}
	}
}

// sameBits compares two value columns bit for bit, any NaN matching any
// other: a NaN's payload is the one thing the fold does not pin.
func sameBits(a, b []uint64) bool {
	return slices.EqualFunc(a, b, func(x, y uint64) bool {
		fx, fy := math.Float64frombits(x), math.Float64frombits(y)
		return x == y || fx != fx && fy != fy
	})
}

// diff says where two runs of a case part, or "" when they do not.
func (r *ownedRun) diff(w *ownedRun) string {
	for o, c := range r.sink.Cols {
		d := w.sink.Cols[o]
		switch {
		case !sameBits(c.inter, d.inter):
			return fmt.Sprintf("column %d holds %v, want %v", o, c.inter, d.inter)
		case !slices.Equal(c.dirty, d.dirty):
			return fmt.Sprintf("column %d's bits are %b, want %b", o, c.dirty, d.dirty)
		case !slices.Equal(c.staged, d.staged):
			return fmt.Sprintf("column %d stages %v, want %v", o, c.staged, d.staged)
		}
	}
	if !slices.Equal(r.sink.Counts, w.sink.Counts) {
		return fmt.Sprintf("counts %v, want %v", r.sink.Counts, w.sink.Counts)
	}
	if !slices.EqualFunc(r.flushes, w.flushes, func(a, b flushed) bool {
		return a.edge == b.edge && a.owner == b.owner && sameBits(a.taken, b.taken)
	}) {
		return fmt.Sprintf("flushes %v, want %v", r.flushes, w.flushes)
	}
	return ""
}

// checkOwned folds the case's rows through Sink.Fold and through the
// per-edge oracle and requires the same columns, bits, staged order,
// counts and flushes after every row. Between rows the shard is drained,
// as the next pass would.
func checkOwned(t *testing.T, c ownedCase) {
	t.Helper()
	got, want := newOwnedRun(c), newOwnedRun(c)
	base := 0
	for i, row := range c.rows {
		got.fold(row, base)
		want.perEdge(row, base)
		if d := got.diff(want); d != "" {
			t.Fatalf("%v, %v row %d of %d (%d workers, self %d, limits %v, urgent %v): %s",
				c.kind, row.form, i, len(c.rows), c.workers, c.self, c.limits, c.urgent, d)
		}
		base += len(row.targets)
		if i%2 == 1 {
			got.shard.DrainOwned(func(int64, float64) {})
			want.shard.DrainOwned(func(int64, float64) {})
		}
	}
}

// ownedSpecials are the values a fold can get wrong: signed zeros, a NaN,
// infinities — a selective aggregate's identity among them — and values
// that cancel.
var ownedSpecials = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1, 0.5, 1e300}

// TestOwnedRowMatchesPerEdge: every form of row, under every aggregate,
// into the shard's own column and into mirrors, folds through Sink.Fold
// to what the per-edge sink it replaced leaves — the same Intermediate
// bits, dirty words and staged order, the same β counts, and a flush
// after the same edge of each owner, with limits that trip mid-row and
// urgency off and on.
func TestOwnedRowMatchesPerEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	value := func() float64 {
		if rng.Intn(6) == 0 {
			return ownedSpecials[rng.Intn(len(ownedSpecials))]
		}
		return math.Round(rng.NormFloat64()*8) / 4 // repeats, so folds meet non-improving values
	}
	for _, kind := range []agg.Kind{agg.Sum, agg.Count, agg.Min, agg.Max} {
		for _, form := range []Form{Given, Const, AddW, MulW} {
			for trial := 0; trial < 40; trial++ {
				c := ownedCase{kind: kind, n: 1 + rng.Intn(200), workers: 1 + rng.Intn(4), urgent: math.NaN()}
				c.self = rng.Intn(c.workers)
				for range c.workers {
					c.limits = append(c.limits, []int{1, 2, 3, 7, 4096}[rng.Intn(5)])
				}
				if trial%3 == 0 {
					c.urgent = []float64{0, 0.5, 2, math.Inf(1)}[rng.Intn(4)]
				}
				for range 1 + rng.Intn(6) {
					row := ownedRow{form: form, x: value()}
					for range rng.Intn(300) {
						row.targets = append(row.targets, int32(rng.Intn(c.n)))
						row.per = append(row.per, value())
					}
					c.rows = append(c.rows, row)
				}
				checkOwned(t, c)
			}
		}
	}
}

// FuzzOwnedRow is TestOwnedRowMatchesPerEdge over rows the fuzzer spells
// out: the form, the aggregate, the fleet, a target a byte, an edge's
// weight or value eight bytes (cycled along the row), the scalar, one
// limit for every owner and the urgency threshold. Each row is folded
// twice, the second time into the slots the first left dirty. The seed
// corpus is testdata/fuzz/FuzzOwnedRow.
func FuzzOwnedRow(f *testing.F) {
	f.Fuzz(func(t *testing.T, form, kind, fleet uint8, targets, per []byte, x float64, limit uint8, urgent float64) {
		const n = 64
		c := ownedCase{
			kind: []agg.Kind{agg.Sum, agg.Count, agg.Min, agg.Max}[kind%4],
			n:    n, workers: 1 + int(fleet%4), urgent: urgent,
		}
		c.self = int(fleet/4) % c.workers
		for range c.workers {
			c.limits = append(c.limits, 1+int(limit))
		}
		row := ownedRow{form: Form(form % 4), x: x}
		var vals []float64
		for ; len(per) >= 8; per = per[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(per)))
		}
		for i, b := range targets[:min(len(targets), 512)] {
			row.targets = append(row.targets, int32(b)%n)
			if len(vals) == 0 {
				row.per = append(row.per, float64(i))
			} else {
				row.per = append(row.per, vals[i%len(vals)])
			}
		}
		c.rows = []ownedRow{row, row}
		checkOwned(t, c)
	})
}
