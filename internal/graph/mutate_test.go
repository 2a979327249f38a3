package graph

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func mutGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(5, []Edge{
		{Src: 0, Dst: 1, W: 1},
		{Src: 0, Dst: 1, W: 2}, // parallel edge
		{Src: 1, Dst: 2, W: 3},
		{Src: 2, Dst: 3, W: 4},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// apply is ApplyEdgeMutations for a batch that must be accepted.
func apply(t *testing.T, g *Graph, ins, del []Edge) (moved int) {
	t.Helper()
	moved, err := g.ApplyEdgeMutations(ins, del)
	if err != nil {
		t.Fatal(err)
	}
	return moved
}

func TestApplyEdgeMutationsDeleteRemovesAllParallel(t *testing.T) {
	g := mutGraph(t)
	apply(t, g, nil, []Edge{{Src: 0, Dst: 1}})
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2 (both parallel (0,1) edges gone)", g.NumEdges())
	}
	for _, e := range g.Edges() {
		if e.Src == 0 && e.Dst == 1 {
			t.Fatalf("edge (0,1) survived the delete")
		}
	}
}

func TestApplyEdgeMutationsInsertAfterDelete(t *testing.T) {
	g := mutGraph(t)
	// Deleting and re-inserting the same pair in one batch keeps the
	// insert (deletes are applied first).
	apply(t, g, []Edge{{Src: 0, Dst: 1, W: 9}, {Src: 3, Dst: 4, W: 5}}, []Edge{{Src: 0, Dst: 1}})
	if g.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4", g.NumEdges())
	}
	tg, ws := g.Neighbors(0)
	if len(tg) != 1 || tg[0] != 1 || ws[0] != 9 {
		t.Fatalf("neighbors(0) = %v %v, want the re-inserted (0,1,9)", tg, ws)
	}
	if lo, hi := g.EdgeRange(3); hi-lo != 1 || g.Target(lo) != 4 || g.Weight(lo) != 5 {
		t.Fatalf("inserted edge (3,4,5) missing")
	}
}

func TestApplyEdgeMutationsRejectsOutOfUniverse(t *testing.T) {
	g := mutGraph(t)
	before := g.NumEdges()
	for _, bad := range [][2][]Edge{
		{{{Src: 5, Dst: 0}}, nil},  // insert src out of range
		{{{Src: 0, Dst: -1}}, nil}, // insert dst out of range
		{nil, {{Src: 0, Dst: 7}}},  // delete out of range
	} {
		if _, err := g.ApplyEdgeMutations(bad[0], bad[1]); err == nil {
			t.Fatalf("mutation %v accepted", bad)
		}
		if g.NumEdges() != before {
			t.Fatalf("failed mutation modified the graph")
		}
	}
}

func TestApplyEdgeMutationsUnweighted(t *testing.T) {
	g, err := FromEdges(3, []Edge{{Src: 0, Dst: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	apply(t, g, []Edge{{Src: 1, Dst: 2, W: 99}}, nil)
	if g.Weighted() {
		t.Fatal("mutation made an unweighted graph weighted")
	}
	if lo, _ := g.EdgeRange(1); g.Weight(lo) != 1 {
		t.Fatalf("unweighted weight = %v, want 1", g.Weight(0))
	}
}

// rebuilt is what FromEdges builds from g's edges with the batch applied:
// the surviving edges, then the inserts.
func rebuilt(g *Graph, ins, del []Edge) (*Graph, error) {
	kept := slices.DeleteFunc(g.Edges(), func(e Edge) bool {
		return slices.ContainsFunc(del, func(d Edge) bool { return d.Src == e.Src && d.Dst == e.Dst })
	})
	return FromEdges(g.NumVertices(), append(kept, ins...), g.Weighted())
}

// sameRows reports how g differs from want, a graph FromEdges built: row
// by row the same targets and weight bits, and the same degrees, edge
// count and edge list. No slack slot is compared. It also checks the
// layout's bound: the holes deletes leave are reclaimed, so the slot array
// is at most 9/8·|E| + 2·|V| long, plus the batch just applied.
func sameRows(g, want *Graph, batch int) error {
	if g.n != want.n || g.m != want.m || g.Weighted() != want.Weighted() {
		return fmt.Errorf("|V| %d, |E| %d, weighted %v; want %d, %d, %v", g.n, g.m, g.Weighted(), want.n, want.m, want.Weighted())
	}
	for v := int32(0); v < g.n; v++ {
		ts, ws := g.Neighbors(v)
		wts, wws := want.Neighbors(v)
		if g.OutDegree(v) != want.OutDegree(v) || !slices.Equal(ts, wts) || !slices.Equal(weightBits(ws), weightBits(wws)) {
			return fmt.Errorf("row %d = %v %v, want %v %v", v, ts, ws, wts, wws)
		}
	}
	sameEdge := func(a, b Edge) bool {
		return a.Src == b.Src && a.Dst == b.Dst && math.Float64bits(a.W) == math.Float64bits(b.W)
	}
	if !slices.EqualFunc(g.Edges(), want.Edges(), sameEdge) {
		return fmt.Errorf("Edges() = %v, want %v", g.Edges(), want.Edges())
	}
	slots := len(g.targets)
	if int(g.offsets[g.n]) != slots || g.weights != nil && len(g.weights) != slots {
		return fmt.Errorf("%d slots, %d weights, offsets end at %d", slots, len(g.weights), g.offsets[g.n])
	}
	if 8*slots > 9*g.m+16*int(g.n)+8*batch {
		return fmt.Errorf("%d slots for %d edges over %d vertices after a batch of %d", slots, g.m, g.n, batch)
	}
	return nil
}

// spliceCase is one random graph and batch for TestSpliceMatchesFromEdges.
type spliceCase struct {
	n        int
	weighted bool
	edges    []Edge
	ins, del []Edge
}

func (spliceCase) Generate(r *rand.Rand, _ int) reflect.Value {
	c := spliceCase{n: 1 + r.Intn(12), weighted: r.Intn(4) > 0}
	vertex := func() int32 {
		switch r.Intn(4) { // lean on the first and last row
		case 0:
			return 0
		case 1:
			return int32(c.n - 1)
		}
		return int32(r.Intn(c.n))
	}
	edge := func() Edge { return Edge{Src: vertex(), Dst: vertex(), W: float64(1 + r.Intn(9))} }
	for i := r.Intn(40); i > 0; i-- {
		c.edges = append(c.edges, edge())
		if r.Intn(4) == 0 { // parallel edge, other weight
			e := c.edges[len(c.edges)-1]
			c.edges = append(c.edges, Edge{Src: e.Src, Dst: e.Dst, W: e.W + 1})
		}
	}
	if r.Intn(6) == 0 {
		return reflect.ValueOf(c) // empty batch
	}
	for i := r.Intn(6); i > 0; i-- {
		if len(c.edges) > 0 && r.Intn(3) > 0 {
			e := c.edges[r.Intn(len(c.edges))]
			c.del = append(c.del, Edge{Src: e.Src, Dst: e.Dst})
		} else {
			c.del = append(c.del, edge()) // probably absent
		}
	}
	for i := r.Intn(6); i > 0; i-- {
		if len(c.del) > 0 && r.Intn(3) == 0 { // insert after delete of the same pair
			d := c.del[r.Intn(len(c.del))]
			c.ins = append(c.ins, Edge{Src: d.Src, Dst: d.Dst, W: 7})
		} else {
			c.ins = append(c.ins, edge())
		}
	}
	return reflect.ValueOf(c)
}

// TestSpliceMatchesFromEdges pins the row splice to the rebuild it
// replaced: row for row the graph FromEdges builds from the surviving
// edges followed by the inserts. The batch is applied twice — to the
// graph FromEdges built, which has no slack, and again to the graph the
// first splice left, whose rows have some.
func TestSpliceMatchesFromEdges(t *testing.T) {
	check := func(c spliceCase) bool {
		g, err := FromEdges(c.n, c.edges, c.weighted)
		if err != nil {
			t.Fatal(err)
		}
		ins, del := slices.Clone(c.ins), slices.Clone(c.del)
		for pass := 0; pass < 2; pass++ {
			want, err := rebuilt(g, c.ins, c.del)
			if err != nil {
				t.Fatal(err)
			}
			apply(t, g, c.ins, c.del)
			if !slices.Equal(c.ins, ins) || !slices.Equal(c.del, del) {
				t.Errorf("the batch was reordered: %v %v", c.ins, c.del)
				return false
			}
			if err := sameRows(g, want, len(ins)+len(del)); err != nil {
				t.Errorf("pass %d of %+v: %v", pass, c, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(16))}); err != nil {
		t.Fatal(err)
	}
}

// TestSpliceNoTouchedRowCopiesNothing: an empty batch, or deletes naming
// absent edges only, leave the arrays themselves in place.
func TestSpliceNoTouchedRowCopiesNothing(t *testing.T) {
	g := mutGraph(t)
	targets := g.targets
	for _, del := range [][]Edge{nil, {{Src: 3, Dst: 0}, {Src: 0, Dst: 4}}} {
		if moved := apply(t, g, nil, del); moved != 0 || &g.targets[0] != &targets[0] || g.NumEdges() != 4 {
			t.Fatalf("deletes %v moved %d edges or rebuilt the graph", del, moved)
		}
	}
}

// TestSpliceInPlaceBatchAfterBatch: a graph a session mutates batch after
// batch is spliced where it lies — the arrays are reallocated only when
// they have to grow — and still matches a rebuild after every batch.
func TestSpliceInPlaceBatchAfterBatch(t *testing.T) {
	const n = 40
	r := rand.New(rand.NewSource(5))
	edge := func() Edge { return Edge{Src: int32(r.Intn(n)), Dst: int32(r.Intn(n)), W: float64(1 + r.Intn(9))} }
	var edges []Edge
	for i := 0; i < 200; i++ {
		edges = append(edges, edge())
	}
	g := mustGraph(t, n, edges, true)
	moved := 0
	for batch := 0; batch < 200; batch++ {
		cur := g.Edges()
		ins := make([]Edge, r.Intn(5))
		for i := range ins {
			ins[i] = edge()
		}
		del := make([]Edge, r.Intn(4))
		for i := range del {
			del[i] = cur[r.Intn(len(cur))]
		}
		want, err := rebuilt(g, ins, del)
		if err != nil {
			t.Fatal(err)
		}
		before, room := &g.targets[:1][0], cap(g.targets)
		apply(t, g, ins, del)
		if err := sameRows(g, want, len(ins)+len(del)); err != nil {
			t.Fatalf("batch %d (+%d -%d): %v", batch, len(ins), len(del), err)
		}
		if &g.targets[:1][0] != before {
			if len(g.targets) <= room {
				t.Fatalf("batch %d reallocated %d slots although %d fit", batch, len(g.targets), room)
			}
			moved++
		}
	}
	if moved > 8 {
		t.Fatalf("the arrays were reallocated %d times in 200 small batches", moved)
	}
}

// laidOut is a graph of n vertices, each with an edge to the next four,
// after a first insert has given every row slack.
func laidOut(t *testing.T, n int) *Graph {
	t.Helper()
	var edges []Edge
	for v := 0; v < n; v++ {
		for d := 1; d <= 4; d++ {
			edges = append(edges, Edge{Src: int32(v), Dst: int32((v + d) % n), W: float64(d)})
		}
	}
	g := mustGraph(t, n, edges, true)
	if moved := apply(t, g, []Edge{{Src: 0, Dst: 9, W: 1}}, nil); moved < g.NumEdges()-10 {
		t.Fatalf("the first insert moved %d edges: no relayout", moved)
	}
	return g
}

// TestSpliceReclaimsHoles: a stream that only deletes leaves holes no
// insert fills; the slot array still stays within its bound of the live
// edges, so a long-lived session cannot drift.
func TestSpliceReclaimsHoles(t *testing.T) {
	g := laidOut(t, 1<<10)
	slots := len(g.targets)
	for d := int32(1); d <= 3; d++ {
		for lo := int32(0); lo < 1<<10; lo += 64 {
			var del []Edge
			for v := lo; v < lo+64; v++ {
				del = append(del, Edge{Src: v, Dst: (v + d) % (1 << 10)})
			}
			want, err := rebuilt(g, nil, del)
			if err != nil {
				t.Fatal(err)
			}
			apply(t, g, nil, del)
			if err := sameRows(g, want, len(del)); err != nil {
				t.Fatalf("deleting +%d from rows %d..%d: %v", d, lo, lo+63, err)
			}
		}
	}
	if len(g.targets) >= slots {
		t.Fatalf("%d slots for %d edges, %d before three quarters were deleted", len(g.targets), g.NumEdges(), slots)
	}
}

// fittingBatch inserts one edge into each of rows 100..139 and deletes
// one edge of every other one: every row has room.
func fittingBatch() (ins, del []Edge) {
	for v := int32(100); v < 140; v++ {
		ins = append(ins, Edge{Src: v, Dst: v + 9, W: 2})
		if v%2 == 0 {
			del = append(del, Edge{Src: v, Dst: v + 2})
		}
	}
	return ins, del
}

// TestSpliceFittingBatchStaysInItsRows: a batch whose rows have room
// writes no slot outside those rows and moves none of their boundaries.
func TestSpliceFittingBatchStaysInItsRows(t *testing.T) {
	g := laidOut(t, 1<<10)
	targets, weights := slices.Clone(g.targets), slices.Clone(g.weights)
	offsets, ends := slices.Clone(g.offsets), slices.Clone(g.ends)
	ins, del := fittingBatch()
	want, err := rebuilt(g, ins, del)
	if err != nil {
		t.Fatal(err)
	}
	moved := apply(t, g, ins, del)
	if err := sameRows(g, want, len(ins)+len(del)); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(g.offsets, offsets) {
		t.Fatal("a fitting batch moved row boundaries")
	}
	for v := int32(0); v < g.n; v++ {
		if v >= 100 && v < 140 {
			continue
		}
		lo, hi := offsets[v], offsets[v+1]
		if g.ends[v] != ends[v] || !slices.Equal(g.targets[lo:hi], targets[lo:hi]) || !slices.Equal(g.weights[lo:hi], weights[lo:hi]) {
			t.Fatalf("row %d, outside the batch, changed", v)
		}
	}
	// Each even row moves the two edges behind its deleted one.
	if want := len(ins) + 2*len(del); moved != want {
		t.Fatalf("the batch moved %d edges, want %d", moved, want)
	}
}

// TestSpliceWorkFollowsBatchNotGraph: the same fitting batch moves as
// many edges on 2^16 vertices as on 2^12 — a splice that slid the rows
// after the first one it touched moved sixteen times as many.
func TestSpliceWorkFollowsBatchNotGraph(t *testing.T) {
	var moved [2]int
	for i, scale := range []int{12, 16} {
		g := laidOut(t, 1<<scale)
		ins, del := fittingBatch()
		moved[i] = apply(t, g, ins, del)
	}
	if moved[0] != moved[1] {
		t.Fatalf("a fitting batch moved %d edges at 2^12 vertices, %d at 2^16", moved[0], moved[1])
	}
}

// FuzzApplyEdgeMutations: a graph seeded from one byte string takes the
// batches another spells out, and after each it matches the FromEdges
// rebuild row for row — and so do everything read off it in one sweep:
// WeightStats, InSources, Reverse, OutDegrees and the WriteTSV bytes. Its
// SortedRows copy takes the same batches and after each matches the
// rebuild's SortedRows row for row.
func FuzzApplyEdgeMutations(f *testing.F) {
	f.Add(uint8(4), true, []byte("\x00\x01\x04\x00\x01\x08\x01\x02\xfc\x03\x00\x00"), []byte("\x00\x00\x02\x05\x01\x00\x01\x00\x02\x00\x00\x00\x00\x03\x03\x01"))
	f.Add(uint8(0), false, []byte{}, []byte("\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00"))
	f.Add(uint8(23), true, bytes.Repeat([]byte("\x01\x07\x02\x05\x11\x80"), 30), bytes.Repeat([]byte("\x00\x05\x09\x7f\x01\x01\x07\x00\x02\x00\x00\x00"), 20))
	f.Fuzz(func(t *testing.T, nv uint8, weighted bool, seed, ops []byte) {
		n := 1 + int(nv%24)
		edge := func(b []byte) Edge {
			return Edge{Src: int32(b[0]) % int32(n), Dst: int32(b[1]) % int32(n), W: float64(int8(b[2])) / 4}
		}
		// At most 256 edges and 256 ops: every batch rebuilds the graph to
		// compare, and long inputs would only slow the search down.
		seed, ops = seed[:min(len(seed), 3*256)], ops[:min(len(ops), 4*256)]
		var edges []Edge
		for ; len(seed) >= 3; seed = seed[3:] {
			edges = append(edges, edge(seed))
		}
		g, err := FromEdges(n, edges, weighted)
		if err != nil {
			t.Fatal(err)
		}
		sorted := g.SortedRows()
		var ins, del []Edge
		flush := func() {
			want, err := rebuilt(g, ins, del)
			if err != nil {
				t.Fatal(err)
			}
			apply(t, g, ins, del)
			if err := sameRows(g, want, len(ins)+len(del)); err != nil {
				t.Fatal(err)
			}
			apply(t, sorted, ins, del)
			if err := sameRows(sorted, want.SortedRows(), len(ins)+len(del)); err != nil {
				t.Fatalf("SortedRows: %v", err)
			}
			lo, hi, mean := g.WeightStats()
			wlo, whi, wmean := want.WeightStats()
			if !slices.Equal(weightBits([]float64{lo, hi, mean}), weightBits([]float64{wlo, whi, wmean})) {
				t.Fatalf("WeightStats = %v %v %v, want %v %v %v", lo, hi, mean, wlo, whi, wmean)
			}
			if err := sameRows(g.InSources(), want.InSources(), 0); err != nil {
				t.Fatalf("InSources: %v", err)
			}
			if err := sameRows(g.Reverse(), want.Reverse(), 0); err != nil {
				t.Fatalf("Reverse: %v", err)
			}
			if !slices.Equal(g.OutDegrees(), want.OutDegrees()) {
				t.Fatalf("OutDegrees = %v, want %v", g.OutDegrees(), want.OutDegrees())
			}
			var got, wantTSV bytes.Buffer
			if err := g.WriteTSV(&got); err != nil {
				t.Fatal(err)
			}
			if err := want.WriteTSV(&wantTSV); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), wantTSV.Bytes()) {
				t.Fatalf("WriteTSV:\n%s\nwant\n%s", got.Bytes(), wantTSV.Bytes())
			}
			ins, del = nil, nil
		}
		// Four bytes an op: an insert, a delete or the end of a batch, then
		// the edge it names.
		for ; len(ops) >= 4; ops = ops[4:] {
			switch e := edge(ops[1:]); ops[0] % 3 {
			case 0:
				ins = append(ins, e)
			case 1:
				del = append(del, Edge{Src: e.Src, Dst: e.Dst})
			default:
				flush()
			}
		}
		flush()
	})
}
