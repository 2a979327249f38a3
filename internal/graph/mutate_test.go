package graph

import (
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

func TestApplyEdgeMutationsDeleteRemovesAllParallel(t *testing.T) {
	g := mutGraph(t)
	if err := g.ApplyEdgeMutations(nil, []Edge{{Src: 0, Dst: 1}}); err != nil {
		t.Fatal(err)
	}
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
	err := g.ApplyEdgeMutations([]Edge{{Src: 0, Dst: 1, W: 9}, {Src: 3, Dst: 4, W: 5}},
		[]Edge{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
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
		if err := g.ApplyEdgeMutations(bad[0], bad[1]); err == nil {
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
	if err := g.ApplyEdgeMutations([]Edge{{Src: 1, Dst: 2, W: 99}}, nil); err != nil {
		t.Fatal(err)
	}
	if g.Weighted() {
		t.Fatal("mutation made an unweighted graph weighted")
	}
	if lo, _ := g.EdgeRange(1); g.Weight(lo) != 1 {
		t.Fatalf("unweighted weight = %v, want 1", g.Weight(0))
	}
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
// replaced: element for element the arrays FromEdges builds from the
// surviving edges followed by the inserts.
func TestSpliceMatchesFromEdges(t *testing.T) {
	check := func(c spliceCase) bool {
		g, err := FromEdges(c.n, c.edges, c.weighted)
		if err != nil {
			t.Fatal(err)
		}
		ins, del := slices.Clone(c.ins), slices.Clone(c.del)
		var kept []Edge
		for _, e := range g.Edges() {
			if !slices.ContainsFunc(c.del, func(d Edge) bool { return d.Src == e.Src && d.Dst == e.Dst }) {
				kept = append(kept, e)
			}
		}
		want, err := FromEdges(c.n, append(kept, c.ins...), c.weighted)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.ApplyEdgeMutations(c.ins, c.del); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(c.ins, ins) || !slices.Equal(c.del, del) {
			t.Errorf("the batch was reordered: %v %v", c.ins, c.del)
			return false
		}
		return slices.Equal(g.offsets, want.offsets) && slices.Equal(g.targets, want.targets) &&
			slices.Equal(g.weights, want.weights) && (g.weights == nil) == (want.weights == nil)
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
		if err := g.ApplyEdgeMutations(nil, del); err != nil {
			t.Fatal(err)
		}
		if &g.targets[0] != &targets[0] || g.NumEdges() != 4 {
			t.Fatalf("deletes %v rebuilt the graph", del)
		}
	}
}

// TestSpliceInPlaceBatchAfterBatch: a graph a session mutates batch after
// batch is spliced where it lies — the arrays are reallocated only when
// inserts outgrow them — and still matches a rebuild after every batch.
func TestSpliceInPlaceBatchAfterBatch(t *testing.T) {
	const n = 40
	r := rand.New(rand.NewSource(5))
	edge := func() Edge { return Edge{Src: int32(r.Intn(n)), Dst: int32(r.Intn(n)), W: float64(1 + r.Intn(9))} }
	var edges []Edge
	for i := 0; i < 200; i++ {
		edges = append(edges, edge())
	}
	g, err := FromEdges(n, edges, true)
	if err != nil {
		t.Fatal(err)
	}
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
		kept := slices.DeleteFunc(slices.Clone(cur), func(e Edge) bool {
			return slices.ContainsFunc(del, func(d Edge) bool { return d.Src == e.Src && d.Dst == e.Dst })
		})
		want, err := FromEdges(n, append(kept, ins...), true)
		if err != nil {
			t.Fatal(err)
		}
		before, room := &g.targets[:1][0], cap(g.targets)
		if err := g.ApplyEdgeMutations(ins, del); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(g.offsets, want.offsets) || !slices.Equal(g.targets, want.targets) || !slices.Equal(g.weights, want.weights) {
			t.Fatalf("batch %d (+%d -%d): in-place splice differs from a rebuild", batch, len(ins), len(del))
		}
		if &g.targets[:1][0] != before {
			if len(g.targets) <= room {
				t.Fatalf("batch %d reallocated %d edges although %d fit", batch, len(g.targets), room)
			}
			moved++
		}
	}
	if moved > 8 {
		t.Fatalf("the arrays were reallocated %d times in 200 small batches", moved)
	}
}
