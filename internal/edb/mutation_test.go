package edb

import (
	"testing"

	"powerlog/internal/graph"
)

func TestMutateGraph(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 2}}, true)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	db.SetGraph("edge", g)
	if _, err := db.MutateGraph("edge", []graph.Edge{{Src: 2, Dst: 3, W: 5}}, []graph.Edge{{Src: 0, Dst: 1}}); err != nil {
		t.Fatal(err)
	}
	// The registered *Graph is mutated in place: compiled closures that
	// captured it see the new adjacency.
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
	got, ok := db.Graph("edge")
	if !ok || got != g {
		t.Fatal("graph identity changed under mutation")
	}
	if _, err := db.MutateGraph("nope", nil, nil); err == nil {
		t.Fatal("mutating an unregistered graph succeeded")
	}
}
