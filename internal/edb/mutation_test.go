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

func TestMutationLog(t *testing.T) {
	var log MutationLog
	if log.Len() != 0 || log.LastEpoch() != 0 {
		t.Fatal("fresh log not empty")
	}
	log.Append(1, GraphMutation{Pred: "edge", Inserts: []graph.Edge{{Src: 0, Dst: 1}}})
	log.Append(2, GraphMutation{Pred: "edge", Deletes: []graph.Edge{{Src: 0, Dst: 1}}})
	log.Append(3, GraphMutation{Pred: "edge"})
	if log.Len() != 3 || log.LastEpoch() != 3 {
		t.Fatalf("Len=%d LastEpoch=%d, want 3 and 3", log.Len(), log.LastEpoch())
	}
	since := log.Since(1)
	if len(since) != 2 || since[0].Epoch != 2 || since[1].Epoch != 3 {
		t.Fatalf("Since(1) = %+v, want epochs 2,3", since)
	}
	if got := log.Since(3); len(got) != 0 {
		t.Fatalf("Since(3) = %+v, want empty", got)
	}
	if got := log.Since(0); len(got) != 3 {
		t.Fatalf("Since(0) returned %d entries, want 3", len(got))
	}
}

// TestMutationLogIsBounded: a session that applies batches for days must
// not keep them all. The log always holds the newest logKeep, never more
// than twice that, says how far back it reaches, and the tail it returns
// from there is complete and in order.
func TestMutationLogIsBounded(t *testing.T) {
	var log MutationLog
	for e := 1; e <= 5*logKeep+7; e++ {
		log.Append(e, GraphMutation{Pred: "edge", Inserts: []graph.Edge{{Src: int32(e), Dst: 1}}})
		if log.Len() < min(e, logKeep) || log.Len() >= 2*logKeep {
			t.Fatalf("after %d appends the log holds %d entries", e, log.Len())
		}
		if e < 2*logKeep && log.Truncated() != 0 {
			t.Fatalf("after %d appends Truncated() = %d, want 0", e, log.Truncated())
		}
	}
	tail := log.Since(log.Truncated())
	if len(tail) != log.Len() || tail[0].Epoch != log.Truncated()+1 {
		t.Fatalf("Since(Truncated()=%d) starts at epoch %d with %d of %d entries",
			log.Truncated(), tail[0].Epoch, len(tail), log.Len())
	}
	for i, en := range tail {
		if en.Epoch != tail[0].Epoch+i || en.Mut.Inserts[0].Src != int32(en.Epoch) {
			t.Fatalf("entry %d of the tail is epoch %d carrying %v", i, en.Epoch, en.Mut.Inserts)
		}
	}
	if log.LastEpoch() != 5*logKeep+7 {
		t.Fatalf("LastEpoch = %d", log.LastEpoch())
	}
}
