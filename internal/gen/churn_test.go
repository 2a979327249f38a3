package gen

import (
	"bytes"
	"strings"
	"testing"

	"powerlog/internal/graph"
)

func TestChurnStreamReproducible(t *testing.T) {
	g := Uniform(100, 600, 10, 5)
	a, ea, err := ChurnStream(g, "mixed", 0.01, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, eb, err := ChurnStream(g, "mixed", 0.01, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("batches = %d/%d, want 3", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Inserts) != len(b[i].Inserts) || len(a[i].Deletes) != len(b[i].Deletes) {
			t.Fatalf("batch %d differs across identical seeds", i)
		}
		for j := range a[i].Inserts {
			if a[i].Inserts[j] != b[i].Inserts[j] {
				t.Fatalf("insert %d/%d differs", i, j)
			}
		}
	}
	if len(ea) != len(eb) {
		t.Fatalf("final edge lists differ: %d vs %d", len(ea), len(eb))
	}
	c, _, err := ChurnStream(g, "mixed", 0.01, 3, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := len(c[0].Inserts) == len(a[0].Inserts)
	if same {
		for j := range c[0].Inserts {
			if c[0].Inserts[j] != a[0].Inserts[j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced an identical first batch")
	}
}

func TestChurnStreamComposesToFinalEdges(t *testing.T) {
	g := Uniform(80, 400, 5, 7)
	n := g.NumVertices()
	batches, final, err := ChurnStream(g, "mixed", 0.05, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Applying the batches to a copy of the base graph must land on the
	// returned final edge list.
	mg, err := graph.FromEdges(n, g.Edges(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := mg.ApplyEdgeMutations(b.Inserts, b.Deletes); err != nil {
			t.Fatal(err)
		}
	}
	want, err := graph.FromEdges(n, final, true)
	if err != nil {
		t.Fatal(err)
	}
	if mg.NumEdges() != want.NumEdges() {
		t.Fatalf("edge count after replay = %d, want %d", mg.NumEdges(), want.NumEdges())
	}
	me, we := mg.Edges(), want.Edges()
	for i := range me {
		if me[i] != we[i] {
			t.Fatalf("edge %d: replay %v, final list %v", i, me[i], we[i])
		}
	}
}

func TestChurnStreamKinds(t *testing.T) {
	g := Uniform(50, 300, 0, 3)
	ins, _, err := ChurnStream(g, "insert", 0.02, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range ins {
		if len(b.Deletes) != 0 || len(b.Inserts) == 0 {
			t.Fatal("insert stream contains deletes or no inserts")
		}
	}
	del, finalDel, err := ChurnStream(g, "delete", 0.02, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range del {
		if len(b.Inserts) != 0 || len(b.Deletes) == 0 {
			t.Fatal("delete stream contains inserts or no deletes")
		}
	}
	if len(finalDel) >= g.NumEdges() {
		t.Fatal("delete stream did not shrink the edge list")
	}
	if _, _, err := ChurnStream(g, "bogus", 0.02, 1, 1); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, _, err := ChurnStream(g, "mixed", 0, 1, 1); err == nil {
		t.Fatal("zero fraction accepted")
	}
}

func TestChurnStreamPreservesDAGOrientation(t *testing.T) {
	g := DAG(100, 2, 10, 5, 9)
	batches, final, err := ChurnStream(g, "mixed", 0.05, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		for _, e := range b.Inserts {
			if e.Src >= e.Dst {
				t.Fatalf("insert %v breaks the DAG's id ordering", e)
			}
		}
	}
	for _, e := range final {
		if e.Src >= e.Dst {
			t.Fatalf("final edge %v breaks the DAG's id ordering", e)
		}
	}
}

func TestWriteChurnTSV(t *testing.T) {
	g := Uniform(30, 150, 2, 13)
	batches, _, err := ChurnStream(g, "mixed", 0.05, 2, 19)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChurnTSV(&buf, batches); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "# batch") != 2 {
		t.Fatalf("batch headers missing:\n%s", out)
	}
	if !strings.Contains(out, "+ ") || !strings.Contains(out, "- ") {
		t.Fatalf("expected both insert and delete lines:\n%s", out)
	}
}
