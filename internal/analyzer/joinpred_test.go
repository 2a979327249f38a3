package analyzer

import (
	"testing"

	"powerlog/internal/parser"
	"powerlog/internal/progs"
)

func TestJoinPredicateCatalogue(t *testing.T) {
	want := map[string]string{
		progs.SSSP:       "edge",
		progs.CC:         "edge",
		progs.PageRank:   "edge",
		progs.Adsorption: "A",
		progs.Katz:       "edge",
		progs.BP:         "E",
		progs.PathsDAG:   "dagedge",
		progs.Cost:       "dagedge",
		progs.Viterbi:    "trans",
		progs.SimRank:    "pairedge",
		progs.LCA:        "parent",
		progs.APSP:       "edge",
	}
	for src, wantName := range want {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		info, err := Analyze(prog)
		if err != nil {
			t.Fatal(err)
		}
		if info.Facts.Shape == nil {
			t.Errorf("%s: %s", info.HeadName, info.Facts.ShapeErr)
			continue
		}
		if got := info.Facts.Shape.Join.Name; got != wantName {
			t.Errorf("%s: join predicate = %q, want %q", info.HeadName, got, wantName)
		}
	}
}

func TestJoinPredicateMissing(t *testing.T) {
	// Head key Y is never joined: the only aux pred binds X only.
	prog, err := parser.Parse(`
a(X,v) :- X=0, v=0.
a(Y,min[v1]) :- a(X,v), attr(X,q), v1 = v + q, Y = 1.
`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Analyze(prog)
	if err != nil {
		t.Skip("analysis already rejects this shape") // either outcome is fine
	}
	if info.Facts.Shape != nil || info.Facts.ShapeErr == "" {
		t.Error("expected join-predicate detection to fail")
	}
}
