package edb

import (
	"errors"
	"sort"
	"testing"

	"powerlog/internal/ast"
	"powerlog/internal/expr"
	"powerlog/internal/graph"
	"powerlog/internal/parser"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	edges := NewRelation("e", 3)
	edges.Add(0, 1, 5)
	edges.Add(0, 2, 3)
	edges.Add(1, 2, 1)
	edges.Add(2, 0, 7)
	db.AddRelation(edges)
	attr := NewRelation("attr", 2)
	attr.Add(0, 10)
	attr.Add(1, 20)
	attr.Add(2, 30)
	db.AddRelation(attr)
	return db
}

// evalBody prepares atoms and runs them once.
func evalBody(db *DB, atoms []*ast.Atom, emit func([]float64) error) error {
	b, err := db.Prepare(atoms)
	if err != nil {
		return err
	}
	return b.Run(emit)
}

// evalRule parses "h(...) :- body." and evaluates the body, returning all
// binding environments projected onto the given variables.
func evalRule(t *testing.T, db *DB, src string, vars ...string) [][]float64 {
	t.Helper()
	r, err := parser.ParseRule(src)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]float64
	b, err := db.Prepare(r.Bodies[0].Atoms)
	if err != nil {
		t.Fatal(err)
	}
	err = b.Run(func(frame []float64) error {
		row := make([]float64, len(vars))
		for i, v := range vars {
			read, err := b.Compile(expr.Var(v))
			if err != nil {
				t.Fatal(err)
			}
			row[i] = read(frame)
		}
		out = append(out, row)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

func TestRelationBasics(t *testing.T) {
	r := NewRelation("r", 2)
	r.Add(1, 10)
	r.Add(2, 20)
	r.Add(1, 11)
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
	if got := r.Row(1); got[0] != 2 || got[1] != 20 {
		t.Errorf("row 1 = %v", got)
	}
	rows := r.rowsWithFirst(1)
	if len(rows) != 2 {
		t.Errorf("index lookup = %v", rows)
	}
	// Add invalidates the index.
	r.Add(1, 12)
	if len(r.rowsWithFirst(1)) != 3 {
		t.Error("index not rebuilt after Add")
	}
}

func TestRelationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch should panic")
		}
	}()
	NewRelation("r", 2).Add(1)
}

func TestEvalSimpleScan(t *testing.T) {
	db := testDB(t)
	got := evalRule(t, db, "h(X) :- e(X,Y,W).", "X", "Y", "W")
	if len(got) != 4 {
		t.Fatalf("rows = %v", got)
	}
	if got[0][0] != 0 || got[0][1] != 1 || got[0][2] != 5 {
		t.Errorf("first row = %v", got[0])
	}
}

func TestEvalJoin(t *testing.T) {
	db := testDB(t)
	// Join edges with destination attribute.
	got := evalRule(t, db, "h(X) :- e(X,Y,W), attr(Y,A).", "X", "Y", "A")
	if len(got) != 4 {
		t.Fatalf("rows = %v", got)
	}
	for _, row := range got {
		want := (row[1] + 1) * 10
		if row[2] != want {
			t.Errorf("attr(%v) = %v, want %v", row[1], row[2], want)
		}
	}
}

func TestEvalConstantFilter(t *testing.T) {
	db := testDB(t)
	got := evalRule(t, db, "h(Y) :- e(0,Y,W).", "Y")
	if len(got) != 2 || got[0][0] != 1 || got[1][0] != 2 {
		t.Fatalf("rows = %v", got)
	}
}

func TestEvalComparisonBindAndFilter(t *testing.T) {
	db := testDB(t)
	// X=0 binds before scanning (index-accelerated); d doubles the weight.
	got := evalRule(t, db, "h(Y) :- X = 0, e(X,Y,W), d = W * 2, d > 6.", "Y", "d")
	if len(got) != 1 || got[0][0] != 1 || got[0][1] != 10 {
		t.Fatalf("rows = %v", got)
	}
}

func TestEvalSharedVariableJoin(t *testing.T) {
	db := testDB(t)
	// Two-hop paths: e(X,Y), e(Y,Z).
	got := evalRule(t, db, "h(X) :- e(X,Y,W1), e(Y,Z,W2).", "X", "Y", "Z")
	want := [][]float64{{0, 1, 2}, {0, 2, 0}, {1, 2, 0}, {2, 0, 1}, {2, 0, 2}}
	if len(got) != len(want) {
		t.Fatalf("rows = %v", got)
	}
	for i := range want {
		for k := range want[i] {
			if got[i][k] != want[i][k] {
				t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
}

func TestEvalWildcard(t *testing.T) {
	db := testDB(t)
	got := evalRule(t, db, "h(X) :- e(X,_,_).", "X")
	if len(got) != 4 {
		t.Fatalf("rows = %v", got)
	}
}

func TestEvalRepeatedVariable(t *testing.T) {
	db := NewDB()
	r := NewRelation("p", 2)
	r.Add(1, 1)
	r.Add(1, 2)
	r.Add(3, 3)
	db.AddRelation(r)
	got := evalRule(t, db, "h(X) :- p(X,X).", "X")
	if len(got) != 2 || got[0][0] != 1 || got[1][0] != 3 {
		t.Fatalf("rows = %v", got)
	}
}

func TestEvalErrors(t *testing.T) {
	db := testDB(t)
	r, err := parser.ParseRule("h(X) :- nosuch(X).")
	if err != nil {
		t.Fatal(err)
	}
	if err := evalBody(db, r.Bodies[0].Atoms, func([]float64) error { return nil }); err == nil {
		t.Error("missing relation should error")
	}
	// Unbindable comparison.
	r, err = parser.ParseRule("h(X) :- q > 3.")
	if err != nil {
		t.Fatal(err)
	}
	if err := evalBody(db, r.Bodies[0].Atoms, func([]float64) error { return nil }); err == nil {
		t.Error("unbound comparison should error")
	}
	// Arity overflow.
	r, err = parser.ParseRule("h(X) :- attr(X,A,B).")
	if err != nil {
		t.Fatal(err)
	}
	if err := evalBody(db, r.Bodies[0].Atoms, func([]float64) error { return nil }); err == nil {
		t.Error("arity overflow should error")
	}
}

func TestGraphView(t *testing.T) {
	db := NewDB()
	g, err := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1, W: 2}, {Src: 1, Dst: 2, W: 4}}, true)
	if err != nil {
		t.Fatal(err)
	}
	db.SetGraph("edge", g)
	if !db.HasPred("edge") || db.HasPred("nope") {
		t.Error("HasPred wrong")
	}
	got := evalRule(t, db, "h(X) :- edge(X,Y,W).", "X", "Y", "W")
	if len(got) != 2 || got[0][2] != 2 || got[1][2] != 4 {
		t.Fatalf("rows = %v", got)
	}
	// Lower-arity use of the same graph relation.
	got = evalRule(t, db, "h(X) :- edge(X,Y).", "X", "Y")
	if len(got) != 2 {
		t.Fatalf("rows = %v", got)
	}
	if gg, ok := db.Graph("edge"); !ok || gg != g {
		t.Error("Graph lookup failed")
	}
}

// TestBodyReadsGraphInPlace: a graph predicate is scanned from the CSR —
// one row when its first argument is determined, none for a value that
// names no vertex — and one prepared body follows an in-place mutation
// and a relation replaced between runs.
func TestBodyReadsGraphInPlace(t *testing.T) {
	db := NewDB()
	g, err := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1, W: 2}, {Src: 1, Dst: 2, W: 4}, {Src: 1, Dst: 3, W: 6}}, true)
	if err != nil {
		t.Fatal(err)
	}
	db.SetGraph("edge", g)
	if _, ok := db.Relation("edge"); ok {
		t.Error("a graph must not be materialised as a relation")
	}
	for src, want := range map[string]int{
		"h(Y) :- edge(1,Y,W).":              2,
		"h(Y) :- X = 1, edge(X,Y,W).":       2,
		"h(Y) :- X = 0 * (0-1), edge(X,Y).": 1, // -0 is vertex 0
		"h(Y) :- X = 0.5, edge(X,Y).":       0,
		"h(Y) :- X = 4, edge(X,Y).":         0,
		"h(Y) :- X = 0 - 1, edge(X,Y).":     0,
		"h(Y) :- X = 1, edge(X,Y,W), W>4.":  1,
		"h(Y) :- edge(X,Y,6).":              1,
		"h(X) :- edge(X,X).":                0,
	} {
		if got := evalRule(t, db, src, "Y"); len(got) != want {
			t.Errorf("%s: %d rows, want %d", src, len(got), want)
		}
	}

	seed := NewRelation("seed", 1)
	seed.Add(1)
	db.AddRelation(seed)
	r, err := parser.ParseRule("h(Y) :- seed(X), edge(X,Y).")
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Prepare(r.Bodies[0].Atoms)
	if err != nil {
		t.Fatal(err)
	}
	count := func() (n int) {
		if err := b.Run(func([]float64) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := count(); n != 2 {
		t.Fatalf("%d rows, want 2", n)
	}
	if _, err := db.MutateGraph("edge", []graph.Edge{{Src: 1, Dst: 0, W: 1}, {Src: 0, Dst: 3, W: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 3 {
		t.Fatalf("after the insert: %d rows, want 3", n)
	}
	seed = NewRelation("seed", 1)
	seed.Add(0)
	seed.Add(1)
	db.AddRelation(seed)
	if n := count(); n != 5 {
		t.Fatalf("after replacing seed: %d rows, want 5", n)
	}
}

func TestVertexColumn(t *testing.T) {
	db := testDB(t)
	col, err := db.VertexColumn("attr", 5, -1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 20, 30, -1, -1}
	for i := range want {
		if col[i] != want[i] {
			t.Fatalf("col = %v", col)
		}
	}
	if _, err := db.VertexColumn("nosuch", 5, 0); err == nil {
		t.Error("missing relation should error")
	}
}

func TestEvalEmitError(t *testing.T) {
	db := testDB(t)
	r, err := parser.ParseRule("h(X) :- e(X,Y,W).")
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	errStop := &stopErr{}
	err = evalBody(db, r.Bodies[0].Atoms, func([]float64) error {
		calls++
		return errStop
	})
	if !errors.Is(err, errStop) {
		t.Errorf("emit error should propagate, got %v", err)
	}
	if calls != 1 {
		t.Errorf("evaluation should stop at first error, got %d calls", calls)
	}
}

type stopErr struct{}

func (*stopErr) Error() string { return "stop" }
