package edb

import (
	"errors"
	"slices"
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

// TestRange: a range reads as the relation of the rows 0…n−1 — in order,
// by Len and Row, by a lookup on its first column (none outside [0,n)
// or off the integers), through a Clone — and takes no Add.
func TestRange(t *testing.T) {
	db := NewDB()
	db.AddRelation(NewRange("node", 4))
	r, ok := db.Clone().Relation("node")
	if !ok || r.Len() != 4 || r.Arity != 1 {
		t.Fatalf("cloned range: %v, %v", r, ok)
	}
	for i := 0; i < r.Len(); i++ {
		if row := r.Row(i); len(row) != 1 || row[0] != float64(i) {
			t.Errorf("row %d = %v", i, row)
		}
	}
	var order []float64
	if err := evalBody(db, mustRule(t, "h(X) :- node(X).").Bodies[0].Atoms, func(f []float64) error {
		order = append(order, f[0])
		return nil
	}); err != nil || !slices.Equal(order, []float64{0, 1, 2, 3}) {
		t.Errorf("scan order %v (%v), want 0 1 2 3", order, err)
	}
	for src, want := range map[string]int{
		"h(X) :- node(2).":                 1,
		"h(X) :- node(0).":                 1,
		"h(X) :- node(3).":                 1,
		"h(X) :- node(4).":                 0,
		"h(X) :- node(0-1).":               0,
		"h(X) :- X = 1.5, node(X).":        0,
		"h(X) :- X = 0 * (0-1), node(X).":  1, // -0 is row 0
		"h(X) :- X = 3, node(X).":          1,
		"h(X) :- node(X), Y = X, node(Y).": 4,
		"h(X) :- node(X), X > 1.":          2,
	} {
		n := 0
		if err := evalBody(db, mustRule(t, src).Bodies[0].Atoms, func([]float64) error { n++; return nil }); err != nil || n != want {
			t.Errorf("%s: %d rows (%v), want %d", src, n, err, want)
		}
	}
	if _, err := db.VertexColumn("node", 4, 0); err == nil {
		t.Error("a range is no vertex column")
	}
	defer func() {
		if recover() == nil {
			t.Error("Add to a range should panic")
		}
	}()
	r.Add(9)
}

// TestRows: a body that ends in a graph atom whose target and weight
// columns only bind hands its CSR rows over whole, in CSR order, the
// source bound in the frame; any other body is refused.
func TestRows(t *testing.T) {
	db := NewDB()
	g, err := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1, W: 2}, {Src: 2, Dst: 3, W: 4}, {Src: 2, Dst: 0, W: 6}}, true)
	if err != nil {
		t.Fatal(err)
	}
	db.SetGraph("edge", g)
	db.AddRelation(NewRange("node", 4))
	for src, want := range map[string][3]string{
		"h(X) :- edge(X,Y,w).":          {"X", "Y", "w"},
		"h(X) :- edge(X,Y).":            {"X", "Y", ""},
		"h(X) :- edge(X,_,w).":          {"X", "", "w"},
		"h(X) :- node(X), edge(X,Y,w).": {"X", "Y", "w"},
		"h(X) :- X = 2, edge(X,Y).":     {"X", "Y", ""},
	} {
		b, err := db.Prepare(mustRule(t, src).Bodies[0].Atoms)
		if err != nil {
			t.Fatal(err)
		}
		s, d, w, ok := b.RowScan()
		if !ok || [3]string{s, d, w} != want {
			t.Errorf("%s: RowScan = %q %q %q %v, want %q", src, s, d, w, ok, want)
			continue
		}
		key, _ := b.Compile(expr.Var("X"))
		var got []float64
		if err := b.Rows(func(f []float64, targets []int32, weights []float64) error {
			got = append(got, key(f), float64(len(targets)))
			for k, t := range targets {
				got = append(got, float64(t), weights[k])
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		all := []float64{0, 1, 1, 2, 2, 2, 3, 4, 0, 6}
		if src == "h(X) :- X = 2, edge(X,Y)." {
			all = all[4:]
		}
		if !slices.Equal(got, all) {
			t.Errorf("%s: rows %v, want %v", src, got, all)
		}
	}
	for _, src := range []string{
		"h(X) :- edge(X,Y,w), w > 2.",
		"h(X) :- edge(X,X,w).",
		"h(X) :- edge(X,Y,Y).",
		"h(X) :- edge(X,1,w).",
		"h(X) :- edge(0,Y,w).",
		"h(X) :- edge(X,Y,w), node(Y).",
		"h(X) :- node(X).",
	} {
		b, err := db.Prepare(mustRule(t, src).Bodies[0].Atoms)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, ok := b.RowScan(); ok {
			t.Errorf("%s: RowScan accepts it", src)
		}
		if err := b.Rows(func([]float64, []int32, []float64) error { return nil }); err == nil {
			t.Errorf("%s: Rows runs it", src)
		}
	}
}

func mustRule(t *testing.T, src string) *ast.Rule {
	t.Helper()
	r, err := parser.ParseRule(src)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
