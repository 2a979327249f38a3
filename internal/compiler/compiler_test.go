package compiler

import (
	"math"
	"slices"
	"sort"
	"testing"

	"powerlog/internal/analyzer"
	"powerlog/internal/edb"
	"powerlog/internal/graph"
	"powerlog/internal/parser"
	"powerlog/internal/progs"
)

// testGraph: 0→1 (w5), 0→2 (w3), 1→2 (w1), 2→3 (w2).
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1, W: 5}, {Src: 0, Dst: 2, W: 3},
		{Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 3, W: 2},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func compile(t *testing.T, src string, db *edb.DB) *Plan {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := analyzer.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(info, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func collect(p *Plan, key int64, delta float64, full bool) map[int64]float64 {
	out := map[int64]float64{}
	f := p.PropagateInto
	if full {
		f = p.PropagateFullInto
	}
	f(p.NewScratch(), key, delta, func(dst int64, v float64) {
		if cur, ok := out[dst]; ok {
			out[dst] = p.Op.Fold(cur, v)
		} else {
			out[dst] = v
		}
	})
	return out
}

func TestCompileSSSP(t *testing.T) {
	db := edb.NewDB()
	db.SetGraph("edge", testGraph(t))
	p := compile(t, progs.SSSP, db)
	if p.PairKeys || p.N != 4 {
		t.Fatalf("pair=%v n=%d", p.PairKeys, p.N)
	}
	if len(p.InitMRA) != 1 || p.InitMRA[0].K != 0 || p.InitMRA[0].V != 0 {
		t.Fatalf("init = %v", p.InitMRA)
	}
	got := collect(p, 0, 0, false)
	if got[1] != 5 || got[2] != 3 {
		t.Errorf("propagate from source = %v", got)
	}
	got = collect(p, 1, 5, false)
	if got[2] != 6 {
		t.Errorf("propagate from 1 = %v", got)
	}
	if p.Termination.Epsilon != 0 {
		t.Error("SSSP should be a fixpoint program")
	}
}

func TestCompilePageRank(t *testing.T) {
	db := edb.NewDB()
	db.SetGraph("edge", testGraph(t))
	p := compile(t, progs.PageRank, db)
	// Every vertex gets the 0.15 teleport as ΔX¹ (node relation is
	// synthesised over [0,4)).
	if len(p.InitMRA) != 4 {
		t.Fatalf("init = %v", p.InitMRA)
	}
	for _, kv := range p.InitMRA {
		if kv.V != 0.15 {
			t.Errorf("init[%d] = %v", kv.K, kv.V)
		}
	}
	// Vertex 0 has out-degree 2: delta r propagates 0.85*r/2 to 1 and 2.
	got := collect(p, 0, 1, false)
	if math.Abs(got[1]-0.425) > 1e-12 || math.Abs(got[2]-0.425) > 1e-12 {
		t.Errorf("propagate = %v", got)
	}
	if p.Termination.Epsilon != 0.0001 {
		t.Errorf("epsilon = %v", p.Termination.Epsilon)
	}
	// The derived degree relation must exist in the DB.
	if _, ok := db.Relation("degree"); !ok {
		t.Error("degree relation not materialised")
	}
	col, err := db.VertexColumn("degree", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 1, 1, 0}
	for i := range want {
		if col[i] != want[i] {
			t.Errorf("degree = %v", col)
			break
		}
	}
}

func TestCompileCC(t *testing.T) {
	db := edb.NewDB()
	db.SetGraph("edge", testGraph(t))
	p := compile(t, progs.CC, db)
	// Init: every vertex with an out-edge carries its own id.
	initMap := map[int64]float64{}
	for _, kv := range p.InitMRA {
		initMap[kv.K] = kv.V
	}
	for _, v := range []int64{0, 1, 2} {
		if initMap[v] != float64(v) {
			t.Errorf("init[%d] = %v", v, initMap[v])
		}
	}
	if _, ok := initMap[3]; ok {
		t.Error("vertex 3 has no out-edge; CC init should not include it")
	}
	// Identity F: delta passes through.
	got := collect(p, 0, 0, false)
	if got[1] != 0 || got[2] != 0 {
		t.Errorf("propagate = %v", got)
	}
}

func TestCompileKatzUsesViewRule(t *testing.T) {
	db := edb.NewDB()
	db.SetGraph("edge", testGraph(t))
	p := compile(t, progs.Katz, db)
	if len(p.InitMRA) != 1 || p.InitMRA[0].K != 0 || p.InitMRA[0].V != 10000 {
		t.Fatalf("Katz init = %v", p.InitMRA)
	}
	got := collect(p, 0, 10000, false)
	if got[1] != 1000 || got[2] != 1000 {
		t.Errorf("propagate = %v", got)
	}
}

func TestCompileCostEdgeConstants(t *testing.T) {
	db := edb.NewDB()
	db.SetGraph("dagedge", testGraph(t))
	p := compile(t, progs.Cost, db)
	// ΔX¹ = per-edge weights folded at destinations plus the source tuple.
	initMap := map[int64]float64{}
	for _, kv := range p.InitMRA {
		initMap[kv.K] = kv.V
	}
	if initMap[1] != 5 || initMap[2] != 4 || initMap[3] != 2 {
		t.Errorf("edge-constant init = %v", initMap)
	}
	// Naive base excludes the per-edge constants (full F re-derives them).
	baseMap := map[int64]float64{}
	for _, kv := range p.BaseNaive {
		baseMap[kv.K] = kv.V
	}
	if len(baseMap) != 1 || baseMap[0] != 0 {
		t.Errorf("naive base = %v", baseMap)
	}
	// Full F includes +w; delta F' does not.
	full := collect(p, 0, 10, true)
	if full[1] != 15 || full[2] != 13 {
		t.Errorf("full propagate = %v", full)
	}
	delta := collect(p, 0, 10, false)
	if delta[1] != 10 || delta[2] != 10 {
		t.Errorf("delta propagate = %v", delta)
	}
}

func TestCompileAPSPPairKeys(t *testing.T) {
	db := edb.NewDB()
	db.SetGraph("edge", testGraph(t))
	p := compile(t, progs.APSP, db)
	if !p.PairKeys {
		t.Fatal("APSP should be pair-keyed")
	}
	// Init: one tuple per edge.
	if len(p.InitMRA) != 4 {
		t.Fatalf("init = %v", p.InitMRA)
	}
	initMap := map[int64]float64{}
	for _, kv := range p.InitMRA {
		initMap[kv.K] = kv.V
	}
	if initMap[EncodePair(0, 1)] != 5 || initMap[EncodePair(2, 3)] != 2 {
		t.Errorf("init = %v", initMap)
	}
	// Propagate (0,1) with d=5 along 1→2: emits (0,2) with 6.
	got := collect(p, EncodePair(0, 1), 5, false)
	if got[EncodePair(0, 2)] != 6 || len(got) != 1 {
		t.Errorf("pair propagate = %v", got)
	}
}

func TestCompileAdsorptionAttrs(t *testing.T) {
	db := edb.NewDB()
	g := testGraph(t)
	db.SetGraph("A", g)
	pi := edb.NewRelation("pi", 2)
	pc := edb.NewRelation("pc", 2)
	for v := 0; v < 4; v++ {
		pi.Add(float64(v), 0.25)
		pc.Add(float64(v), 0.5)
	}
	db.AddRelation(pi)
	db.AddRelation(pc)
	p := compile(t, progs.Adsorption, db)
	// Init: i * p2 = 1 * 0.25 per vertex.
	if len(p.InitMRA) != 4 {
		t.Fatalf("init = %v", p.InitMRA)
	}
	for _, kv := range p.InitMRA {
		if kv.V != 0.25 {
			t.Errorf("init[%d] = %v", kv.K, kv.V)
		}
	}
	// Propagate: 0.7 * a * w * pc[src]; from vertex 0, edge→1 w=5.
	got := collect(p, 0, 1, false)
	if math.Abs(got[1]-0.7*1*5*0.5) > 1e-12 {
		t.Errorf("propagate = %v", got)
	}
}

func TestCompileDeterministicInitOrder(t *testing.T) {
	db := edb.NewDB()
	db.SetGraph("edge", testGraph(t))
	p1 := compile(t, progs.PageRank, db)
	db2 := edb.NewDB()
	db2.SetGraph("edge", testGraph(t))
	p2 := compile(t, progs.PageRank, db2)
	if len(p1.InitMRA) != len(p2.InitMRA) {
		t.Fatal("nondeterministic init")
	}
	for i := range p1.InitMRA {
		if p1.InitMRA[i] != p2.InitMRA[i] {
			t.Fatal("init order must be deterministic")
		}
	}
	if !sort.SliceIsSorted(p1.InitMRA, func(i, j int) bool { return p1.InitMRA[i].K < p1.InitMRA[j].K }) {
		t.Error("init must be key-sorted")
	}
}

func TestCompileErrors(t *testing.T) {
	db := edb.NewDB()
	db.SetGraph("edge", testGraph(t))
	cases := []struct {
		name, src string
	}{
		{"missing graph", `
a(X,v) :- X=0, v=0.
a(Y,min[v1]) :- a(X,v), nograph(X,Y), v1 = v.`},
		{"unbound var in F", `
a(X,v) :- X=0, v=0.
a(Y,min[v1]) :- a(X,v), edge(X,Y), v1 = v + q.`},
		{"three keys", `
a(X,Y,Z,min[v1]) :- a(X,Y,W,v), edge(W,Z), v1 = v.`},
	}
	for _, c := range cases {
		prog, err := parser.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.name, err)
		}
		info, err := analyzer.Analyze(prog)
		if err != nil {
			t.Fatalf("%s: analyze: %v", c.name, err)
		}
		if _, err := Compile(info, db, Options{}); err == nil {
			t.Errorf("%s: expected compile error", c.name)
		}
	}
}

func TestEncodeDecodePair(t *testing.T) {
	for _, pair := range [][2]int64{{0, 0}, {1, 2}, {123456, 654321}, {1 << 30, 1 << 30}} {
		k := EncodePair(pair[0], pair[1])
		hi, lo := DecodePair(k)
		if hi != pair[0] || lo != pair[1] {
			t.Errorf("round trip (%d,%d) → %d → (%d,%d)", pair[0], pair[1], k, hi, lo)
		}
	}
}

func TestCompileFactsProgram(t *testing.T) {
	// A fully self-contained program with inline facts.
	src := `
edge(0,1,4).
edge(1,2,3).
r1. sssp(X,d) :- X=0, d=0.
r2. sssp(Y,min[dy]) :- sssp(X,dx), edge(X,Y,dxy), dy = dx + dxy.
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := analyzer.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	db := edb.NewDB()
	// Facts become a relation, but the join needs a graph: build it from
	// the facts first (this is what the powerlog CLI does).
	g, err := GraphFromFacts(info, "edge", 0)
	if err != nil {
		t.Fatal(err)
	}
	db.SetGraph("edge", g)
	p, err := Compile(info, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(p, 0, 0, false)
	if got[1] != 4 {
		t.Errorf("propagate = %v", got)
	}
}

// TestDerivedRuleThreeKeys: a derived head groups on every argument but
// the aggregate, however many there are, rows in ascending key order.
func TestDerivedRuleThreeKeys(t *testing.T) {
	db := edb.NewDB()
	db.SetGraph("edge", testGraph(t))
	compile(t, progs.SSSP+`
hop(X,Y,w,sum[w2]) :- edge(X,Y,w), edge(Y,Z,w2).`, db)
	rel, ok := db.Relation("hop")
	if !ok {
		t.Fatal("hop relation not materialised")
	}
	want := [][]float64{{0, 1, 5, 1}, {0, 2, 3, 2}, {1, 2, 1, 2}}
	if rel.Len() != len(want) {
		t.Fatalf("hop has %d rows, want %d", rel.Len(), len(want))
	}
	for i, w := range want {
		if !slices.Equal(rel.Row(i), w) {
			t.Errorf("hop row %d = %v, want %v", i, rel.Row(i), w)
		}
	}
}

// TestViewChainAnyOrder: a chain of views compiles in whatever order its
// rules are written, the outermost reading the innermost's rows through
// the others; a view nothing can evaluate is reported with its own
// error.
func TestViewChainAnyOrder(t *testing.T) {
	rules := []string{
		"c(X,v) :- b(X,v).",
		"b(X,v) :- a(X,v).",
		"a(X,count[Y]) :- edge(X,Y,w).",
	}
	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		src := progs.SSSP
		for _, i := range order {
			src += rules[i] + "\n"
		}
		db := edb.NewDB()
		db.SetGraph("edge", testGraph(t))
		if _, err := compileSrc(src, db); err != nil {
			t.Errorf("order %v: %v", order, err)
			continue
		}
		if got, want := relRows(db, "c"), [][]float64{{0, 2}, {1, 1}, {2, 1}}; !sameRows(got, want) {
			t.Errorf("order %v: c = %v, want %v", order, got, want)
		}
	}
	db := edb.NewDB()
	db.SetGraph("edge", testGraph(t))
	_, err := compileSrc(progs.SSSP+"x(X,v) :- nosuch(X,v).\n", db)
	if want := `compiler: cannot evaluate rule for x: edb: no relation or graph named "nosuch"`; err == nil || err.Error() != want {
		t.Errorf("stuck view: err = %v, want %s", err, want)
	}
}

// TestNodeRange: node is the range of the graph's vertices unless the
// database holds a node relation, which wins.
func TestNodeRange(t *testing.T) {
	for _, user := range []bool{false, true} {
		db := edb.NewDB()
		db.SetGraph("edge", testGraph(t))
		want := []int64{0, 1, 2, 3}
		if user {
			r := edb.NewRelation("node", 1)
			r.Add(2)
			r.Add(0)
			db.AddRelation(r)
			want = []int64{0, 2}
		}
		p := compile(t, progs.PageRank, db)
		var keys []int64
		for _, kv := range p.InitMRA {
			keys = append(keys, kv.K)
		}
		if !slices.Equal(keys, want) {
			t.Errorf("user node %v: ΔX¹ keys %v, want %v", user, keys, want)
		}
		if r, _ := db.Relation("node"); r.Len() != len(want) {
			t.Errorf("user node %v: node has %d rows, want %d", user, r.Len(), len(want))
		}
	}
}

// bottleneck is min over F' = min(v,w): monotone, accepted by the MRA
// check, but a key can hold a value derived through a worse value of
// its own, which the support closure cannot see (DESIGN.md §10).
const bottleneck = `
r1. d(X,v) :- X=0, v=10.
r2. d(Y,min[v1]) :- d(X,v), edge(X,Y,w), v1 = min(v,w).`

func TestDeleteLicence(t *testing.T) {
	analyse := func(src string) *analyzer.Info {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		info, err := analyzer.Analyze(prog)
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	for _, c := range []struct {
		name, src string
		want      string
	}{
		{"SSSP", progs.SSSP, analyzer.DeleteStrict},
		{"CC", progs.CC, analyzer.DeleteStrict},
		{"LCA", progs.LCA, analyzer.DeleteStrict},
		{"APSP", progs.APSP, analyzer.DeleteStrict},
		{"Viterbi", progs.Viterbi, analyzer.DeleteDiscount}, // w >= 0 admits 0: not strict
		{"bottleneck", bottleneck, analyzer.DeleteRefused},
		{"max-discount-unbounded", `
r1. p(X,v) :- X=0, v=1.
r2. p(Y,max[v1]) :- p(X,v), edge(X,Y,w), v1 = v * w, w >= 0.`, analyzer.DeleteRefused},
		{"min-discount", `
r1. p(X,v) :- X=0, v=1.
r2. p(Y,min[v1]) :- p(X,v), edge(X,Y,w), v1 = v * w, w >= 0, w <= 1.`, analyzer.DeleteRefused},
	} {
		if got := analyse(c.src).Facts.Deletes; got.Kind != c.want {
			t.Errorf("%s: deletes %s, want %s", c.name, got, c.want)
		}
	}
}
