package compiler

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"powerlog/internal/analyzer"
	"powerlog/internal/edb"
	"powerlog/internal/expr"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/monotable"
	"powerlog/internal/parser"
	"powerlog/internal/progs"
)

// The row kernel against the closure tree it replaced as the unit of
// propagation: for every key of a plan, what Row+Fill emit — through the
// Propagate adapter, so chunking is covered — must be the sequence
// F'.Eval yields edge by edge, bit for bit and in CSR order. One
// exception is spelled out in sameBits: a NaN's payload.

// The kernel classes and their description are the analyzer's facts.
type (
	Class      = analyzer.Class
	KernelDesc = analyzer.KernelDesc
)

const (
	Generic  = analyzer.Generic
	RowConst = analyzer.RowConst
	AddW     = analyzer.AddW
	MulW     = analyzer.MulW
)

// kernelFixture is one program with the database it compiles against.
type kernelFixture struct {
	name     string
	src      string
	class    Class // the class DESIGN.md §9's table names for it
	pred     string
	weighted bool
	attrs    []string // attribute relations, each a random vertex column
}

var catalogueKernels = []kernelFixture{
	{"SSSP", progs.SSSP, AddW, "edge", true, nil},
	{"PageRank", progs.PageRank, RowConst, "edge", false, nil},
	{"CC", progs.CC, RowConst, "edge", false, nil},
	{"Adsorption", progs.Adsorption, Generic, "A", true, []string{"pi", "pc"}},
	{"Katz", progs.Katz, RowConst, "edge", false, nil},
	{"BP", progs.BP, Generic, "E", true, []string{"I", "H"}},
	{"PathsDAG", progs.PathsDAG, RowConst, "dagedge", false, nil},
	{"Cost", progs.Cost, RowConst, "dagedge", true, nil},
	{"Viterbi", progs.Viterbi, MulW, "trans", true, nil},
	{"SimRank", progs.SimRank, MulW, "pairedge", true, nil},
	{"LCA", progs.LCA, RowConst, "parent", false, nil},
	{"APSP", progs.APSP, AddW, "edge", true, nil},
}

// kernelGraph is a small graph with the rows the kernels must get right:
// vertex 0 fans out past one Fill chunk, vertices n-2 and n-1 have no
// out-edges (a zero degree under PageRank's divide), and a weighted
// graph carries ±Inf and NaN weights.
func kernelGraph(t *testing.T, rng *rand.Rand, weighted bool) *graph.Graph {
	t.Helper()
	const n = 400
	var edges []graph.Edge
	for i := 0; i < 2*FillChunk+37; i++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: int32(rng.Intn(n)), W: 1 + rng.Float64()})
	}
	for i := 0; i < 1500; i++ {
		edges = append(edges, graph.Edge{Src: int32(1 + rng.Intn(n-3)), Dst: int32(rng.Intn(n)), W: 50 * rng.Float64()})
	}
	for i, w := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)} {
		edges[10+i].W, edges[700+i].W = w, w
	}
	g, err := graph.FromEdges(n, edges, weighted)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func (fx kernelFixture) db(t *testing.T, rng *rand.Rand) *edb.DB {
	g := kernelGraph(t, rng, fx.weighted)
	db := edb.NewDB()
	db.SetGraph(fx.pred, g)
	for _, a := range fx.attrs {
		r := edb.NewRelation(a, 2)
		for v := 0; v < g.NumVertices(); v++ {
			r.Add(float64(v), rng.NormFloat64())
		}
		db.AddRelation(r)
	}
	return db
}

// sameBits reports whether the kernel's value is the closure tree's. The
// two perform the same IEEE operations on the same operands, so every
// number, infinity and zero agrees bit for bit; when the result is NaN
// only NaN-ness is compared, because which operand's payload a NaN·NaN or
// NaN+NaN keeps is the instruction's operand order, which Go does not
// define for a commutative operator.
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || got != got && want != want
}

// checkKernel compares both kernels of p against their expressions on
// every key (plus a key outside the graph), with a different arriving
// value per key.
func checkKernel(t *testing.T, p *Plan, what string) {
	t.Helper()
	type kv struct {
		k int64
		v float64
	}
	for _, side := range []struct {
		name string
		k    *Kernel
		f    *expr.Expr
	}{{"F'", p.Kernel, p.Info.Rec.FPrime}, {"F", p.FullKernel, p.Info.Rec.F}} {
		scratch := p.NewScratch()
		for src := 0; src <= p.N; src++ {
			key, value := int64(src), 0.25+float64(src%7)
			if p.PairKeys {
				key = EncodePair(int64(src%5+1), int64(src))
			}
			var want []kv
			if src < p.N {
				env := expr.Env{p.Info.Rec.ValueVar: value}
				for _, a := range p.shape.srcAttrs {
					env[a.varName] = a.col[src]
				}
				targets, weights := p.Graph.Neighbors(int32(src))
				for i, dst := range targets {
					env[p.shape.WeightVar] = 1
					if weights != nil {
						env[p.shape.WeightVar] = weights[i]
					}
					for _, a := range p.shape.dstAttrs {
						env[a.varName] = a.col[dst]
					}
					out := int64(dst)
					if p.PairKeys {
						out = EncodePair(int64(src%5+1), int64(dst))
					}
					want = append(want, kv{out, side.f.Eval(env)})
				}
			}
			var got []kv
			side.k.Propagate(scratch, key, value, func(dst int64, v float64) { got = append(got, kv{dst, v}) })
			if len(got) != len(want) {
				t.Fatalf("%s: %s of key %d emits %d values, want %d", what, side.name, key, len(got), len(want))
			}
			for i := range want {
				if got[i].k != want[i].k || !sameBits(got[i].v, want[i].v) {
					t.Fatalf("%s: %s = %s (%s), key %d edge %d: kernel emits (%d, %v), the expression (%d, %v)",
						what, side.name, side.f, side.k.Desc().Class, key, i, got[i].k, got[i].v, want[i].k, want[i].v)
				}
			}
		}
	}
}

// recheckLive moves what a session moves — the CSR under
// graph.ApplyEdgeMutations and a source column in place — and compares
// again: kernels read both live, nothing is cached per vertex.
func recheckLive(t *testing.T, p *Plan, rng *rand.Rand, what string) {
	t.Helper()
	n := int32(p.N)
	var ins, del []graph.Edge
	for i := 0; i < 40; i++ {
		ins = append(ins, graph.Edge{Src: int32(rng.Intn(int(n))), Dst: int32(rng.Intn(int(n))), W: 3 * rng.Float64()})
	}
	for _, e := range p.Graph.Edges()[:300] {
		if rng.Intn(4) == 0 {
			del = append(del, e)
		}
	}
	if _, err := p.Graph.ApplyEdgeMutations(ins, del); err != nil {
		t.Fatal(err)
	}
	for _, a := range p.shape.srcAttrs {
		for v := range a.col {
			a.col[v] = float64(p.Graph.OutDegree(int32(v))) // PageRank's degree, moved as a session moves it
		}
	}
	checkKernel(t, p, what+" after a mutation")
}

// TestKernelMatchesExpressionCatalogue: the twelve catalogue programs,
// each landing in the class the design names — a program that slips to
// the generic loop is a failure here, not a silent slowdown.
func TestKernelMatchesExpressionCatalogue(t *testing.T) {
	for _, fx := range catalogueKernels {
		t.Run(fx.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			p := compile(t, fx.src, fx.db(t, rng))
			if got := p.Kernel.Desc().Class; got != fx.class {
				t.Fatalf("F' = %s classified %s, want %s", p.Info.Rec.FPrime, got, fx.class)
			}
			checkKernel(t, p, fx.name)
			recheckLive(t, p, rng, fx.name)
		})
	}
	// An unweighted graph under a program that names a weight: w is 1.
	fx := catalogueKernels[0]
	fx.weighted = false
	checkKernel(t, compile(t, fx.src, fx.db(t, rand.New(rand.NewSource(9)))), "SSSP, unweighted graph")
}

// randKernelExpr draws an expression over the arriving value v, the edge
// weight w, a source attribute a, a destination attribute b, constants,
// the four operators and the builtins.
func randKernelExpr(rng *rand.Rand, depth int) *expr.Expr {
	if depth <= 0 || rng.Intn(4) == 0 {
		switch rng.Intn(6) {
		case 0:
			return expr.Num(float64(rng.Intn(9)-4) / 4)
		case 1:
			return expr.Var("w")
		case 2:
			return expr.Var("a")
		case 3:
			return expr.Var("b")
		default:
			return expr.Var("v")
		}
	}
	x, y := randKernelExpr(rng, depth-1), randKernelExpr(rng, depth-1)
	switch rng.Intn(7) {
	case 0:
		return expr.Add(x, y)
	case 1:
		return expr.Sub(x, y)
	case 2, 3:
		return expr.Mul(x, y)
	case 4:
		return expr.Div(x, y)
	case 5:
		return expr.Neg(x)
	default:
		names := []string{"abs", "relu", "sqrt", "min", "max"}
		if fn := names[rng.Intn(len(names))]; expr.Builtins[fn].Arity == 2 {
			return expr.Call(fn, x, y)
		} else {
			return expr.Call(fn, x)
		}
	}
}

// TestKernelMatchesExpressionRandom: seeded random expressions, swapped
// in as the F' of a program whose body binds every variable they use.
// All four classes must come up, or the generator has drifted.
func TestKernelMatchesExpressionRandom(t *testing.T) {
	const src = `
r1. p(X,v) :- X=0, v=1.
r2. p(Y,sum[v1]) :- p(X,v), e(X,Y,w), sa(X,a), da(Y,b), v1 = v * w * a * b.
`
	fx := kernelFixture{pred: "e", weighted: true, attrs: []string{"sa", "da"}}
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Class]int{}
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		info, err := analyzer.Analyze(prog)
		if err != nil {
			t.Fatal(err)
		}
		f := randKernelExpr(rng, 1+int(seed%4))
		info.Rec.FPrime, info.Rec.F = f, expr.Add(f, expr.Var("v"))
		info.Facts.Kernel = info.Facts.Shape.Describe(f)
		p, err := Compile(info, fx.db(t, rng), Options{})
		if err != nil {
			t.Fatalf("seed %d: F' = %s: %v", seed, f, err)
		}
		seen[p.Kernel.Desc().Class]++
		checkKernel(t, p, fmt.Sprintf("seed %d", seed))
		if seed%8 == 0 {
			recheckLive(t, p, rng, fmt.Sprintf("seed %d", seed))
		}
	}
	for c := Generic; c <= MulW; c++ {
		if seen[c] == 0 {
			t.Errorf("no random expression classified %s (saw %v)", c, seen)
		}
	}
}

// TestKernelStep: the bucket width is the graph's mean |w| exactly when
// the program is a selective v + w and no edge improves the value it
// carries; a session's mutations can end that and begin it.
func TestKernelStep(t *testing.T) {
	const longest = `
r1. lp(X,d) :- X=0, d=0.
r2. lp(Y,max[d1]) :- lp(X,d), edge(X,Y,w), d1 = d + w.`
	// F' = (d + 1) + w: an AddW kernel whose row scalar is not the value.
	const shifted = `
r1. s(X,d) :- X=0, d=0.
r2. s(Y,min[d1]) :- s(X,d), edge(X,Y,w), d1 = d + 1 + w.`
	const epsSSSP = `
r1. sssp(X,d) :- X=0, d=0.
r2. sssp(Y,min[dy]) :- sssp(X,dx), edge(X,Y,dxy), dy = dx + dxy; {sum[Δdy] < 0.0001}.`
	weights := func(ws ...float64) *graph.Graph {
		edges := make([]graph.Edge, len(ws))
		for i, w := range ws {
			edges[i] = graph.Edge{Src: int32(i), Dst: int32(i + 1), W: w}
		}
		g, err := graph.FromEdges(len(ws)+1, edges, true)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	unweighted, err := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, src string
		g         *graph.Graph
		want      float64
	}{
		{"min, w >= 0", progs.SSSP, weights(2, 0, 4), 2},
		{"min, one w < 0", progs.SSSP, weights(2, -1, 4), 0},
		{"min, all zero", progs.SSSP, weights(0, 0), 0},
		{"min, NaN weight", progs.SSSP, weights(1, math.NaN()), 0},
		{"min, unweighted", progs.SSSP, unweighted, 1},
		{"min, no edges", progs.SSSP, weights(), 0},
		{"pair keys", progs.APSP, weights(3, 5), 4},
		{"max, w <= 0", longest, weights(-2, 0, -4), 2},
		{"max, one w > 0", longest, weights(-2, 1), 0},
		{"max, unweighted", longest, unweighted, 0},
		{"scalar is not the value", shifted, weights(2, 4), 0},
		{"ε stop", epsSSSP, weights(2, 4), 3}, // internal/term holds an ε verdict while keys are held
		{"combining", progs.PageRank, unweighted, 0},
	} {
		db := edb.NewDB()
		db.SetGraph("edge", tc.g)
		if got := compile(t, tc.src, db).Kernel.Step(); got != tc.want {
			t.Errorf("%s: Step = %v, want %v", tc.name, got, tc.want)
		}
	}

	// A session's mutations: an improving insert ends a positive Step, and
	// a Step of 0 is read again from the graph as mutated.
	g := weights(2, 0, 4)
	db := edb.NewDB()
	db.SetGraph("edge", g)
	k := compile(t, progs.SSSP, db).Kernel
	k.noteMutation([]graph.Edge{{Src: 0, Dst: 2, W: 7}, {Src: 0, Dst: 3, W: 0}})
	if k.Step() != 2 {
		t.Errorf("Step = %v after non-improving inserts, want 2", k.Step())
	}
	bad := []graph.Edge{{Src: 0, Dst: 3, W: -0.5}}
	if _, err := g.ApplyEdgeMutations(bad, nil); err != nil {
		t.Fatal(err)
	}
	k.noteMutation(bad)
	if k.Step() != 0 {
		t.Errorf("Step = %v after inserting a negative weight under min, want 0", k.Step())
	}
	k.noteMutation(nil)
	if k.Step() != 0 {
		t.Errorf("Step = %v with the negative weight still in the graph, want 0", k.Step())
	}
	if _, err := g.ApplyEdgeMutations(nil, bad); err != nil {
		t.Fatal(err)
	}
	k.noteMutation(nil)
	if k.Step() != 2 {
		t.Errorf("Step = %v after the negative weight was deleted, want 2", k.Step())
	}
}

// unhoisted returns a copy of p whose two kernels evaluate the whole of
// F' and F as one closure tree per edge, nothing hoisted and no class:
// the forced fallback, the form every class must equal bit for bit.
func unhoisted(t *testing.T, p *Plan) *Plan {
	t.Helper()
	q := *p
	lay := layoutSlots(p.Info.Rec, p.shape)
	var err error
	if q.Kernel, err = newKernel(KernelDesc{Residual: p.Info.Rec.FPrime}, p.Graph, lay, p.PairKeys); err != nil {
		t.Fatal(err)
	}
	if q.FullKernel, err = newKernel(KernelDesc{Residual: p.Info.Rec.F}, p.Graph, lay, p.PairKeys); err != nil {
		t.Fatal(err)
	}
	return &q
}

// TestUnhoistedKernel: the forced fallback is the generic class with
// nothing hoisted, whatever class the plan's own kernel has.
func TestUnhoistedKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := compile(t, progs.PageRank, catalogueKernels[1].db(t, rng))
	q := unhoisted(t, p)
	if d := q.Kernel.Desc(); d.Class != Generic || len(d.Hoisted) != 0 || d.Residual != p.Info.Rec.FPrime {
		t.Fatalf("unhoisted kernel is %s: %s", d.Class, d)
	}
	checkKernel(t, q, "unhoisted")
}

// TestKernelClassesBitIdentical: eight compute passes over a real
// MonoTable shard — drain the dirty keys, fold each into its accumulation,
// propagate its row chunk by chunk, as worker.scanPass does — with the
// plan's own kernel (PageRank's row-constant loop, Adsorption's hoisted
// generic one) must leave bitwise the rows the forced fallback leaves.
// Hoisting and typing change what an edge costs, never a value or the
// order values are folded in.
func TestKernelClassesBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		db        func() *edb.DB
	}{
		{"PageRank", progs.PageRank, func() *edb.DB {
			db := edb.NewDB()
			db.SetGraph("edge", gen.RMAT(10, 6000, 0, 17))
			return db
		}},
		{"Adsorption", progs.Adsorption, func() *edb.DB {
			g := gen.Uniform(600, 4000, 1, 23)
			gen.NormalizeWeightsByOut(g, 1)
			db := edb.NewDB()
			db.SetGraph("A", g)
			for i, name := range []string{"pi", "pc"} {
				r := edb.NewRelation(name, 2)
				for v, x := range gen.VertexAttr(g.NumVertices(), 0.1, 0.8, int64(41+i)) {
					r.Add(float64(v), x)
				}
				db.AddRelation(r)
			}
			return db
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := compile(t, tc.src, tc.db())
			run := func(p *Plan) map[int64][2]float64 {
				tab := monotable.NewDense(p.Op, p.N, 1, 0)
				for _, kv := range p.InitMRA {
					tab.FoldDelta(kv.K, kv.V)
				}
				scratch := p.NewScratch()
				var drained []KV
				for pass := 0; pass < 8; pass++ {
					drained = drained[:0]
					tab.ScanDirty(func(k int64) {
						if v, ok := tab.Drain(k); ok {
							drained = append(drained, KV{k, v})
						}
					})
					for _, d := range drained {
						tab.FoldAcc(d.K, d.V)
						r := p.Kernel.Row(scratch, d.K, d.V)
						for lo := 0; lo < len(r.Targets); lo += FillChunk {
							for i, v := range p.Kernel.Fill(scratch, r, lo) {
								tab.FoldDelta(int64(r.Targets[lo+i]), v)
							}
						}
					}
				}
				rows := map[int64][2]float64{}
				tab.RangeRows(func(k int64, acc, inter float64) bool {
					rows[k] = [2]float64{acc, inter}
					return true
				})
				return rows
			}
			typed, ref := run(p), run(unhoisted(t, p))
			if len(typed) < p.N/2 || len(typed) != len(ref) {
				t.Fatalf("runs left %d vs %d rows of %d vertices", len(typed), len(ref), p.N)
			}
			for k, v := range typed {
				if ref[k] != v {
					t.Fatalf("key %d: the %s kernel leaves %v, the unhoisted one %v", k, p.Kernel.Desc().Class, v, ref[k])
				}
			}
		})
	}
}

// TestEdgeConstantRejectsValueVar: a per-edge constant that mentions the
// propagated value is an unbound-variable error, not a silent v = 0 — the
// constant's kernel shares F”s layout, which does bind v.
func TestEdgeConstantRejectsValueVar(t *testing.T) {
	prog, err := parser.Parse(progs.Cost)
	if err != nil {
		t.Fatal(err)
	}
	info, err := analyzer.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rec.CRec == nil {
		t.Fatal("Cost has no per-edge constant; pick another fixture")
	}
	info.Rec.CRec = expr.Add(info.Rec.CRec, expr.Var(info.Rec.ValueVar))
	rng := rand.New(rand.NewSource(5))
	_, err = Compile(info, catalogueKernels[7].db(t, rng), Options{})
	if err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Fatalf("Compile accepted a constant over the value variable (err = %v)", err)
	}
}
