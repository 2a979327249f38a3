package compiler

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"powerlog/internal/agg"
	"powerlog/internal/analyzer"
	"powerlog/internal/ast"
	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/parser"
	"powerlog/internal/progs"
)

// The column fold against the evaluator it replaced, kept here as the
// oracle: the map-and-sort ΔX¹ build (oracleInits) and the string-keyed
// group map of the aggregate views (oracleDerivedRules), as they stood
// before the fold. ΔX¹, the naive base tuples and every view's rows, in
// order, must be the oracle's bit for bit. The one intended difference
// is a view's group key that is not an integer: the oracle grouped by
// int64(key), the fold groups by exact value (TestDerivedViewExactKeys).

// oracleInits is buildInits over a map, returned rather than installed.
func oracleInits(p *Plan, shape *bodyShape) (initMRA, baseNaive []KV, err error) {
	info := p.Info
	fold := map[int64]float64{}
	add := func(k int64, v float64) {
		if cur, ok := fold[k]; ok {
			fold[k] = p.Op.Fold(cur, v)
		} else {
			fold[k] = v
		}
	}
	for _, r := range info.InitRules {
		if err := oracleEvalHeadRule(p, r, add); err != nil {
			return nil, nil, err
		}
	}
	for _, cb := range info.ConstBodies {
		if err := oracleFoldHead(p, cb.Body.Atoms, varTerms(info.KeyVars), &ast.Term{Kind: ast.TermArith, Expr: cb.Expr}, add); err != nil {
			return nil, nil, err
		}
	}
	baseNaive = kvList(fold)
	if info.Rec.CRec != nil {
		if err := addEdgeConstants(p, shape, add); err != nil {
			return nil, nil, err
		}
	}
	return kvList(fold), baseNaive, nil
}

func oracleFoldHead(p *Plan, body []*ast.Atom, keys []*ast.Term, val *ast.Term, add func(int64, float64)) error {
	return eachRow(p.DB, []*ast.Body{{Atoms: body}}, append(slices.Clone(keys), val), oracleKeyed(p.PairKeys, add))
}

func oracleKeyed(pair bool, add func(int64, float64)) func(row []float64) error {
	return func(row []float64) error {
		key := int64(row[0])
		if pair {
			key = EncodePair(key, int64(row[1]))
		}
		add(key, row[len(row)-1])
		return nil
	}
}

func oracleEvalHeadRule(p *Plan, r *ast.Rule, add func(int64, float64)) error {
	info := p.Info
	valuePos := info.AggPos
	if valuePos >= len(r.Head.Args) {
		return errf("init rule %s has too few head arguments", r.Head.Name)
	}
	var keyTerms []*ast.Term
	for i, t := range r.Head.Args {
		if i == valuePos || (i == 0 && info.IterIndexed) {
			continue
		}
		keyTerms = append(keyTerms, t)
	}
	if len(keyTerms) != len(info.KeyVars) {
		return errf("init rule %s key arity %d does not match recursive head %d",
			r.Head.Name, len(keyTerms), len(info.KeyVars))
	}
	for _, body := range r.Bodies {
		if err := oracleFoldHead(p, body.Atoms, keyTerms, r.Head.Args[valuePos], add); err != nil {
			return err
		}
	}
	return nil
}

func kvList(m map[int64]float64) []KV {
	out := make([]KV, 0, len(m))
	for k, v := range m {
		out = append(out, KV{k, v})
	}
	slices.SortFunc(out, func(a, b KV) int { return cmp.Compare(a.K, b.K) })
	return out
}

// oracleDerivedRules is the old evalDerivedRules: groups keyed by the
// little-endian bytes of int64(key), rows sorted by the integer key.
func oracleDerivedRules(info *analyzer.Info, db *edb.DB) error {
	for _, r := range info.DerivedRules {
		if db.HasPred(r.Head.Name) {
			continue
		}
		aggT, aggPos := r.AggTermOf()
		op, err := agg.Parse(aggT.Op)
		if err != nil {
			return errf("derived rule %s: %v", r.Head.Name, err)
		}
		o := agg.ByKind(op)
		terms := slices.Clone(r.Head.Args)
		terms[aggPos] = &ast.Term{Kind: ast.TermVar, Var: aggT.Var}
		if op == agg.Count {
			terms[aggPos] = &ast.Term{Kind: ast.TermNum, Num: 1}
		}
		byKey := func(a, b []float64) int {
			for i := range a {
				if c := cmp.Compare(int64(a[i]), int64(b[i])); c != 0 && i != aggPos {
					return c
				}
			}
			return 0
		}
		groups := map[string][]float64{}
		var rows [][]float64
		var g []float64
		var key []byte
		for _, body := range r.Bodies {
			err := eachRow(db, []*ast.Body{body}, terms, func(row []float64) error {
				if g == nil || byKey(g, row) != 0 {
					key = key[:0]
					for i, v := range row {
						if i != aggPos {
							key = binary.LittleEndian.AppendUint64(key, uint64(int64(v)))
						}
					}
					if g = groups[string(key)]; g == nil {
						g = slices.Clone(row)
						g[aggPos] = o.Identity()
						groups[string(key)] = g
						rows = append(rows, g)
					}
				}
				g[aggPos] = o.Fold(g[aggPos], row[aggPos])
				return nil
			})
			if err != nil {
				return err
			}
		}
		slices.SortFunc(rows, byKey)
		rel := edb.NewRelation(r.Head.Name, len(r.Head.Args))
		for _, g := range rows {
			rel.Add(g...)
		}
		db.AddRelation(rel)
	}
	return nil
}

// relRows is a relation's rows, in order.
func relRows(db *edb.DB, name string) [][]float64 {
	rel, ok := db.Relation(name)
	if !ok {
		return nil
	}
	rows := make([][]float64, rel.Len())
	for i := range rows {
		rows[i] = slices.Clone(rel.Row(i))
	}
	return rows
}

func sameRows(a, b [][]float64) bool {
	return slices.EqualFunc(a, b, func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	})
}

// oracleDiff compares a compiled plan's ΔX¹, naive base tuples and
// aggregate views with the oracle's, evaluated over the same database
// (the views on a copy of it without them).
func oracleDiff(p *Plan) error {
	init, base, err := oracleInits(p, p.shape)
	if err != nil {
		return fmt.Errorf("oracle: %v", err)
	}
	if !sameKVs(p.InitMRA, init) {
		return fmt.Errorf("InitMRA\n%v\nwant\n%v", p.InitMRA, init)
	}
	if !sameKVs(p.BaseNaive, base) {
		return fmt.Errorf("BaseNaive\n%v\nwant\n%v", p.BaseNaive, base)
	}
	odb := p.DB.Clone()
	for _, h := range p.shape.derivedHeads {
		odb.DropRelation(h)
	}
	if err := oracleDerivedRules(p.Info, odb); err != nil {
		return fmt.Errorf("oracle: %v", err)
	}
	for _, h := range p.shape.derivedHeads {
		if got, want := relRows(p.DB, h), relRows(odb, h); !sameRows(got, want) {
			return fmt.Errorf("view %s\n%v\nwant\n%v", h, got, want)
		}
	}
	return nil
}

func compileSrc(src string, db *edb.DB) (*Plan, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := analyzer.Analyze(prog)
	if err != nil {
		return nil, err
	}
	return Compile(info, db, Options{})
}

// randomViews writes k aggregate views over edge(X,Y,w), each with one to
// three integer group keys — vertices, and keys that name none (X-Y, X+Y,
// a constant) — under count, sum, min or max.
func randomViews(rng *rand.Rand, k int) string {
	keys := []string{"X", "Y", "X+Y", "X-Y", "2*Y", "7"}
	aggs := []string{"count", "sum", "min", "max"}
	vals := []string{"w", "X", "Y"}
	var b strings.Builder
	for i := 0; i < k; i++ {
		perm := rng.Perm(len(keys))[:1+rng.Intn(3)]
		var head []string
		for _, j := range perm {
			head = append(head, keys[j])
		}
		head = slices.Insert(head, rng.Intn(len(head)+1), fmt.Sprintf("%s[%s]", aggs[rng.Intn(len(aggs))], vals[rng.Intn(len(vals))]))
		fmt.Fprintf(&b, "v%d(%s) :- edge(X,Y,w).\n", i, strings.Join(head, ","))
	}
	return b.String()
}

// TestFoldMatchesOracle: the fourteen catalogue programs and generated
// views over R-MAT graphs of 2^6 to 2^12 vertices.
func TestFoldMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, scale := range []int{6, 8, 10, 12} {
		for _, fx := range append(slices.Clone(catalogueKernels), rejectedKernels...) {
			maxW := 0.0
			if fx.weighted {
				maxW = 50
			}
			db := edb.NewDB()
			g := gen.RMAT(scale, 6<<scale, maxW, int64(scale))
			db.SetGraph(fx.pred, g)
			for _, a := range fx.attrs {
				r := edb.NewRelation(a, 2)
				for v := 0; v < g.NumVertices(); v++ {
					r.Add(float64(v), rng.NormFloat64())
				}
				db.AddRelation(r)
			}
			p, err := compileSrc(fx.src, db)
			if err != nil {
				t.Fatalf("%s at 2^%d: %v", fx.name, scale, err)
			}
			if err := oracleDiff(p); err != nil {
				t.Fatalf("%s at 2^%d: %v", fx.name, scale, err)
			}
		}
		for round := 0; round < 4; round++ {
			views := randomViews(rng, 4)
			db := edb.NewDB()
			db.SetGraph("edge", gen.RMAT(scale, 6<<scale, 20, int64(round)))
			p, err := compileSrc(progs.SSSP+views, db)
			if err != nil {
				t.Fatalf("2^%d, views\n%s: %v", scale, views, err)
			}
			if len(p.shape.derivedHeads) != 4 {
				t.Fatalf("views\n%s: %d derived heads", views, len(p.shape.derivedHeads))
			}
			if err := oracleDiff(p); err != nil {
				t.Fatalf("2^%d, views\n%s: %v", scale, views, err)
			}
		}
	}
}

// TestDerivedViewExactKeys: a view groups by a key's exact value, −0 and
// +0 one group; the oracle merged keys that differ after the decimal
// point into the group of the first row it saw.
func TestDerivedViewExactKeys(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{
		{Src: 0, Dst: 1, W: 2.5}, {Src: 0, Dst: 1, W: 2.7}, {Src: 1, Dst: 2, W: 1},
		{Src: 2, Dst: 0, W: 0}, {Src: 2, Dst: 1, W: math.Copysign(0, -1)},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	db := edb.NewDB()
	db.SetGraph("edge", g)
	p := compile(t, progs.SSSP+`
hop(X,Y,w,sum[w2]) :- edge(X,Y,w), edge(Y,Z,w2).
byw(w,count[X]) :- edge(X,Y,w).`, db)
	for _, c := range []struct {
		view      string
		want, old [][]float64
	}{
		{"hop", [][]float64{{0, 1, 2.5, 1}, {0, 1, 2.7, 1}, {1, 2, 1, 0}, {2, 0, 0, 2.5 + 2.7}, {2, 1, 0, 1}},
			[][]float64{{0, 1, 2.5, 2}, {1, 2, 1, 0}, {2, 0, 0, 2.5 + 2.7}, {2, 1, math.Copysign(0, -1), 1}}},
		{"byw", [][]float64{{0, 2}, {1, 1}, {2.5, 1}, {2.7, 1}},
			[][]float64{{0, 2}, {1, 1}, {2.5, 2}}},
	} {
		if got := relRows(db, c.view); !sameRows(got, c.want) {
			t.Errorf("%s = %v, want %v", c.view, got, c.want)
		}
		odb := db.Clone()
		odb.DropRelation(c.view)
		if err := oracleDerivedRules(p.Info, odb); err != nil {
			t.Fatal(err)
		}
		if got := relRows(odb, c.view); !sameRows(got, c.old) {
			t.Errorf("oracle %s = %v, want %v", c.view, got, c.old)
		}
	}
}

// TestInitKeyNamesNoVertex: a ΔX¹ key that is fractional, negative or
// past the last vertex — either half of a pair key — is refused at
// Compile, naming the rule and the key; it used to seed a truncated key
// or nothing at all.
func TestInitKeyNamesNoVertex(t *testing.T) {
	g := gen.RMAT(6, 300, 10, 1)
	ssspRec := progs.SSSP[strings.Index(progs.SSSP, "r2."):]
	const apspRec = "\nr2. apsp(X,Z,min[d1]) :- apsp(X,Y,d), edge(Y,Z,w), d1 = d + w.\n"
	for _, c := range []struct {
		name, src, want string
	}{
		{"past the last vertex", "r1. sssp(X,d) :- X=100000, d=0." + ssspRec, "rule r1: key [100000]"},
		{"fractional", "r1. sssp(X,d) :- X=2.5, d=0." + ssspRec, "rule r1: key [2.5]"},
		{"negative", "r1. sssp(X,d) :- X=-1, d=0." + ssspRec, "rule r1: key [-1]"},
		{"N", "r1. sssp(X,d) :- X=64, d=0." + ssspRec, "rule r1: key [64]"},
		{"last vertex", "r1. sssp(X,d) :- X=63, d=0." + ssspRec, ""},
		{"constant body", "r1. p(X,d) :- X=0, d=0.\nr2. p(Y,min[dy]) :- Y=70, dy=1; :- p(X,dx), edge(X,Y,w), dy = dx + w.", "rule r2: key [70]"},
		{"pair hi", "r1. apsp(X,Y,d) :- X=64, Y=0, d=0." + apspRec, "rule r1: key [64 0]"},
		{"pair lo fractional", "r1. apsp(X,Y,d) :- X=0, Y=1.5, d=0." + apspRec, "rule r1: key [0 1.5]"},
		{"pair lo negative", "r1. apsp(X,Y,d) :- X=3, Y=-2, d=0." + apspRec, "rule r1: key [3 -2]"},
		{"pair", "r1. apsp(X,Y,d) :- X=63, Y=5, d=0." + apspRec, ""},
	} {
		db := edb.NewDB()
		db.SetGraph("edge", g)
		p, err := compileSrc(c.src, db)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want == "" && len(p.InitMRA) != 1:
			t.Errorf("%s: ΔX¹ = %v, want one key", c.name, p.InitMRA)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// FuzzDerivedView: an edge list decoded from bytes, its degree view, a
// two-key view, and the views folded a CSR row at a time — sum, max and
// min by source, two bodies onto one key (a row summed apart from its
// slot would differ in the last bit), a row driven by node — against the
// oracle, row for row and bit for bit.
func FuzzDerivedView(f *testing.F) {
	f.Add(uint8(3), []byte("\x00\x01\x0a\x00\x01\x0b\x01\x02\x04"))
	f.Add(uint8(0), []byte{})
	f.Add(uint8(23), []byte("\x05\x05\x7f\x05\x06\x80\x06\x05\x00\x17\x00\xff"))
	f.Add(uint8(1), []byte("\x01\x00\x30\x01\x00\x30\x01\x00\x30")) // twice: 3×4.8, then 4.8 at a time
	f.Fuzz(func(t *testing.T, nv uint8, data []byte) {
		n := 1 + int(nv%24)
		var edges []graph.Edge
		for data = data[:min(len(data), 3*256)]; len(data) >= 3; data = data[3:] {
			w := float64(int8(data[2])) / 10 // tenths: a sum depends on its order
			if data[2] == 0x7f {
				w = math.Copysign(0, -1)
			}
			edges = append(edges, graph.Edge{Src: int32(data[0]) % int32(n), Dst: int32(data[1]) % int32(n), W: w})
		}
		g, err := graph.FromEdges(n, edges, true)
		if err != nil {
			t.Fatal(err)
		}
		db := edb.NewDB()
		db.SetGraph("edge", g)
		p, err := compileSrc(progs.SSSP+`
degree(X,count[Y]) :- edge(X,Y,w).
pairs(Y,X,sum[w]) :- edge(X,Y,w).
out(X,sum[w]) :- edge(X,Y,w).
top(X,max[w]) :- edge(X,Y,w).
near(X,min[Y]) :- edge(X,Y,w).
twice(X,sum[w]) :- edge(X,Y,w); :- edge(X,Y,w).
fromnode(X,sum[w]) :- node(X), edge(X,Y,w).
`, db)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracleDiff(p); err != nil {
			t.Fatal(err)
		}
	})
}
