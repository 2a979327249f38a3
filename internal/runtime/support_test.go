package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"powerlog/internal/analyzer"
	"slices"
	"strings"
	"testing"

	"powerlog/internal/compiler"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/monotable"
	"powerlog/internal/progs"
	"powerlog/internal/ref"
)

// mapTable is a parked fixpoint as a compiler.AccTable, so a test can
// ask a second plan over a copy of the graph what ApplyMutation decides
// for the state a session holds.
type mapTable struct {
	vals  map[int64]float64
	ident float64
}

func (t mapTable) Acc(key int64) float64 {
	if v, ok := t.vals[key]; ok {
		return v
	}
	return t.ident
}

func (t mapTable) Range(f func(key int64, acc float64)) {
	for k, v := range t.vals {
		f(k, v)
	}
}

// supportProg is one selective program of the support-closure property
// test: a random-graph generator that leans on the cases the closure
// must get right, and the sequential oracle.
type supportProg struct {
	name, src, pred string
	ident           float64 // value the oracle gives a key without a row
	dag             bool    // edges must keep src < dst
	// srcRoots: the initial value of a delete's source may go with the
	// edge (CC seeds every vertex that has an out-edge).
	srcRoots bool
	n        func(r *rand.Rand) int
	weight   func(r *rand.Rand) float64 // nil = unweighted
	oracle   func(g *graph.Graph) map[int64]float64
}

func vertexValues(col []float64, ident float64) map[int64]float64 {
	out := map[int64]float64{}
	for v, x := range col {
		if x != ident {
			out[int64(v)] = x
		}
	}
	return out
}

// smallInt draws from {0,1,2,3}: zero-weight cycles and exact ties are
// the rule, not the exception.
func smallInt(r *rand.Rand) float64 { return float64(r.Intn(4)) }

var supportProgs = []supportProg{
	{
		name: "SSSP", src: progs.SSSP, pred: "edge", ident: math.Inf(1),
		n: func(r *rand.Rand) int { return 2 + r.Intn(30) }, weight: smallInt,
		oracle: func(g *graph.Graph) map[int64]float64 {
			return vertexValues(ref.Dijkstra(g, 0), math.Inf(1))
		},
	},
	{
		name: "CC", src: progs.CC, pred: "edge", ident: math.Inf(1), srcRoots: true,
		n: func(r *rand.Rand) int { return 2 + r.Intn(30) },
		oracle: func(g *graph.Graph) map[int64]float64 {
			return vertexValues(ref.MinLabelPropagation(g), math.Inf(1))
		},
	},
	{
		name: "Viterbi", src: progs.Viterbi, pred: "trans", ident: 0, dag: true,
		n: func(r *rand.Rand) int { return 2 + r.Intn(30) },
		// Powers of two: products tie exactly. Zero: F' is not strictly
		// monotone, the program rests on the non-improving proof.
		weight: func(r *rand.Rand) float64 {
			return []float64{0, 0.25, 0.5, 0.5, 1, 0.05 + 0.9*r.Float64()}[r.Intn(6)]
		},
		oracle: func(g *graph.Graph) map[int64]float64 {
			return vertexValues(ref.ViterbiDP(g, 0), 0)
		},
	},
	{
		name: "LCA", src: progs.LCA, pred: "parent", ident: math.Inf(1),
		n: func(r *rand.Rand) int { return 6 + r.Intn(30) }, // the program's source is vertex 5
		oracle: func(g *graph.Graph) map[int64]float64 {
			return vertexValues(ref.BFSDepth(g, 5), math.Inf(1))
		},
	},
	{
		name: "APSP", src: progs.APSP, pred: "edge", ident: math.Inf(1),
		n: func(r *rand.Rand) int { return 2 + r.Intn(9) }, weight: smallInt,
		oracle: func(g *graph.Graph) map[int64]float64 {
			out := map[int64]float64{}
			for i, row := range ref.FloydWarshall(g) {
				for j, d := range row {
					if !math.IsInf(d, 1) {
						out[compiler.EncodePair(int64(i), int64(j))] = d
					}
				}
			}
			return out
		},
	},
}

// randomCase draws a sparse graph (so parts of it are unreachable) with
// parallel edges, and a delete-only or mixed batch that also names
// absent pairs.
func (p supportProg) randomCase(r *rand.Rand) (n int, edges []graph.Edge, mut Mutation) {
	n = p.n(r)
	edge := func() (graph.Edge, bool) {
		s, d := int32(r.Intn(n)), int32(r.Intn(n))
		if p.dag && s > d {
			s, d = d, s
		}
		e := graph.Edge{Src: s, Dst: d, W: 1}
		if p.weight != nil {
			e.W = p.weight(r)
		}
		return e, !p.dag || s != d
	}
	for i := r.Intn(3 * n); i >= 0; i-- {
		e, ok := edge()
		if !ok {
			continue
		}
		edges = append(edges, e)
		if r.Intn(5) == 0 { // parallel edge, possibly another weight
			e2, _ := edge()
			edges = append(edges, graph.Edge{Src: e.Src, Dst: e.Dst, W: e2.W})
		}
	}
	for i := 1 + r.Intn(4); i > 0 && len(edges) > 0; i-- {
		e := edges[r.Intn(len(edges))]
		if r.Intn(6) == 0 {
			e, _ = edge() // probably absent
		}
		mut.Deletes = append(mut.Deletes, graph.Edge{Src: e.Src, Dst: e.Dst})
	}
	if r.Intn(2) == 0 {
		for i := r.Intn(4); i > 0; i-- {
			if e, ok := edge(); ok {
				mut.Inserts = append(mut.Inserts, e)
			}
		}
	}
	return n, edges, mut
}

// mutated applies mut to an edge list the way Mutation is defined.
func mutated(edges []graph.Edge, mut Mutation) []graph.Edge {
	var out []graph.Edge
	for _, e := range edges {
		gone := false
		for _, d := range mut.Deletes {
			gone = gone || (d.Src == e.Src && d.Dst == e.Dst)
		}
		if !gone {
			out = append(out, e)
		}
	}
	return append(out, mut.Inserts...)
}

// oldCone is what the reachability cone this closure replaced erased:
// everything reachable from a delete's target (and, where its initial
// value can go with the edge, its source). It walks the old edges and
// the batch's inserts: a root only known after the mutation (a removed
// initial value) is closed over the mutated graph, which for a
// delete-only batch is a subgraph of the old one.
func oldCone(n int, edges []graph.Edge, mut Mutation, srcRoots bool) []bool {
	in := make([]bool, n)
	var queue []int32
	push := func(v int32) {
		if !in[v] {
			in[v] = true
			queue = append(queue, v)
		}
	}
	for _, d := range mut.Deletes {
		push(d.Dst)
		if srcRoots {
			push(d.Src)
		}
	}
	all := append(append([]graph.Edge(nil), edges...), mut.Inserts...)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range all {
			if e.Src == v {
				push(e.Dst)
			}
		}
	}
	return in
}

// checkSupportCase opens a session on (n, edges), applies mut, and
// checks the three properties of the support closure against the
// oracle. It returns the sizes of the closure and of the cone's share of
// the table.
func checkSupportCase(t *testing.T, p supportProg, label string, n int, edges []graph.Edge, mut Mutation, workers int) (erased, cone int) {
	t.Helper()
	weighted := p.weight != nil
	build := func(es []graph.Edge) *graph.Graph {
		g, err := graph.FromEdges(n, append([]graph.Edge(nil), es...), weighted)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cfg := sessCfg(MRASyncAsync)
	cfg.Workers = workers
	s, err := Open(compilePlan(t, p.src, edgeDB(p.pred)(build(edges))), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := p.oracle(build(edges))
	expectSameFixpoint(t, label+"/open", s.Result().Values, before, p.ident, 1e-9)

	// What ApplyMutation decides for this state, from a twin plan.
	twin := compilePlan(t, p.src, edgeDB(p.pred)(build(edges)))
	refix, err := twin.ApplyMutation(mut, mapTable{s.Result().Values, twin.Op.Identity()})
	if err != nil {
		t.Fatal(err)
	}
	dead := map[int64]bool{}
	for _, k := range refix.Invalidate {
		if _, held := s.Result().Values[k]; !held || dead[k] {
			t.Fatalf("%s: invalidated key %d holds no row or is listed twice", label, k)
		}
		dead[k] = true
	}

	erasedBefore := s.m.met.invalidateKeys.Load()
	res, err := s.Apply(mut)
	if err != nil {
		t.Fatalf("%s: Apply: %v", label, err)
	}
	// (i) the re-fixpoint is the oracle's fixpoint of the mutated graph.
	after := p.oracle(build(mutated(edges, mut)))
	expectSameFixpoint(t, label+"/apply", res.Values, after, p.ident, 1e-9)
	if got := s.m.met.invalidateKeys.Load() - erasedBefore; got != uint64(len(dead)) {
		t.Fatalf("%s: session erased %d keys, the twin plan %d", label, got, len(dead))
	}

	// (ii) soundness: a key whose value got worse was erased.
	worse := func(was, is float64) bool { return is != was && twin.Op.Fold(was, is) == was }
	for k, was := range before {
		is, ok := after[k]
		if !ok {
			is = twin.Op.Identity()
		}
		if worse(was, is) && !dead[k] {
			t.Fatalf("%s: key %d went %v -> %v but was not invalidated (%v)", label, k, was, is, mut)
		}
	}
	// (iii) precision: nothing outside the old cone is erased.
	inCone := oldCone(n, edges, mut, p.srcRoots)
	for k := range dead {
		if _, lo := compiler.DecodePair(k); !inCone[lo] {
			t.Fatalf("%s: key %d invalidated outside the reachability cone (%v)", label, k, mut)
		}
	}
	for k := range before {
		if _, lo := compiler.DecodePair(k); inCone[lo] {
			cone++
		}
	}
	return len(dead), cone
}

// TestSupportClosureProperty: random weighted graphs with zero-weight
// cycles, exact ties, parallel edges and unreachable parts × random
// delete and mixed batches, on the five selective programs. For every
// case the re-fixpoint equals the oracle's, every key whose oracle value
// got worse was invalidated, and nothing outside the reachability cone
// was; on an R-MAT graph the closure is strictly smaller than the cone.
func TestSupportClosureProperty(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for pi, p := range supportProgs {
		p, seed := p, int64(16*pi+1)
		t.Run(p.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			erased, cone := 0, 0
			for i := 0; i < trials; i++ {
				n, edges, mut := p.randomCase(r)
				e, c := checkSupportCase(t, p, fmt.Sprintf("%s#%d", p.name, i), n, edges, mut, 1+i%3)
				erased, cone = erased+e, cone+c
			}
			if erased == 0 || erased >= cone {
				t.Errorf("%d trials erased %d keys of a %d-key cone: the cases never separate the two", trials, erased, cone)
			}
		})
	}
	t.Run("RMAT", func(t *testing.T) {
		g := gen.RMAT(10, 8000, 20, 16)
		edges := g.Edges()
		r := rand.New(rand.NewSource(16))
		var mut Mutation
		for i := 0; i < 20; i++ {
			e := edges[r.Intn(len(edges))]
			mut.Deletes = append(mut.Deletes, graph.Edge{Src: e.Src, Dst: e.Dst})
		}
		erased, cone := checkSupportCase(t, supportProgs[0], "SSSP/rmat", g.NumVertices(), edges, mut, 2)
		if erased >= cone {
			t.Errorf("support closure erased %d keys, the cone holds %d: not strictly smaller", erased, cone)
		}
		t.Logf("R-MAT 2^10: closure %d keys, cone %d keys", erased, cone)
	})
}

// TestSessionNoopDeletesInvalidateNothing pins the documented no-ops: a
// delete naming an edge that is not in the graph, and one naming an
// in-edge that loses to another, erase nothing and reseed nothing.
func TestSessionNoopDeletesInvalidateNothing(t *testing.T) {
	edges := []graph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 0, Dst: 2, W: 1},
		{Src: 2, Dst: 1, W: 10},                        // loses to 0->1
		{Src: 1, Dst: 3, W: 1}, {Src: 1, Dst: 3, W: 5}, // the heavier parallel edge supports nothing either
		{Src: 3, Dst: 4, W: 1},
	}
	for _, c := range []struct {
		name string
		del  graph.Edge
	}{
		{"absent", graph.Edge{Src: 4, Dst: 1}},
		{"absent-from-source", graph.Edge{Src: 0, Dst: 3}},
		{"losing-in-edge", graph.Edge{Src: 2, Dst: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, err := graph.FromEdges(5, append([]graph.Edge(nil), edges...), true)
			if err != nil {
				t.Fatal(err)
			}
			plan := compilePlan(t, progs.SSSP, edgeDB("edge")(g))
			s, err := Open(plan, sessCfg(MRAAsync))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			mut := Mutation{Deletes: []graph.Edge{c.del}}
			g2, _ := graph.FromEdges(5, append([]graph.Edge(nil), edges...), true)
			twin := compilePlan(t, progs.SSSP, edgeDB("edge")(g2))
			refix, err := twin.ApplyMutation(mut, mapTable{s.Result().Values, math.Inf(1)})
			if err != nil {
				t.Fatal(err)
			}
			if len(refix.Reseed) != 0 || len(refix.Invalidate) != 0 {
				t.Errorf("Reseed = %v, Invalidate = %v, want both empty", refix.Reseed, refix.Invalidate)
			}
			res, err := s.Apply(mut)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Master.Counters["delete.invalidate.keys"]; got != 0 {
				t.Errorf("delete.invalidate.keys = %d, want 0", got)
			}
			if got := res.Master.Counters["delta.reseed.keys"]; got != 0 {
				t.Errorf("delta.reseed.keys = %d, want 0", got)
			}
			want := map[int64]float64{0: 0, 1: 1, 2: 1, 3: 2, 4: 3}
			expectSameFixpoint(t, c.name, res.Values, want, math.Inf(1), 0)
		})
	}
}

// TestSessionSelectiveAttributeChurn covers the closure's other roots.
// No catalogue program is selective and reads a graph-derived column,
// so these two are made up: path cost as the sum of out-degrees (a
// source column the batch moves) and of in-degrees (a destination
// column). Every Apply is compared with a cold run on the mutated graph.
func TestSessionSelectiveAttributeChurn(t *testing.T) {
	for name, src := range map[string]string{
		"source-column": `
r0. deg(X,count[Y]) :- edge(X,Y).
r1. d(X,v) :- X=0, v=0.
r2. d(Y,min[v1]) :- d(X,v), edge(X,Y), deg(X,c), v1 = v + c.`,
		"destination-column": `
r0. indeg(Y,count[X]) :- edge(X,Y).
r1. d(X,v) :- X=0, v=0.
r2. d(Y,min[v1]) :- d(X,v), edge(X,Y), indeg(Y,c), v1 = v + c.`,
	} {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				p := sessionProg{name: name, src: src, ident: math.Inf(1), tol: 1e-9, db: edgeDB("edge")}
				g := gen.Uniform(40, 160, 0, seed)
				n, edges, cfg := g.NumVertices(), g.Edges(), sessCfg(MRASyncAsync)
				s, err := Open(compilePlan(t, src, p.db(g)), cfg)
				if err != nil {
					t.Fatal(err)
				}
				r := rand.New(rand.NewSource(seed))
				for _, b := range [][2]int{{0, 3}, {3, 3}, {3, 0}, {0, 6}} {
					var mut Mutation
					mut, edges = randMutation(r, edges, n, b[0], b[1], false, unitW)
					res, err := s.Apply(mut)
					if err != nil {
						t.Fatal(err)
					}
					expectSameFixpoint(t, name, res.Values, scratchFixpoint(t, p, n, edges, false, cfg), p.ident, p.tol)
				}
				s.Close()
			}
		})
	}
}

// TestSessionRefusesUnprovenDelete pins the program the closure would
// get wrong: with F' = min(v,w), 1 and 2 hold 1 through a cycle that the
// deleted edge started with the worse value 3, so the edge does not look
// like a supporter and both would keep a value nothing derives. The
// compiler cannot prove such an F' safe, so the delete is refused with
// the session intact; inserts are still folded.
func TestSessionRefusesUnprovenDelete(t *testing.T) {
	const src = `
r1. d(X,v) :- X=0, v=10.
r2. d(Y,min[v1]) :- d(X,v), edge(X,Y,w), v1 = min(v,w).`
	g, err := graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1, W: 3}, {Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 1, W: 100},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(compilePlan(t, src, edgeDB("edge")(g)), sessCfg(MRAAsync))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	inf := math.Inf(1)
	expectSameFixpoint(t, "open", s.Result().Values, map[int64]float64{0: 10, 1: 1, 2: 1}, inf, 0)

	_, err = s.Apply(Mutation{Deletes: []graph.Edge{{Src: 0, Dst: 1}}})
	lic := s.plan.Info.Facts.Deletes
	if lic.Kind != analyzer.DeleteRefused || err == nil ||
		!strings.Contains(err.Error(), "cannot delete") || !strings.Contains(err.Error(), lic.Reason) {
		t.Fatalf("delete under F' = min(v,w): err = %v, want a refusal quoting the facts: %s", err, lic)
	}
	if s.Err() != nil || s.MutEpoch() != 0 || g.NumEdges() != 3 {
		t.Fatalf("refused delete touched the session: Err = %v, MutEpoch = %d, %d edges", s.Err(), s.MutEpoch(), g.NumEdges())
	}
	res, err := s.Apply(Mutation{Inserts: []graph.Edge{{Src: 2, Dst: 3, W: 7}}})
	if err != nil {
		t.Fatalf("insert after the refused delete: %v", err)
	}
	expectSameFixpoint(t, "insert", res.Values, map[int64]float64{0: 10, 1: 1, 2: 1, 3: 1}, inf, 0)
}

// TestSessionRefusesDeleteOnDataPremise: Viterbi's delete licence is a
// discount, which holds while every ΔX¹ value is >= 0. With one negative
// start the program is the same and the data is not: the delete is
// refused naming the premise and the key that fails it.
func TestSessionRefusesDeleteOnDataPremise(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1, W: 0.5}, {Src: 1, Dst: 2, W: 0.5}}, true)
	if err != nil {
		t.Fatal(err)
	}
	open := func(src string) *Session {
		s, err := Open(compilePlan(t, src, edgeDB("trans")(g)), sessCfg(MRAAsync))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	del := Mutation{Deletes: []graph.Edge{{Src: 1, Dst: 2}}}

	s := open(progs.Viterbi + "r3. vit(X,p) :- X=2, p = -3.\n")
	lic := s.plan.Info.Facts.Deletes
	_, err = s.Apply(del)
	if lic.Kind != analyzer.DeleteDiscount || err == nil ||
		!strings.Contains(err.Error(), lic.Premise) || !strings.Contains(err.Error(), "key 2 starts at -3") {
		t.Errorf("delete with a negative start: err = %v, want a refusal on %q naming key 2", err, lic.Premise)
	}
	s.Close()

	s = open(progs.Viterbi)
	defer s.Close()
	res, err := s.Apply(del)
	if err != nil {
		t.Fatalf("delete with every start >= 0: %v", err)
	}
	expectSameFixpoint(t, "delete", res.Values, map[int64]float64{0: 1, 1: 0.5}, math.Inf(-1), 0)
}

// TestDeltaWorkFollowsBatch: on R-MAT 2^16 / 700 k edges a 10-edge delete
// batch reads a fraction of the graph — the boundary scan it replaced
// read every edge before anything else — and a session that only inserts
// never builds the in-edge index.
func TestDeltaWorkFollowsBatch(t *testing.T) {
	g := gen.RMAT(16, 700000, 100, 27)
	edges, n := g.Edges(), g.NumVertices()
	cfg := sessCfg(MRASyncAsync)
	cfg.Workers = 2
	s, err := Open(compilePlan(t, progs.SSSP, edgeDB("edge")(g)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := rand.New(rand.NewSource(27))
	counter := func(res *Result, name string) uint64 { return res.Master.Counters[name] }

	var last *Result
	for b := 0; b < 20; b++ {
		var mut Mutation
		for i := 0; i < 10; i++ {
			mut.Inserts = append(mut.Inserts, graph.Edge{Src: int32(r.Intn(n)), Dst: int32(r.Intn(n)), W: 1 + 99*r.Float64()})
		}
		if last, err = s.Apply(mut); err != nil {
			t.Fatal(err)
		}
	}
	if got := counter(last, "delta.index.rebuilds"); got != 0 {
		t.Errorf("delta.index.rebuilds = %d after 20 insert-only batches, want 0", got)
	}

	// Half the deletes are edges of the shortest-path tree, so the batch
	// is sure to erase keys; the other half are drawn from all edges.
	var mut Mutation
	for len(mut.Deletes) < 10 {
		e := edges[r.Intn(len(edges))]
		d, ok := last.Values[int64(e.Src)]
		if len(mut.Deletes) >= 5 || (ok && d+e.W == last.Values[int64(e.Dst)]) {
			mut.Deletes = append(mut.Deletes, graph.Edge{Src: e.Src, Dst: e.Dst})
		}
	}
	res, err := s.Apply(mut)
	if err != nil {
		t.Fatal(err)
	}
	read := counter(res, "delta.edges.read") - counter(last, "delta.edges.read")
	t.Logf("10 deletes of %d edges: %d keys erased, %d border rows, %d edges read",
		len(edges), counter(res, "delete.invalidate.keys"), counter(res, "delta.border.rows")-counter(last, "delta.border.rows"), read)
	if counter(res, "delete.invalidate.keys") == 0 {
		t.Fatal("the delete batch erased nothing: it measures no boundary")
	}
	if read == 0 || read >= uint64(len(edges))/4 {
		t.Errorf("delta.edges.read = %d for a 10-edge delete batch on %d edges, want under a quarter", read, len(edges))
	}
	if got := counter(res, "delta.index.rebuilds"); got != 1 {
		t.Errorf("delta.index.rebuilds = %d after the first erasing batch, want 1", got)
	}
}

// neumaierSum is Σacc over a table, summed with Neumaier's compensation.
func neumaierSum(tab monotable.Table) float64 {
	var sum, comp float64
	tab.Range(func(_ int64, acc float64) bool {
		s := sum + acc
		if math.Abs(sum) >= math.Abs(acc) {
			comp += (sum - s) + acc
		} else {
			comp += (acc - s) + sum
		}
		sum = s
		return true
	})
	return sum + comp
}

// TestApplyKeepsAccSumExact: an Apply erases the support closure outside
// the monotone fold the running Σacc follows, so each erased row's value
// comes out of its owner's sum as it goes. After each of 50 batches that
// delete, every worker's running sum is its table's, on Dense (SSSP) and
// Sparse (APSP) shards, and an ε-SSSP session, whose stop reads those
// sums, still lands on Dijkstra's fixpoint.
func TestApplyKeepsAccSumExact(t *testing.T) {
	for _, c := range []struct {
		name, src string
		g         *graph.Graph
		oracle    bool
	}{
		{"SSSP/Dense", progs.SSSP, gen.Uniform(300, 1500, 50, 61), false},
		{"APSP/Sparse", progs.APSP, gen.Uniform(40, 200, 20, 67), false},
		{"ε-SSSP", epsSSSP, gen.Uniform(300, 1500, 50, 61), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			n, edges := c.g.NumVertices(), c.g.Edges()
			s, err := Open(compilePlan(t, c.src, edgeDB("edge")(c.g)), sessCfg(MRASyncAsync))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			r := rand.New(rand.NewSource(61))
			var res *Result
			for b := 0; b < 50; b++ {
				var mut Mutation
				mut, edges = randMutation(r, edges, n, 3, 6, false, func(r *rand.Rand) float64 { return 1 + 49*r.Float64() })
				if res, err = s.Apply(mut); err != nil {
					t.Fatal(err)
				}
				for _, w := range s.workers {
					if want := neumaierSum(w.table); math.Abs(w.accSum-want) > 1e-9*math.Max(1, math.Abs(want)) {
						t.Fatalf("batch %d: worker %d's running Σacc = %v, its table sums to %v", b, w.id, w.accSum, want)
					}
				}
				if c.oracle {
					g, err := graph.FromEdges(n, slices.Clone(edges), true)
					if err != nil {
						t.Fatal(err)
					}
					expectSameFixpoint(t, fmt.Sprintf("batch %d", b), res.Values, vertexOracle(ref.Dijkstra(g, 0)), math.Inf(1), 1e-9)
				}
			}
			if res.Master.Counters["delete.invalidate.keys"] == 0 {
				t.Fatal("no batch erased a key: the test measures nothing")
			}
		})
	}
}
