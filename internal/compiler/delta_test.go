package compiler

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/progs"
)

// oracleApplyMutation is ApplyMutation as it stood before the candidate
// in-edge index and the retained scratch: the boundary found by testing
// every row of the graph, four flag vectors and a reseed map made per
// batch. ApplyMutation must compute the same function, bit for bit.
func oracleApplyMutation(p *Plan, mut Mutation, tbl AccTable) (*Refixpoint, error) {
	shape := p.shape
	if shape == nil {
		return nil, errf("plan has no retained body shape; was it produced by Compile?")
	}
	n := int32(p.N)
	for _, set := range []struct {
		what  string
		edges []graph.Edge
	}{{"insert", mut.Inserts}, {"delete", mut.Deletes}} {
		for _, e := range set.edges {
			if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n {
				return nil, errf("%s edge (%d,%d) outside the vertex universe [0,%d) fixed at Open",
					set.what, e.Src, e.Dst, n)
			}
			if e.W != e.W && set.what == "insert" {
				// No aggregate orders a NaN: every key it reached would be
				// NaN and the fixpoint would never be reached.
				return nil, errf("insert edge (%d,%d) has a NaN weight", e.Src, e.Dst)
			}
		}
	}
	if mut.Empty() {
		return &Refixpoint{}, nil
	}

	// Orient the mutation the way the propagation graph is oriented.
	orient := func(edges []graph.Edge) []graph.Edge {
		if !shape.Reversed {
			return edges
		}
		out := make([]graph.Edge, len(edges))
		for i, e := range edges {
			out[i] = graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W}
		}
		return out
	}
	oIns, oDel := orient(mut.Inserts), orient(mut.Deletes)

	oldInit := p.InitMRA
	selective := p.Op.Selective()
	id := p.Op.Identity()
	scratch := p.NewScratch()
	reseed := map[int64]float64{}
	loOf := func(key int64) int64 {
		if p.PairKeys {
			_, lo := DecodePair(key)
			return lo
		}
		return key
	}
	// eachOn visits the parked accumulation of every key whose
	// propagated component is a flagged vertex: one row read per flagged
	// vertex, or for pair keys (any hi over a flagged lo) one pass over the
	// table, which a batch that flags nothing skips.
	eachOn := func(rows []bool, f func(key int64, acc float64)) {
		if p.PairKeys {
			if slices.Contains(rows, true) {
				tbl.Range(func(key int64, acc float64) {
					if rows[loOf(key)] {
						f(key, acc)
					}
				})
			}
			return
		}
		for v, on := range rows {
			if !on {
				continue
			}
			if acc := tbl.Acc(int64(v)); acc != id {
				f(int64(v), acc)
			}
		}
	}
	// correct folds sign·A·x_old over the flagged rows into the reseed,
	// through the graph and columns as they stand at the call.
	correct := func(rows []bool, sign float64) {
		eachOn(rows, func(key int64, acc float64) {
			p.PropagateInto(scratch, key, acc, func(dst int64, v float64) {
				if v != 0 {
					reseed[dst] += sign * v
				}
			})
		})
	}

	// 0. Old-state work, over the graph the parked fixpoint was computed
	// on. touched flags the rows whose surviving keys re-propagate over
	// the new graph: for a combining aggregate every row the batch
	// rewrites (the only rows that differ between the two graphs), for a
	// selective one the rows that gain edges — a row that only loses
	// edges offers its targets nothing new.
	touched := make([]bool, p.N)
	for _, e := range oIns {
		touched[e.Src] = true
	}
	sup := oracleSupport{p: p, tbl: tbl, scratch: scratch, dead: map[int64]struct{}{}}
	if selective {
		// Inputs are only removed or weakened by a delete or by a relation
		// the batch re-derives; inserts alone fold better values. Refuse
		// before anything is changed.
		if len(oDel) > 0 || len(shape.otherHeads)+len(shape.derivedHeads) > 0 {
			if err := p.deleteSound(); err != nil {
				return nil, err
			}
		}
		// Roots: a deleted edge whose candidate its target's value does
		// not beat. An absent or losing edge roots nothing.
		gone := make(map[int64]struct{}, len(oDel))
		delSrc := make([]bool, p.N)
		for _, e := range oDel {
			gone[int64(e.Src)<<32|int64(e.Dst)] = struct{}{}
			delSrc[e.Src] = true
		}
		eachOn(delSrc, func(key int64, acc float64) {
			src := loOf(key) << 32
			p.PropagateInto(scratch, key, acc, func(dst int64, cand float64) {
				if _, ok := gone[src|loOf(dst)]; ok {
					sup.admit(dst, cand)
				}
			})
		})
		sup.grow()
	} else {
		for _, e := range oDel {
			touched[e.Src] = true
		}
		correct(touched, -1)
	}

	// 1. Mutate the base graph (and the transposed twin when the body is
	// an in-neighbor formulation) in place; a join reads it where it lies.
	if _, err := p.DB.MutateGraph(shape.Join.Name, mut.Inserts, mut.Deletes); err != nil {
		return nil, err
	}
	if shape.Reversed {
		if _, err := p.Graph.ApplyEdgeMutations(oIns, oDel); err != nil {
			return nil, err
		}
	}
	p.Kernel.noteMutation(mut.Inserts)

	// 2. Re-derive the compiler-materialised supporting relations (they
	// may aggregate over the graph, e.g. PageRank's degree view).
	for _, h := range shape.otherHeads {
		p.DB.DropRelation(h)
	}
	for _, h := range shape.derivedHeads {
		p.DB.DropRelation(h)
	}
	if err := evalOtherRules(p.Info, p.DB); err != nil {
		return nil, err
	}
	if err := evalDerivedRules(p.Info, p.DB); err != nil {
		return nil, err
	}

	// 3. Reload attribute columns into fresh buffers; diff against the
	// still-installed old contents to find which vertices' inputs moved.
	// The columns stay old until install() copies the fresh values into
	// the live backing arrays the compiled closures captured.
	load := func(cols []attrCol) (fresh [][]float64, changed []int32, err error) {
		fresh = make([][]float64, len(cols))
		for i, a := range cols {
			if fresh[i], err = p.DB.VertexColumn(a.pred, p.N, 0); err != nil {
				return nil, nil, err
			}
			for v := range fresh[i] {
				if fresh[i][v] != a.col[v] {
					changed = append(changed, int32(v))
				}
			}
		}
		return fresh, changed, nil
	}
	srcFresh, srcChanged, err := load(shape.srcAttrs)
	if err != nil {
		return nil, err
	}
	dstFresh, dstChanged, err := load(shape.dstAttrs)
	if err != nil {
		return nil, err
	}
	install := func() {
		for i, a := range shape.srcAttrs {
			copy(a.col, srcFresh[i])
		}
		for i, a := range shape.dstAttrs {
			copy(a.col, dstFresh[i])
		}
	}

	if !selective {
		// Rows whose attribute inputs moved but whose edges did not: the
		// old graph's rows still stand, under the old columns.
		var moved []int32
		for _, v := range srcChanged {
			if !touched[v] {
				moved = append(moved, v)
			}
		}
		if len(dstChanged) > 0 {
			at := flags(p.N, dstChanged)
			for v := int32(0); v < n; v++ {
				if !touched[v] && pointsInto(p.Graph, v, at) {
					moved = append(moved, v)
				}
			}
		}
		if len(moved) > 0 {
			correct(flags(p.N, moved), -1)
		}
		install()
		for _, v := range moved {
			touched[v] = true
		}
		correct(touched, +1)
		if err := buildInits(p, shape); err != nil {
			return nil, err
		}
		// Δb: signed ΔX¹ diff (identity is 0 for combining aggregates).
		diffInits(oldInit, p.InitMRA, 0, func(k int64, ov, nv float64) {
			if nv != ov {
				reseed[k] += nv - ov
			}
		})
		for k, v := range reseed {
			if v == 0 { // exact cancellation: nothing to fold
				delete(reseed, k)
			}
		}
		return &Refixpoint{Reseed: kvList(reseed)}, nil
	}

	// Selective path. Weakened inputs root the closure like deletes do:
	// a moved source column by the candidates the old column produced, a
	// moved destination column by every key it feeds, a removed or
	// worsened initial value by that value. They are only known now, so
	// their share of the closure walks the mutated graph — the old one
	// but for deleted edges, each tested above, and inserted ones, which
	// can only add keys.
	if len(srcChanged) > 0 {
		eachOn(flags(p.N, srcChanged), func(key int64, acc float64) {
			p.PropagateInto(scratch, key, acc, sup.admit)
		})
		for _, v := range srcChanged {
			touched[v] = true // fresh candidates out of v
		}
	}
	if len(dstChanged) > 0 {
		eachOn(flags(p.N, dstChanged), sup.admit)
	}
	install()
	if err := buildInits(p, shape); err != nil {
		return nil, err
	}
	diffInits(oldInit, p.InitMRA, id, func(k int64, ov, nv float64) {
		if nv != ov && p.Op.Fold(ov, nv) == ov {
			sup.admit(k, ov)
		}
	})
	sup.grow()

	foldReseed := func(k int64, v float64) {
		if cur, ok := reseed[k]; ok {
			reseed[k] = p.Op.Fold(cur, v)
		} else {
			reseed[k] = v
		}
	}
	// ΔX¹ entries: an erased key re-derives from its initial value; a
	// surviving one only replays (idempotently) a strict improvement.
	diffInits(oldInit, p.InitMRA, id, func(k int64, ov, nv float64) {
		if _, dead := sup.dead[k]; nv != id && (dead || p.Op.Fold(ov, nv) != ov) {
			foldReseed(k, nv)
		}
	})

	// Boundary scan over the NEW graph: a surviving key on a touched row
	// (inserted edges, fresh source inputs) re-propagates everywhere, one
	// with an edge into the closure re-propagates into it. deadAt, the
	// vertices erased keys sit at, screens both tests without a map probe
	// per edge.
	deadAt := make([]bool, p.N)
	for _, k := range sup.members {
		deadAt[loOf(k)] = true
	}
	isDead := func(key int64) bool {
		if !deadAt[loOf(key)] {
			return false
		}
		_, dead := sup.dead[key]
		return dead
	}
	border := touched
	if len(sup.members) > 0 {
		border = make([]bool, p.N)
		for v := int32(0); v < n; v++ {
			border[v] = touched[v] || pointsInto(p.Graph, v, deadAt)
		}
	}
	eachOn(border, func(key int64, acc float64) {
		if isDead(key) {
			return // erased: its accumulation is stale
		}
		everywhere := touched[loOf(key)]
		p.PropagateInto(scratch, key, acc, func(dst int64, v float64) {
			if everywhere || isDead(dst) {
				foldReseed(dst, v)
			}
		})
	})

	return &Refixpoint{Reseed: kvList(reseed), Invalidate: sup.members}, nil
}

// oracleSupport is the closure over a map of keys, as it was.
type oracleSupport struct {
	p       *Plan
	tbl     AccTable
	scratch []float64
	dead    map[int64]struct{}
	members []int64 // dead, in the order admitted
	queue   []KV    // members whose out-edges are still to be walked, with their value
}

// admit adds key to the closure if cand is no worse than its value.
func (s *oracleSupport) admit(key int64, cand float64) {
	if _, in := s.dead[key]; in {
		return
	}
	acc := s.tbl.Acc(key)
	if acc == s.p.Op.Identity() || s.p.Op.Fold(cand, acc) != cand {
		return
	}
	s.dead[key] = struct{}{}
	s.members = append(s.members, key)
	s.queue = append(s.queue, KV{key, acc})
}

// grow follows, from every queued member, the out-edges of the graph as
// it stands that pass the admit test.
func (s *oracleSupport) grow() {
	for len(s.queue) > 0 {
		kv := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.p.PropagateInto(s.scratch, kv.K, kv.V, s.admit)
	}
}

// flags marks the listed vertices in a vector over [0,n).
func flags(n int, vs []int32) []bool {
	at := make([]bool, n)
	for _, v := range vs {
		at[v] = true
	}
	return at
}

// pointsInto reports whether v has an out-edge to a flagged vertex.
func pointsInto(g *graph.Graph, v int32, at []bool) bool {
	tg, _ := g.Neighbors(v)
	for _, t := range tg {
		if at[t] {
			return true
		}
	}
	return false
}

// mapTable is a table state as an AccTable; Range goes by key, so a run
// repeats.
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
	for _, kv := range kvList(t.vals) {
		if kv.V != t.ident {
			f(kv.K, kv.V)
		}
	}
}

// settle folds seeds into tbl and runs p to its fixpoint, one key at a
// time: a worklist for a selective aggregate, rounds of deltas (to 1e-12)
// for a combining one.
func settle(p *Plan, tbl mapTable, seeds []KV) {
	scratch := p.NewScratch()
	if p.Op.Selective() {
		var work []int64
		fold := func(k int64, v float64) {
			cur := tbl.Acc(k)
			if nv := p.Op.Fold(cur, v); nv != cur {
				tbl.vals[k] = nv
				work = append(work, k)
			}
		}
		for _, kv := range seeds {
			fold(kv.K, kv.V)
		}
		for len(work) > 0 {
			k := work[len(work)-1]
			work = work[:len(work)-1]
			p.PropagateInto(scratch, k, tbl.vals[k], fold)
		}
		return
	}
	for round := 0; round < 200 && len(seeds) > 0; round++ {
		next := map[int64]float64{}
		for _, kv := range seeds {
			tbl.vals[kv.K] += kv.V
			p.PropagateInto(scratch, kv.K, kv.V, func(dst int64, v float64) { next[dst] += v })
		}
		for k, v := range next {
			if math.Abs(v) < 1e-12 {
				delete(next, k)
			}
		}
		seeds = kvList(next)
	}
}

// seqProg is one program of the sequence test with the graphs it takes.
type seqProg struct {
	name, src, pred string
	n               int
	dag             bool                       // edges keep src < dst
	weight          func(r *rand.Rand) float64 // nil = unweighted
}

// smallInt draws from {0,1,2,3}: zero-weight cycles and exact ties are
// the rule, not the exception.
func smallInt(r *rand.Rand) float64 { return float64(r.Intn(4)) }

var seqProgs = []seqProg{
	{name: "SSSP", src: progs.SSSP, pred: "edge", n: 24, weight: smallInt},
	{name: "CC", src: progs.CC, pred: "edge", n: 24},
	{name: "Viterbi", src: progs.Viterbi, pred: "trans", n: 24, dag: true,
		weight: func(r *rand.Rand) float64 {
			return []float64{0, 0.25, 0.5, 0.5, 1, 0.05 + 0.9*r.Float64()}[r.Intn(6)]
		}},
	// An in-neighbour formulation: the plan propagates over a transposed
	// twin, and so does its index.
	{name: "reversed", pred: "edge", n: 24, weight: smallInt, src: `
r1. d(X,v) :- X=0, v=0.
r2. d(Y,min[v1]) :- d(X,v), edge(Y,X,w), v1 = v + w.`},
	{name: "APSP", src: progs.APSP, pred: "edge", n: 7, weight: smallInt},
	// Combining, over a destination column the batch moves: the rows to
	// correct are the in-neighbours of the moved vertices.
	{name: "dst-column-sum", pred: "edge", n: 24, src: `
r0. indeg(Y,count[X]) :- edge(X,Y).
r1. I(X,k) :- X=0, k = 1.
r2. K(i+1,y,sum[k1]) :- I(y,j), k1 = j;
                     :- K(i,x,k), edge(x,y), indeg(y,c), k1 = 0.5 * k / c;
                     {sum[Δk1] < 0.001}.`},
}

func (sp seqProg) edge(r *rand.Rand) (graph.Edge, bool) {
	s, d := int32(r.Intn(sp.n)), int32(r.Intn(sp.n))
	if sp.dag && s > d {
		s, d = d, s
	}
	e := graph.Edge{Src: s, Dst: d, W: 1}
	if sp.weight != nil {
		e.W = sp.weight(r)
	}
	return e, !sp.dag || s != d
}

// batch draws a mutation and applies it to edges the way Mutation is
// defined. Deletes name present pairs and absent ones; inserts are fresh
// edges, parallels of present ones, and pairs an earlier batch deleted.
func (sp seqProg) batch(r *rand.Rand, ins, del bool, edges, gone *[]graph.Edge) (mut Mutation) {
	for i := 1 + r.Intn(3); del && i > 0; i-- {
		e, _ := sp.edge(r)
		if len(*edges) > 0 && r.Intn(5) > 0 {
			e = (*edges)[r.Intn(len(*edges))]
		}
		mut.Deletes = append(mut.Deletes, graph.Edge{Src: e.Src, Dst: e.Dst})
		*gone = append(*gone, e)
		*edges = slices.DeleteFunc(*edges, func(x graph.Edge) bool { return x.Src == e.Src && x.Dst == e.Dst })
	}
	for i := 1 + r.Intn(4); ins && i > 0; i-- {
		e, ok := sp.edge(r)
		switch pick := r.Intn(6); {
		case pick == 0 && len(*gone) > 0:
			e, ok = (*gone)[r.Intn(len(*gone))], true
		case pick == 1 && len(*edges) > 0:
			was := (*edges)[r.Intn(len(*edges))]
			e.Src, e.Dst, ok = was.Src, was.Dst, true
		}
		if ok {
			mut.Inserts = append(mut.Inserts, e)
			*edges = append(*edges, e)
		}
	}
	return mut
}

func sameKVs(a, b []KV) bool {
	return slices.EqualFunc(a, b, func(x, y KV) bool {
		return x.K == y.K && math.Float64bits(x.V) == math.Float64bits(y.V)
	})
}

// TestDeltaMatchesFullScanOracle drives ApplyMutation and the full-scan
// oracle side by side, on twin plans over one table, through insert-only,
// delete-only and mixed sequences on small graphs (parallel edges,
// zero-weight cycles, deleted pairs re-inserted, absent pairs deleted).
// Per batch Reseed and Invalidate are the oracle's bit for bit, the
// index's candidates cover the closure's true in-neighbours, and a
// selective table settles to the cold fixpoint of the mutated graph. The
// graphs are small enough for the index to be rebuilt many times over.
func TestDeltaMatchesFullScanOracle(t *testing.T) {
	for pi, sp := range seqProgs {
		for ki, kind := range []struct {
			name     string
			ins, del bool
			density  int
		}{{"insert", true, false, 2}, {"delete", false, true, 16}, {"mixed", true, true, 3}} {
			sp, seed := sp, int64(100*pi+ki+1)
			t.Run(sp.name+"/"+kind.name, func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				var edges, gone []graph.Edge
				for i := kind.density * sp.n; i > 0; i-- {
					if e, ok := sp.edge(r); ok {
						edges = append(edges, e)
					}
				}
				plan := func() *Plan {
					g, err := graph.FromEdges(sp.n, slices.Clone(edges), sp.weight != nil)
					if err != nil {
						t.Fatal(err)
					}
					db := edb.NewDB()
					db.SetGraph(sp.pred, g)
					return compile(t, sp.src, db)
				}
				p, twin := plan(), plan()
				tbl := mapTable{map[int64]float64{}, p.Op.Identity()}
				settle(p, tbl, p.InitMRA)

				builds, erased := 0, 0
				for b := 0; b < 200; b++ {
					label := fmt.Sprintf("batch %d", b)
					mut := sp.batch(r, kind.ins, kind.del, &edges, &gone)
					got, err := p.ApplyMutation(mut, tbl)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					want, err := oracleApplyMutation(twin, mut, tbl)
					if err != nil {
						t.Fatalf("%s: oracle: %v", label, err)
					}
					if !sameKVs(got.Reseed, want.Reseed) {
						t.Fatalf("%s %v:\nReseed %v\noracle %v", label, mut, got.Reseed, want.Reseed)
					}
					if !slices.Equal(got.Invalidate, want.Invalidate) {
						t.Fatalf("%s %v:\nInvalidate %v\noracle     %v", label, mut, got.Invalidate, want.Invalidate)
					}
					if !slices.Equal(p.Graph.Edges(), twin.Graph.Edges()) {
						t.Fatalf("%s: the two plans' graphs differ", label)
					}
					if got.IndexBuilt {
						builds++
					}
					erased += len(got.Invalidate)
					checkCandidates(t, label, p, got.Invalidate)

					for _, k := range got.Invalidate {
						delete(tbl.vals, k)
					}
					settle(p, tbl, got.Reseed)
					if p.Op.Selective() {
						cold := mapTable{map[int64]float64{}, p.Op.Identity()}
						settle(p, cold, p.InitMRA)
						if !sameKVs(kvList(tbl.vals), kvList(cold.vals)) {
							t.Fatalf("%s %v: settled to\n%v\ncold fixpoint\n%v", label, mut, kvList(tbl.vals), kvList(cold.vals))
						}
					}
				}
				switch {
				case !p.Op.Selective():
					// Every batch moves the in-degree column and asks for its in-neighbours.
					if builds < 3 {
						t.Errorf("index built %d times: the sequence never crosses the rebuild threshold", builds)
					}
				case !kind.del && (builds != 0 || p.in != nil):
					t.Errorf("an insert-only sequence built the index %d times", builds)
				case kind.del && (erased == 0 || builds < 3):
					t.Errorf("%d keys erased, index built %d times: the sequence never crosses the rebuild threshold", erased, builds)
				}
			})
		}
	}
}

// checkCandidates: the index names every row with an edge into a vertex
// the closure erased a key at.
func checkCandidates(t *testing.T, label string, p *Plan, closure []int64) {
	t.Helper()
	if len(closure) == 0 {
		return
	}
	if p.in == nil {
		t.Fatalf("%s: a batch erased %d keys and left no index", label, len(closure))
	}
	at := vset{on: make([]bool, p.N)}
	for _, k := range closure {
		at.add(int32(p.lo(k)))
	}
	cand := make([]bool, p.N)
	p.in.into(&at, func(s int32) { cand[s] = true })
	for v := int32(0); v < int32(p.N); v++ {
		if pointsInto(p.Graph, v, at.on) && !cand[v] {
			t.Fatalf("%s: row %d points into the closure %v and is no candidate", label, v, closure)
		}
	}
}

// TestApplyMutationBytesFollowBatch: what a batch allocates does not grow
// with the graph. The same two batches go to an SSSP plan over an R-MAT
// component of 2^12 vertices and to one whose universe is 2^16, the rest
// of it a 300 k-edge component the source does not reach; the first batch
// makes the scratch and the index, the second is measured.
func TestApplyMutationBytesFollowBatch(t *testing.T) {
	small := gen.RMAT(12, 40000, 20, 7).Edges()
	big := slices.Clone(small)
	for _, e := range gen.RMAT(15, 300000, 20, 8).Edges() {
		big = append(big, graph.Edge{Src: e.Src + 1<<15, Dst: e.Dst + 1<<15, W: e.W})
	}
	r := rand.New(rand.NewSource(7))
	var muts [2]Mutation
	for i := range muts {
		for j := 0; j < 10; j++ {
			e := small[r.Intn(len(small))]
			muts[i].Deletes = append(muts[i].Deletes, graph.Edge{Src: e.Src, Dst: e.Dst})
			muts[i].Inserts = append(muts[i].Inserts, graph.Edge{Src: int32(r.Intn(1 << 12)), Dst: int32(r.Intn(1 << 12)), W: 1 + 19*r.Float64()})
		}
	}
	bytes := func(n int, edges []graph.Edge) (uint64, *Refixpoint) {
		g, err := graph.FromEdges(n, edges, true)
		if err != nil {
			t.Fatal(err)
		}
		db := edb.NewDB()
		db.SetGraph("edge", g)
		p := compile(t, progs.SSSP, db)
		tbl := mapTable{map[int64]float64{}, p.Op.Identity()}
		settle(p, tbl, p.InitMRA)
		first, err := p.ApplyMutation(muts[0], tbl)
		if err != nil {
			t.Fatal(err)
		}
		if len(first.Invalidate) == 0 || !first.IndexBuilt {
			t.Fatalf("the first batch erased %d keys (index built: %v): it has to make the index", len(first.Invalidate), first.IndexBuilt)
		}
		for _, k := range first.Invalidate {
			delete(tbl.vals, k)
		}
		settle(p, tbl, first.Reseed)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		second, err := p.ApplyMutation(muts[1], tbl)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, second
	}
	atSmall, refixSmall := bytes(1<<12, small)
	atBig, refixBig := bytes(1<<16, big)
	if !sameKVs(refixSmall.Reseed, refixBig.Reseed) || !slices.Equal(refixSmall.Invalidate, refixBig.Invalidate) || refixBig.IndexBuilt {
		t.Fatalf("the batch did different work on the two graphs (index rebuilt on the large one: %v)", refixBig.IndexBuilt)
	}
	t.Logf("bytes per batch: %d at N = 2^12, %d at N = 2^16 (%d keys erased, %d reseeded, %d edges read)",
		atSmall, atBig, len(refixBig.Invalidate), len(refixBig.Reseed), refixBig.EdgesRead)
	if 2*atBig > 3*atSmall {
		t.Errorf("a batch allocates %d bytes at N = 2^16 and %d at N = 2^12: more than 1.5x", atBig, atSmall)
	}
}
