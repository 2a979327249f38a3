package compiler

import (
	"slices"

	"powerlog/internal/analyzer"
	"powerlog/internal/graph"
)

// Mutation is a batch of base-fact changes against the plan's join
// graph: edge inserts and deletes. A delete removes every parallel edge
// with the named (src,dst) endpoints; deleting an absent edge is a
// no-op. The vertex universe [0,N) is fixed at compile time. The caller
// keeps ownership of both slices: nothing that takes a Mutation holds on
// to them past the call, so one pair of buffers can be refilled batch
// after batch.
type Mutation struct {
	Inserts []graph.Edge
	Deletes []graph.Edge
}

// Empty reports whether the mutation changes nothing.
func (m Mutation) Empty() bool { return len(m.Inserts) == 0 && len(m.Deletes) == 0 }

// AccTable is ApplyMutation's read view of the session's distributed
// MonoTable. It is only read while the engine is quiesced.
type AccTable interface {
	// Acc returns key's Accumulation, the aggregate identity when the
	// key has no row.
	Acc(key int64) float64
	// Range iterates every row with a non-identity Accumulation.
	Range(f func(key int64, acc float64))
}

// Refixpoint tells the runtime how to converge to the mutated EDB's
// fixpoint from the parked state.
type Refixpoint struct {
	// Reseed is the new ΔX¹: deltas to fold into the owners' tables
	// (after invalidation). For combining aggregates these are signed
	// correction terms; for selective aggregates they are candidate
	// values folded monotonically.
	Reseed []KV
	// Invalidate lists the support closure of the removed and weakened
	// inputs: the table keys to erase before reseeding, so they
	// re-derive from surviving inputs only. Every listed key holds a
	// row; selective aggregates only.
	Invalidate []int64

	// What the step did. BorderRows counts the keys re-propagated over the
	// new graph; EdgesRead every edge looked at on the way — the rows of
	// delete sources and of re-propagated keys, the closure walk, the
	// candidate lists of the in-edge index; IndexBuilt says the index
	// was built or rebuilt (one more pass over the graph, not in EdgesRead).
	// EdgesMoved counts the edges the CSR splice copied: compacted within
	// their rows, inserted, or moved by a relayout.
	BorderRows, EdgesRead, EdgesMoved int
	IndexBuilt                        bool
}

// vset is a set of vertices that outlives the batch: a flag per vertex and
// the list of the flags set, which is all that clearing it reads.
type vset struct {
	on   []bool
	list []int32
}

func (s *vset) add(v int32) {
	if !s.on[v] {
		s.on[v] = true
		s.list = append(s.list, v)
	}
}

func (s *vset) addAll(vs []int32) {
	for _, v := range vs {
		s.add(v)
	}
}

func (s *vset) clear() {
	for _, v := range s.list {
		s.on[v] = false
	}
	s.list = s.list[:0]
}

// deltaScratch is what ApplyMutation keeps from batch to batch, so that a
// batch pays for the rows it names and not for N: sets over the vertices
// cleared by their own lists, the reseed fold, the expression scratch.
type deltaScratch struct {
	eval []float64
	// touched: rows whose surviving keys re-propagate everywhere; dead: the
	// vertices erased keys sit at; border: the rows of the boundary pass
	// (the combining path's moved rows); rows: whichever rows the step at
	// hand reads — delete sources, changed columns.
	touched, dead, border, rows vset
	del                         []uint64 // the deletes, src<<32|dst, sorted
	reseed                      fold     // the new ΔX¹, by table key
}

// scratch returns the plan's delta scratch, made on first use, with
// whatever the last batch left in its sets cleared.
func (p *Plan) scratch() *deltaScratch {
	if p.delta == nil {
		p.delta = &deltaScratch{eval: p.NewScratch(), reseed: fold{n: p.N}}
	}
	sc := p.delta
	sc.reseed.reset(p.Op, !p.PairKeys)
	for _, s := range []*vset{&sc.touched, &sc.dead, &sc.border, &sc.rows} {
		if s.on == nil {
			s.on = make([]bool, p.N)
		}
		s.clear()
	}
	return sc
}

// inIndex answers "which rows may hold an edge into this vertex" for the
// propagation graph: its transpose as of the last build, plus the edges
// inserted since. Deleted edges stay listed, so the answer is a superset
// of the in-neighbours — a stale candidate costs its reader one row that
// emits nothing. A plan builds it the first time a batch needs it and
// drops it, to be built again, once the edges inserted or deleted since
// outnumber one in churnFrac of those it indexes: what a build costs is
// paid for by the batches between two of them, and neither the overlay
// nor the stale share of an answer grows past that fraction.
type inIndex struct {
	base  *graph.Graph // the transpose at the build, sources only
	over  [][2]int32   // (src, dst) of the edges inserted since
	churn int          // edges inserted or named by a delete since
}

const churnFrac = 8

// into calls f with every candidate source of an edge into a vertex of
// at, repeats included, and returns how many index entries it read.
func (x *inIndex) into(at *vset, f func(src int32)) int {
	read := len(x.over)
	for _, d := range at.list {
		srcs, _ := x.base.Neighbors(d)
		read += len(srcs)
		for _, s := range srcs {
			f(s)
		}
	}
	for _, e := range x.over {
		if at.on[e[1]] {
			f(e[0])
		}
	}
	return read
}

// inEdges returns the index, building it if the plan holds none.
func (p *Plan) inEdges(out *Refixpoint) *inIndex {
	if p.in == nil {
		p.in = &inIndex{base: p.Graph.InSources()}
		out.IndexBuilt = true
	}
	return p.in
}

// lo is the component of key that propagates: the vertex its row is.
func (p *Plan) lo(key int64) int64 {
	if p.PairKeys {
		_, lo := DecodePair(key)
		return lo
	}
	return key
}

// ApplyMutation applies mut to the plan's EDB — the base graph, its
// transposed propagation twin, the compiler-materialised supporting
// relations and attribute columns, and ΔX¹ — and computes the reseed /
// invalidation work that re-converges the parked table state to the new
// fixpoint (DESIGN.md §10). It works in three steps: what must be read
// from the old graph, then the mutation, then what the new graph adds.
//
// Soundness sketch:
//
//   - Combining (linear F'): the fixpoint solves x = A·x + b. ApplyMutation
//     emits Δb = b_new − b_old (the ΔX¹ diff, which also covers per-edge
//     CRec constants and changed constant bodies, because buildInits is
//     re-run against the mutated EDB) and (A_new − A_old)·x_old: for every
//     touched source — a source of a changed edge, a vertex whose
//     source-attribute column changed, or an in-neighbor of a vertex
//     whose destination-attribute column changed — its old contributions
//     (old graph, old columns) are negated and its new contributions (new
//     graph, new columns) added. Only the rows of changed-edge sources
//     differ between the two graphs, so only those are negated before
//     the mutation. Folding these into the parked state x_old
//     gives A_new·x_old + b_new + (x_old − A_old·x_old − b_old); the
//     parenthesised residual is 0 at an exact fixpoint and ≤ ε otherwise,
//     so the engine converges to the new fixpoint by linearity.
//
//   - Selective (min/max): inserts and improvements only ever fold better
//     values, which is sound by Theorem 3's replay tolerance (duplicated
//     or reordered deltas are absorbed by the idempotent monotone fold).
//     Deletions invalidate the support closure (type support below): a
//     key is erased only if a removed or weakened input fed it a value no
//     worse than the one it holds, or an erased key did. A key that
//     survives keeps every input that could have produced its value, so
//     its value is still derivable in the new EDB. Erased keys re-derive
//     from the new ΔX¹ and a boundary pass: each surviving key with an
//     edge into the closure re-propagates its accumulation over the new
//     graph. Over-folding surviving values is again idempotent. The
//     argument needs more of F' than monotonicity (the delete licence of
//     analyzer.Facts); a program without one has every batch that can
//     remove or weaken an input refused, untouched.
//
// The work follows the batch, not the graph: rows are found through sets
// the plan keeps (deltaScratch) and the closure's in-neighbours through
// the candidate in-edge index (inIndex), and the CSR splice touches the
// batch's rows (bar an amortised relayout), so apart from the attribute
// columns a program reads, nothing is proportional to N or E. The engine
// must be fully quiesced (all workers parked) for the whole call: the
// graph CSR is spliced in place behind pointers the compiled closures
// captured.
func (p *Plan) ApplyMutation(mut Mutation, tbl AccTable) (*Refixpoint, error) {
	shape := p.shape
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
	out := &Refixpoint{}
	if mut.Empty() {
		return out, nil
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
	sc := p.scratch()
	reseed, touched := &sc.reseed, &sc.touched
	// prop is PropagateInto with the edges of the row counted.
	prop := func(key int64, acc float64, emit func(dst int64, v float64)) {
		out.EdgesRead += p.Graph.OutDegree(int32(p.lo(key)))
		p.PropagateInto(sc.eval, key, acc, emit)
	}
	// eachOn visits the parked accumulation of every key whose
	// propagated component is in rows, by ascending key: one row read per
	// member, or for pair keys (any hi over a member lo) one pass over the
	// table, which an empty set skips.
	eachOn := func(rows *vset, f func(key int64, acc float64)) {
		if p.PairKeys {
			if len(rows.list) > 0 {
				tbl.Range(func(key int64, acc float64) {
					if rows.on[p.lo(key)] {
						f(key, acc)
					}
				})
			}
			return
		}
		slices.Sort(rows.list)
		for _, v := range rows.list {
			if acc := tbl.Acc(int64(v)); acc != id {
				f(int64(v), acc)
			}
		}
	}
	// only is the scratch set holding just vs.
	only := func(vs []int32) *vset {
		sc.rows.clear()
		sc.rows.addAll(vs)
		return &sc.rows
	}
	// correct folds sign·A·x_old over rows into the reseed, through the
	// graph and columns as they stand at the call.
	correct := func(rows *vset, sign float64) {
		eachOn(rows, func(key int64, acc float64) {
			if sign > 0 {
				out.BorderRows++
			}
			prop(key, acc, func(dst int64, v float64) {
				if v != 0 {
					reseed.addKey(dst, sign*v)
				}
			})
		})
	}

	// 0. Old-state work, over the graph the parked fixpoint was computed
	// on. touched holds the rows whose surviving keys re-propagate over
	// the new graph: for a combining aggregate every row the batch
	// rewrites (the only rows that differ between the two graphs), for a
	// selective one the rows that gain edges — a row that only loses
	// edges offers its targets nothing new.
	for _, e := range oIns {
		touched.add(e.Src)
	}
	sup := support{p: p, tbl: tbl, prop: prop, at: &sc.dead}
	if p.PairKeys {
		sup.dead = map[int64]struct{}{}
	}
	// A selective aggregate's inputs are only removed or weakened by a
	// delete or by a relation the batch re-derives; inserts alone fold
	// better values. Refuse before anything is changed.
	if !selective || len(oDel) > 0 || len(shape.otherHeads)+len(shape.derivedHeads) > 0 {
		if err := p.deleteSound(); err != nil {
			return nil, err
		}
	}
	if selective {
		// Roots: a deleted edge whose candidate its target's value does
		// not beat. An absent or losing edge roots nothing. A source row's
		// targets are tested against that row's run of the sorted deletes.
		sc.del = sc.del[:0]
		for _, e := range oDel {
			sc.del = append(sc.del, uint64(e.Src)<<32|uint64(e.Dst))
			sc.rows.add(e.Src)
		}
		slices.Sort(sc.del)
		var src uint64
		var gone []uint64
		admitGone := func(dst int64, cand float64) {
			if slices.Contains(gone, src|uint64(p.lo(dst))) {
				sup.admit(dst, cand)
			}
		}
		eachOn(&sc.rows, func(key int64, acc float64) {
			src = uint64(p.lo(key)) << 32
			lo, _ := slices.BinarySearch(sc.del, src)
			hi, _ := slices.BinarySearch(sc.del, src+1<<32)
			gone = sc.del[lo:hi]
			prop(key, acc, admitGone)
		})
		sup.grow()
	} else {
		for _, e := range oDel {
			touched.add(e.Src)
		}
		correct(touched, -1)
	}

	// 1. Mutate the base graph (and the transposed twin when the body is
	// an in-neighbor formulation) in place; a join reads it where it lies.
	moved, err := p.DB.MutateGraph(shape.Join.Name, mut.Inserts, mut.Deletes)
	if err != nil {
		return nil, err
	}
	out.EdgesMoved += moved
	if shape.Reversed {
		if moved, err = p.Graph.ApplyEdgeMutations(oIns, oDel); err != nil {
			return nil, err
		}
		out.EdgesMoved += moved
	}
	p.Kernel.noteMutation(mut.Inserts)
	// The index, if there is one, learns the inserts and forgets itself
	// once the batches since its build have churned enough (inIndex).
	if x := p.in; x != nil {
		for _, e := range oIns {
			x.over = append(x.over, [2]int32{e.Src, e.Dst})
		}
		if x.churn += len(oIns) + len(oDel); x.churn > x.base.NumEdges()/churnFrac {
			p.in = nil
		}
	}

	// 2. Re-derive the compiler-materialised supporting relations (they
	// may aggregate over the graph, e.g. PageRank's degree view).
	for _, h := range shape.otherHeads {
		p.DB.DropRelation(h)
	}
	for _, h := range shape.derivedHeads {
		p.DB.DropRelation(h)
	}
	if err := evalViews(p); err != nil {
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
		// old graph's rows still stand, under the old columns. The index
		// names the rows that may point into a moved destination column; a
		// look at the row keeps the ones that do, since a row corrected
		// −1/+1 for nothing would not cancel bit for bit.
		moved := &sc.border
		for _, v := range srcChanged {
			if !touched.on[v] {
				moved.add(v)
			}
		}
		if len(dstChanged) > 0 {
			at := only(dstChanged)
			out.EdgesRead += p.inEdges(out).into(at, func(v int32) {
				tg, _ := p.Graph.Neighbors(v)
				if !touched.on[v] && !moved.on[v] && slices.ContainsFunc(tg, func(t int32) bool { return at.on[t] }) {
					moved.add(v)
				}
			})
		}
		correct(moved, -1)
		install()
		touched.addAll(moved.list)
		correct(touched, +1)
		if err := buildInits(p, shape); err != nil {
			return nil, err
		}
		// Δb: signed ΔX¹ diff (identity is 0 for combining aggregates).
		diffInits(oldInit, p.InitMRA, 0, func(k int64, ov, nv float64) {
			if nv != ov {
				reseed.addKey(k, nv-ov)
			}
		})
		// A combining aggregate's exact cancellations are nothing to fold.
		out.Reseed = slices.DeleteFunc(reseed.kvs(), func(kv KV) bool { return kv.V == 0 })
		return out, nil
	}

	// Selective path. Weakened inputs root the closure like deletes do:
	// a moved source column by the candidates the old column produced, a
	// moved destination column by every key it feeds, a removed or
	// worsened initial value by that value. They are only known now, so
	// their share of the closure walks the mutated graph — the old one
	// but for deleted edges, each tested above, and inserted ones, which
	// can only add keys.
	if len(srcChanged) > 0 {
		eachOn(only(srcChanged), func(key int64, acc float64) { prop(key, acc, sup.admit) })
		touched.addAll(srcChanged) // fresh candidates out of them
	}
	if len(dstChanged) > 0 {
		eachOn(only(dstChanged), sup.admit)
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

	// ΔX¹ entries: an erased key re-derives from its initial value; a
	// surviving one only replays (idempotently) a strict improvement.
	diffInits(oldInit, p.InitMRA, id, func(k int64, ov, nv float64) {
		if nv != id && (sup.has(k) || p.Op.Fold(ov, nv) != ov) {
			reseed.addKey(k, nv)
		}
	})

	// Boundary pass over the NEW graph: a surviving key on a touched row
	// (inserted edges, fresh source inputs) re-propagates everywhere, one
	// with an edge into the closure re-propagates into it. The rows that
	// may hold such an edge come from the in-edge index; the pass tests
	// each edge of a row against the closure, so a candidate the index
	// need not have named folds nothing. This batch's inserts need no
	// entry: their sources are touched.
	border := touched
	if len(sup.members) > 0 {
		border = &sc.border
		border.addAll(touched.list)
		out.EdgesRead += p.inEdges(out).into(sup.at, border.add)
	}
	everywhere := false
	fold := func(dst int64, v float64) {
		if everywhere || sup.has(dst) {
			reseed.addKey(dst, v)
		}
	}
	eachOn(border, func(key int64, acc float64) {
		if sup.has(key) {
			return // erased: its accumulation is stale
		}
		out.BorderRows++
		everywhere = touched.on[p.lo(key)]
		prop(key, acc, fold)
	})
	out.Reseed, out.Invalidate = reseed.kvs(), sup.members
	return out, nil
}

// support grows the support closure of a selective delete (DESIGN.md
// §10): the keys whose parked value a removed or weakened input may
// have produced. Membership is decided from the parked table alone — a
// key joins when some candidate F'(acc[s], w) out of a removed edge or
// an erased key is no worse than the value it holds — which is the
// per-key winning in-edge recomputed on demand instead of stored. Ties
// and values not yet at the fixpoint make the test err towards
// erasing, which costs work, never correctness.
type support struct {
	p    *Plan
	tbl  AccTable
	prop func(key int64, acc float64, emit func(dst int64, v float64))
	// at holds the vertices erased keys sit at. A vertex key is its
	// vertex, so at is the closure; pair keys are also listed in dead.
	at      *vset
	dead    map[int64]struct{}
	members []int64 // the closure, in the order admitted
	queue   []KV    // members whose out-edges are still to be walked, with their value
}

// has reports whether key is in the closure.
func (s *support) has(key int64) bool {
	if !s.at.on[s.p.lo(key)] {
		return false
	}
	if s.dead == nil {
		return true
	}
	_, in := s.dead[key]
	return in
}

// admit adds key to the closure if cand is no worse than its value.
func (s *support) admit(key int64, cand float64) {
	if s.has(key) {
		return
	}
	acc := s.tbl.Acc(key)
	if acc == s.p.Op.Identity() || s.p.Op.Fold(cand, acc) != cand {
		return
	}
	s.at.add(int32(s.p.lo(key)))
	if s.dead != nil {
		s.dead[key] = struct{}{}
	}
	s.members = append(s.members, key)
	s.queue = append(s.queue, KV{key, acc})
}

// grow follows, from every queued member, the out-edges of the graph as
// it stands that pass the admit test.
func (s *support) grow() {
	admit := s.admit
	for len(s.queue) > 0 {
		kv := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.prop(kv.K, kv.V, admit)
	}
}

// deleteSound reports why the plan must not lose inputs: the program's
// delete licence (analyzer.Facts) is refused, or owes the data a premise
// that ΔX¹ as it stands does not meet.
func (p *Plan) deleteSound() error {
	switch lic := p.Info.Facts.Deletes; lic.Kind {
	case analyzer.DeleteRefused:
		return errf("cannot delete (or re-derive a relation the program reads) incrementally: deletes %s; run afresh on the mutated graph", lic)
	case analyzer.DeleteDiscount:
		for _, kv := range p.InitMRA {
			if kv.V < 0 {
				return errf("cannot delete incrementally: deletes %s, and key %d starts at %v", lic, kv.K, kv.V)
			}
		}
	}
	return nil
}

// diffInits walks two ΔX¹ lists in step (both in ascending key order)
// and reports every key either holds, with the value absent on the side
// that lacks it.
func diffInits(old, cur []KV, absent float64, f func(k int64, ov, nv float64)) {
	for len(old) > 0 || len(cur) > 0 {
		switch {
		case len(cur) == 0 || (len(old) > 0 && old[0].K < cur[0].K):
			f(old[0].K, old[0].V, absent)
			old = old[1:]
		case len(old) == 0 || cur[0].K < old[0].K:
			f(cur[0].K, absent, cur[0].V)
			cur = cur[1:]
		default:
			f(old[0].K, old[0].V, cur[0].V)
			old, cur = old[1:], cur[1:]
		}
	}
}
