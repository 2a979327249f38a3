package compiler

import (
	"slices"

	"powerlog/internal/agg"
	"powerlog/internal/analyzer"
	"powerlog/internal/expr"
	"powerlog/internal/graph"
	"powerlog/internal/smt"
)

// Mutation is a batch of base-fact changes against the plan's join
// graph: edge inserts and deletes. A delete removes every parallel edge
// with the named (src,dst) endpoints; deleting an absent edge is a
// no-op. The vertex universe [0,N) is fixed at compile time.
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
//     from the new ΔX¹ and a boundary scan: each surviving key with an
//     edge into the closure re-propagates its accumulation over the new
//     graph. Over-folding surviving values is again idempotent. The
//     argument needs more of F' than monotonicity (closureProof below);
//     a program Compile could not prove it for has every batch that can
//     remove or weaken an input refused, untouched.
//
// The engine must be fully quiesced (all workers parked) for the whole
// call: the graph CSR is spliced in place behind pointers the compiled
// closures captured.
func (p *Plan) ApplyMutation(mut Mutation, tbl AccTable) (*Refixpoint, error) {
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
		if !shape.reversed {
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
	sup := support{p: p, tbl: tbl, scratch: scratch, dead: map[int64]struct{}{}}
	if selective {
		// Inputs are only removed or weakened by a delete or by a relation
		// the batch re-derives; inserts alone fold better values. Refuse
		// before anything is changed.
		if len(oDel) > 0 || len(shape.otherHeads)+len(shape.derivedHeads) > 0 {
			if err := p.closureSound(); err != nil {
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
	if err := p.DB.MutateGraph(shape.join.Name, mut.Inserts, mut.Deletes); err != nil {
		return nil, err
	}
	if shape.reversed {
		if err := p.Graph.ApplyEdgeMutations(oIns, oDel); err != nil {
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

// support grows the support closure of a selective delete (DESIGN.md
// §10): the keys whose parked value a removed or weakened input may
// have produced. Membership is decided from the parked table alone — a
// key joins when some candidate F'(acc[s], w) out of a removed edge or
// an erased key is no worse than the value it holds — which is the
// per-key winning in-edge recomputed on demand instead of stored. Ties
// and values not yet at the fixpoint make the test err towards
// erasing, which costs work, never correctness.
type support struct {
	p       *Plan
	tbl     AccTable
	scratch []float64
	dead    map[int64]struct{}
	members []int64 // dead, in the order admitted
	queue   []KV    // members whose out-edges are still to be walked, with their value
}

// admit adds key to the closure if cand is no worse than its value.
func (s *support) admit(key int64, cand float64) {
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
func (s *support) grow() {
	for len(s.queue) > 0 {
		kv := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.p.PropagateInto(s.scratch, kv.K, kv.V, s.admit)
	}
}

// closureProof is what Compile could prove about F' on the support
// closure's behalf (DESIGN.md §10). The closure judges a key by the
// value it ended with, so every best derivation has to run through best
// values. F' = min(v,w) breaks that: a key can owe its value to a worse
// value of its own that went round a cycle, and the deleted edge that
// fed the worse value no longer looks like a supporter.
type closureProof int

const (
	closureUnproven closureProof = iota
	// closureStrict: F' is strictly increasing in the recursive value, so
	// a derivation through a worse intermediate value ends strictly worse.
	closureStrict
	// closureDiscount: max over F' = a·v with 0 ≤ a ≤ 1 never improves on a
	// value ≥ 0 and keeps it ≥ 0, so values only fall along a derivation
	// (Viterbi, zero-probability transitions included). Holds while every
	// ΔX¹ value is ≥ 0, which closureSound checks.
	closureDiscount
)

// proveClosure classifies F' under the program's asserted variable
// domains, which it trusts the way the MRA check does.
func proveClosure(info *analyzer.Info) closureProof {
	a, b, ok := expr.AffineIn(info.Rec.FPrime, info.Rec.ValueVar)
	if !ok {
		return closureUnproven
	}
	a, b = expr.Simplify(a), expr.Simplify(b)
	sign := smt.SignOf(a, info.Constraints)
	if sign == smt.SignPos {
		return closureStrict
	}
	one := expr.Num(1)
	if info.Agg == agg.Max && b.Kind == expr.KNum && b.Val == 0 && sign.NonNegative() &&
		smt.ProveEq(expr.Call("max", a, one), one, info.Constraints).Verdict == smt.Valid {
		return closureDiscount
	}
	return closureUnproven
}

// closureSound reports why a selective plan must not lose inputs: the
// support closure would be unsound for its F'.
func (p *Plan) closureSound() error {
	rec := p.Info.Rec
	switch p.shape.closure {
	case closureStrict:
		return nil
	case closureDiscount:
		for _, kv := range p.InitMRA {
			if kv.V < 0 {
				return errf("cannot delete incrementally: F' = %s is only known not to improve on values >= 0, and key %d starts at %v",
					rec.FPrime, kv.K, kv.V)
			}
		}
		return nil
	default:
		return errf("cannot delete (or re-derive a relation the program reads) incrementally: that needs F' = %s strictly increasing in %s, or never improving on it, and neither could be proved (DESIGN.md §10); run afresh on the mutated graph",
			rec.FPrime, rec.ValueVar)
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

// diffInits walks two ΔX¹ lists in step (both in kvList's key order)
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
