package compiler

import (
	"cmp"
	"slices"

	"powerlog/internal/agg"
	"powerlog/internal/analyzer"
	"powerlog/internal/ast"
	"powerlog/internal/edb"
	"powerlog/internal/expr"
)

// evalFacts loads ground facts of the program into relations (predicates
// already provided by the database are left alone: data wins over source
// facts, which typically serve tiny self-contained example programs).
func evalFacts(info *analyzer.Info, db *edb.DB) error {
	byPred := map[string][]*ast.Rule{}
	for _, f := range info.GroundFacts {
		byPred[f.Head.Name] = append(byPred[f.Head.Name], f)
	}
	for name, facts := range byPred {
		if db.HasPred(name) {
			continue
		}
		rel := edb.NewRelation(name, len(facts[0].Head.Args))
		for _, f := range facts {
			if len(f.Head.Args) != rel.Arity {
				return errf("fact %s has inconsistent arity", f.Head)
			}
			row := make([]float64, rel.Arity)
			for i, t := range f.Head.Args {
				if t.Kind != ast.TermNum {
					return errf("fact %s must have numeric arguments", f.Head)
				}
				row[i] = t.Num
			}
			rel.Add(row...)
		}
		db.AddRelation(rel)
	}
	return nil
}

// prepareRows prepares a rule body and compiles terms against its frame,
// once; the returned run evaluates the body and calls f with the terms'
// values under every satisfying assignment (row is reused between calls).
func prepareRows(db *edb.DB, body []*ast.Atom, terms []*ast.Term) (run func(f func(row []float64) error) error, err error) {
	b, err := db.Prepare(body)
	if err != nil {
		return nil, err
	}
	return headRows(b, terms)
}

// headRows is prepareRows for a prepared body.
func headRows(b *edb.Body, terms []*ast.Term) (run func(f func(row []float64) error) error, err error) {
	get := make([]func([]float64) float64, len(terms))
	for i, t := range terms {
		e := t.Expr
		switch t.Kind {
		case ast.TermNum:
			e = expr.Num(t.Num)
		case ast.TermVar:
			e = expr.Var(t.Var)
		case ast.TermArith:
		default:
			return nil, errf("unsupported head term %s", t)
		}
		if get[i], err = b.Compile(e); err != nil {
			return nil, errf("head term %s is unbound: %v", t, err)
		}
	}
	row := make([]float64, len(terms))
	return func(f func([]float64) error) error {
		return b.Run(func(frame []float64) error {
			for i, g := range get {
				row[i] = g(frame)
			}
			return f(row)
		})
	}, nil
}

// eachRow is prepareRows for bodies that are evaluated once, in turn.
func eachRow(db *edb.DB, bodies []*ast.Body, terms []*ast.Term, f func(row []float64) error) error {
	for _, body := range bodies {
		run, err := prepareRows(db, body.Atoms, terms)
		if err == nil {
			err = run(f)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// evalViews materialises the non-recursive rules the database does not
// provide, pass after pass while a pass evaluates one, so that a view may
// read one written after it: plain views (the Katz source table
// "I(X,k) :- X=0, k=10000") and aggregate views such as PageRank's
// degree(X,count[Y]) :- edge(X,Y). A pass that evaluates none reports
// the last rule left with its own error.
func evalViews(p *Plan) error {
	pending := append(slices.Clone(p.Info.OtherRules), p.Info.DerivedRules...)
	for len(pending) > 0 {
		var stuck error
		n := len(pending)
		pending = slices.DeleteFunc(pending, func(r *ast.Rule) bool {
			if p.DB.HasPred(r.Head.Name) {
				return true
			}
			rel, err := view(p, r)
			if err != nil {
				stuck = errf("cannot evaluate rule for %s: %v", r.Head.Name, err)
				return false
			}
			p.DB.AddRelation(rel)
			return true
		})
		if len(pending) == n {
			return stuck
		}
	}
	return nil
}

// view evaluates one view rule. A plain view's rows are its bodies'. An
// aggregate view has one row per group — the head's other arguments, by
// exact value — in ascending key order, folded in the plan's fold: by
// vertex while its one group key names a vertex, by value otherwise.
func view(p *Plan, r *ast.Rule) (*edb.Relation, error) {
	rel := edb.NewRelation(r.Head.Name, len(r.Head.Args))
	aggT, aggPos := r.AggTermOf()
	if aggT == nil {
		return rel, eachRow(p.DB, r.Bodies, r.Head.Args, func(row []float64) error {
			rel.Add(row...)
			return nil
		})
	}
	op, err := agg.Parse(aggT.Op)
	if err != nil {
		return nil, errf("derived rule %s: %v", r.Head.Name, err)
	}
	// The group key's terms, then the aggregated one (count: 1). A group
	// starts at the identity: a row's value v enters as Fold(identity, v).
	terms := slices.Delete(slices.Clone(r.Head.Args), aggPos, aggPos+1)
	val := &ast.Term{Kind: ast.TermVar, Var: aggT.Var}
	if op == agg.Count {
		val = &ast.Term{Kind: ast.TermNum, Num: 1}
	}
	terms = append(terms, val)
	f := &p.fold
	fill := func(vertex bool) error {
		f.reset(agg.ByKind(op), vertex)
		for _, body := range r.Bodies {
			if err := foldView(p.DB, body, terms, f); err != nil {
				return err
			}
		}
		return nil
	}
	// One group key folds by vertex unless a key names none.
	if err = fill(len(terms) == 2); err == errNoVertex {
		err = fill(false)
	}
	if err != nil {
		return nil, err
	}
	row := make([]float64, len(r.Head.Args))
	f.each(func(s int32, v float64) {
		key := f.keyOf(s)
		copy(row, key[:aggPos])
		row[aggPos] = v
		copy(row[aggPos+1:], key[aggPos:])
		rel.Add(row...)
	})
	return rel, nil
}

// foldView folds an aggregate view's body into f: a CSR row at a time
// when rowFold takes the body, tuple by tuple otherwise.
func foldView(db *edb.DB, body *ast.Body, terms []*ast.Term, f *fold) error {
	b, err := db.Prepare(body.Atoms)
	if err != nil {
		return err
	}
	if rows := rowFold(b, terms, f); rows != nil {
		return b.Rows(rows)
	}
	run, err := headRows(b, terms)
	if err != nil {
		return err
	}
	o := f.op
	return run(func(row []float64) error {
		return f.add(row[:len(row)-1], o.Fold(o.Identity(), row[len(row)-1]))
	})
}

// rowFold is the consumer of a view body's CSR rows (edb.Body.Rows) when
// the fold is keyed by vertex, its key is the rows' source and its value
// a count or a row's weight; nil otherwise. It folds a row as add would
// its entries, one after another: the key's slot is loaded once, the
// weights are folded in CSR order, and the slot is stored once. A count
// adds the row's length.
func rowFold(b *edb.Body, terms []*ast.Term, f *fold) func([]float64, []int32, []float64) error {
	src, _, w, ok := b.RowScan()
	if !ok || !f.vertex || terms[0].Kind != ast.TermVar || terms[0].Var != src {
		return nil
	}
	count := f.op.Kind() == agg.Count
	if !count && (w == "" || terms[1].Kind != ast.TermVar || terms[1].Var != w) {
		return nil
	}
	key, err := b.Compile(expr.Var(src))
	if err != nil {
		return nil
	}
	k, id := f.op.Kind(), f.op.Identity()
	return func(frame []float64, targets []int32, weights []float64) error {
		s, err := f.slot(key(frame))
		if err != nil {
			return err
		}
		acc, on := f.val[s], f.at.on[s]
		switch {
		case count && on:
			acc += float64(len(targets))
		case count:
			acc = float64(len(targets))
		default:
			for i := range targets {
				x := 1.0 // an unweighted graph's
				if weights != nil {
					x = weights[i]
				}
				if v := k.Fold(id, x); on {
					acc = k.Fold(acc, v)
				} else {
					acc, on = v, true
				}
			}
		}
		f.val[s] = acc
		f.at.add(s)
		return nil
	}
}

// buildInits materialises ΔX¹ (InitMRA) and the naive per-iteration base
// tuples (BaseNaive) per §3.3 in the plan's fold, keyed by vertex or by
// pair: initialisation rules and constant bodies contribute to both;
// per-edge constants split from the recursive body (CRec) contribute to
// ΔX¹ only — naive evaluation re-derives them through the full F.
func buildInits(p *Plan, shape *bodyShape) error {
	info, f := p.Info, &p.fold
	f.reset(p.Op, !p.PairKeys)

	// Initialisation rules: non-recursive rules with the head predicate.
	for _, r := range info.InitRules {
		if err := evalHeadRule(p, r); err != nil {
			return err
		}
	}
	// Constant bodies of the recursive rule. The aggregate-variable
	// assignment inside the body is harmless to re-evaluate; cb.Expr is
	// the resolved form used for the contribution value.
	for _, cb := range info.ConstBodies {
		if err := foldHead(p, info.Rec.Rule, []*ast.Body{cb.Body}, varTerms(info.KeyVars), &ast.Term{Kind: ast.TermArith, Expr: cb.Expr}); err != nil {
			return err
		}
	}
	p.BaseNaive = f.kvs()

	// Per-edge constants from the additive split of F (combining
	// aggregates only), folded into ΔX¹. Without them ΔX¹ is the base
	// tuples: both are read-only, so one list serves both.
	p.InitMRA = p.BaseNaive
	if info.Rec.CRec != nil {
		if err := addEdgeConstants(p, shape, f.addKey); err != nil {
			return err
		}
		p.InitMRA = f.kvs()
	}
	return nil
}

// foldHead evaluates bodies and folds val at the key the one or two key
// terms name, refusing (as r's) a key that names no vertex.
func foldHead(p *Plan, r *ast.Rule, bodies []*ast.Body, keys []*ast.Term, val *ast.Term) error {
	return eachRow(p.DB, bodies, append(slices.Clone(keys), val), func(row []float64) error {
		key := row[:len(keys)]
		for _, k := range key {
			if _, ok := vertexID(k, p.N); !ok {
				return errf("rule %s: key %v names no vertex of [0,%d)", cmp.Or(r.Label, r.Head.Name), key, p.N)
			}
		}
		return p.fold.add(key, row[len(keys)])
	})
}

// varTerms returns the variables as head terms.
func varTerms(vars []string) []*ast.Term {
	terms := make([]*ast.Term, len(vars))
	for i, v := range vars {
		terms[i] = &ast.Term{Kind: ast.TermVar, Var: v}
	}
	return terms
}

// evalHeadRule evaluates one non-recursive rule for the head predicate
// and folds its (key, value) tuples.
func evalHeadRule(p *Plan, r *ast.Rule) error {
	info := p.Info
	// Identify the value position: same as AggPos in the recursive head.
	valuePos := info.AggPos
	if valuePos >= len(r.Head.Args) {
		return errf("init rule %s has too few head arguments", r.Head.Name)
	}
	// Key argument positions mirror the recursive head (minus iteration
	// index and aggregate term; the value never sits at the index's place).
	keyTerms := slices.Delete(slices.Clone(r.Head.Args), valuePos, valuePos+1)
	if info.IterIndexed {
		keyTerms = keyTerms[1:]
	}
	if len(keyTerms) != len(info.KeyVars) {
		return errf("init rule %s key arity %d does not match recursive head %d",
			r.Head.Name, len(keyTerms), len(info.KeyVars))
	}
	return foldHead(p, r, r.Bodies, keyTerms, r.Head.Args[valuePos])
}

// addEdgeConstants folds CRec evaluated per edge into each destination:
// a kernel over the same layout as F', with no value arriving.
func addEdgeConstants(p *Plan, shape *bodyShape, add func(int64, float64)) error {
	if p.PairKeys {
		return errf("per-edge constants are not supported for pair-keyed programs")
	}
	c := p.Info.Rec.CRec
	if slices.Contains(c.Vars(), p.Info.Rec.ValueVar) {
		// The layout binds the value variable for F'; a constant has none.
		return errf("edge constant %s references unbound variables: %s", c, p.Info.Rec.ValueVar)
	}
	lay := layoutSlots(p.Info.Rec, shape)
	k, err := newKernel(shape.Describe(c), p.Graph, lay, false)
	if err != nil {
		return errf("edge constant %s references unbound variables: %v", c, err)
	}
	scratch := make([]float64, k.scratchLen())
	for v := 0; v < p.N; v++ {
		k.Propagate(scratch, int64(v), 0, add)
	}
	return nil
}
