package compiler

import (
	"cmp"
	"encoding/binary"
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

// eachRow is prepareRows for a body that is evaluated once.
func eachRow(db *edb.DB, body []*ast.Atom, terms []*ast.Term, f func(row []float64) error) error {
	run, err := prepareRows(db, body, terms)
	if err != nil {
		return err
	}
	return run(f)
}

// evalOtherRules materialises plain non-recursive view rules (e.g. the
// Katz source table "I(X,k) :- X=0, k=10000"). Rules whose predicates are
// already present in the database are skipped. Two passes handle simple
// view-on-view chains.
func evalOtherRules(info *analyzer.Info, db *edb.DB) error {
	pending := append([]*ast.Rule(nil), info.OtherRules...)
	for pass := 0; pass < 2 && len(pending) > 0; pass++ {
		var retry []*ast.Rule
		for _, r := range pending {
			if db.HasPred(r.Head.Name) {
				continue
			}
			rel := edb.NewRelation(r.Head.Name, len(r.Head.Args))
			ok := true
			for _, body := range r.Bodies {
				err := eachRow(db, body.Atoms, r.Head.Args, func(row []float64) error {
					rel.Add(row...)
					return nil
				})
				if err != nil {
					ok = false
					break
				}
			}
			if ok {
				db.AddRelation(rel)
			} else {
				retry = append(retry, r)
			}
		}
		pending = retry
	}
	if len(pending) > 0 {
		return errf("cannot evaluate rule for %s (missing relations or unbound variables)", pending[0].Head.Name)
	}
	return nil
}

// evalDerivedRules materialises non-recursive aggregate views such as
// PageRank's degree(X,count[Y]) :- edge(X,Y): one row per group, keyed by
// the other head arguments as integers, rows in ascending key order.
func evalDerivedRules(info *analyzer.Info, db *edb.DB) error {
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
		// The aggregated position reads the aggregate's variable (count: 1).
		terms := slices.Clone(r.Head.Args)
		terms[aggPos] = &ast.Term{Kind: ast.TermVar, Var: aggT.Var}
		if op == agg.Count {
			terms[aggPos] = &ast.Term{Kind: ast.TermNum, Num: 1}
		}
		byKey := func(a, b []float64) int { // a group's row holds its key, the fold in aggPos
			for i := range a {
				if c := cmp.Compare(int64(a[i]), int64(b[i])); c != 0 && i != aggPos {
					return c
				}
			}
			return 0
		}
		groups := map[string][]float64{}
		var rows [][]float64
		var g []float64 // the last tuple's group: a scan in CSR order stays in it for a whole row
		var key []byte
		for _, body := range r.Bodies {
			err := eachRow(db, body.Atoms, terms, func(row []float64) error {
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

// buildInits materialises ΔX¹ (InitMRA) and the naive per-iteration base
// tuples (BaseNaive) per §3.3: initialisation rules and constant bodies
// contribute to both; per-edge constants split from the recursive body
// (CRec) contribute to ΔX¹ only — naive evaluation re-derives them
// through the full F.
func buildInits(p *Plan, shape *bodyShape) error {
	info := p.Info
	fold := map[int64]float64{}
	add := func(k int64, v float64) {
		if cur, ok := fold[k]; ok {
			fold[k] = p.Op.Fold(cur, v)
		} else {
			fold[k] = v
		}
	}

	// Initialisation rules: non-recursive rules with the head predicate.
	for _, r := range info.InitRules {
		if err := evalHeadRule(p, r, add); err != nil {
			return err
		}
	}
	// Constant bodies of the recursive rule. The aggregate-variable
	// assignment inside the body is harmless to re-evaluate; cb.Expr is
	// the resolved form used for the contribution value.
	for _, cb := range info.ConstBodies {
		if err := foldHead(p, cb.Body.Atoms, varTerms(info.KeyVars), &ast.Term{Kind: ast.TermArith, Expr: cb.Expr}, add); err != nil {
			return err
		}
	}
	p.BaseNaive = kvList(fold)

	// Per-edge constants from the additive split of F (combining
	// aggregates only), folded into ΔX¹.
	if info.Rec.CRec != nil {
		if err := addEdgeConstants(p, shape, add); err != nil {
			return err
		}
	}
	p.InitMRA = kvList(fold)
	return nil
}

// foldHead evaluates body and folds val, keyed by the encoded values of
// the one or two key terms, through add.
func foldHead(p *Plan, body []*ast.Atom, keys []*ast.Term, val *ast.Term, add func(int64, float64)) error {
	return eachRow(p.DB, body, append(slices.Clone(keys), val), keyed(p.PairKeys, add))
}

// keyed adapts add to a row of one or two key values and a value.
func keyed(pair bool, add func(int64, float64)) func(row []float64) error {
	return func(row []float64) error {
		key := int64(row[0])
		if pair {
			key = EncodePair(key, int64(row[1]))
		}
		add(key, row[len(row)-1])
		return nil
	}
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
// and emits its (key, value) tuples.
func evalHeadRule(p *Plan, r *ast.Rule, add func(int64, float64)) error {
	info := p.Info
	// Identify the value position: same as AggPos in the recursive head.
	valuePos := info.AggPos
	if valuePos >= len(r.Head.Args) {
		return errf("init rule %s has too few head arguments", r.Head.Name)
	}
	// Key argument positions mirror the recursive head (minus iteration
	// index and aggregate term).
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
		if err := foldHead(p, body.Atoms, keyTerms, r.Head.Args[valuePos], add); err != nil {
			return err
		}
	}
	return nil
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

func kvList(m map[int64]float64) []KV {
	out := make([]KV, 0, len(m))
	for k, v := range m {
		out = append(out, KV{k, v})
	}
	slices.SortFunc(out, func(a, b KV) int { return cmp.Compare(a.K, b.K) })
	return out
}
