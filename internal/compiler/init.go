package compiler

import (
	"slices"
	"sort"

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
	for _, f := range info.Facts {
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
				err := db.EvalBody(body.Atoms, func(env edb.Env) error {
					row := make([]float64, rel.Arity)
					for i, t := range r.Head.Args {
						v, err := termValue(t, env)
						if err != nil {
							return err
						}
						row[i] = v
					}
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
// PageRank's degree(X,count[Y]) :- edge(X,Y).
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

		groups := map[string]*groupState{}
		var keyOrder []string
		for _, body := range r.Bodies {
			err := db.EvalBody(body.Atoms, func(env edb.Env) error {
				key := make([]float64, 0, len(r.Head.Args)-1)
				for i, t := range r.Head.Args {
					if i == aggPos {
						continue
					}
					v, err := termValue(t, env)
					if err != nil {
						return err
					}
					key = append(key, v)
				}
				var val float64
				if op == agg.Count {
					val = 1
				} else {
					v, ok := env[aggT.Var]
					if !ok {
						return errf("derived rule %s: aggregate variable %s unbound", r.Head.Name, aggT.Var)
					}
					val = v
				}
				ks := keyString(key)
				g, ok := groups[ks]
				if !ok {
					g = &groupState{key: key, acc: o.Identity()}
					groups[ks] = g
					keyOrder = append(keyOrder, ks)
				}
				g.acc = o.Fold(g.acc, val)
				return nil
			})
			if err != nil {
				return err
			}
		}
		rel := edb.NewRelation(r.Head.Name, len(r.Head.Args))
		sort.Strings(keyOrder)
		for _, ks := range keyOrder {
			g := groups[ks]
			row := make([]float64, 0, rel.Arity)
			ki := 0
			for i := range r.Head.Args {
				if i == aggPos {
					row = append(row, g.acc)
				} else {
					row = append(row, g.key[ki])
					ki++
				}
			}
			rel.Add(row...)
		}
		db.AddRelation(rel)
	}
	return nil
}

type groupState struct {
	key []float64
	acc float64
}

func keyString(key []float64) string {
	b := make([]byte, 0, len(key)*8)
	for _, k := range key {
		v := int64(k)
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(v>>s))
		}
	}
	return string(b)
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
		err := p.DB.EvalBody(cb.Body.Atoms, func(env edb.Env) error {
			key, err := headKeyFromEnv(p, info.KeyVars, env)
			if err != nil {
				return err
			}
			add(key, cb.Expr.Eval(expr.Env(env)))
			return nil
		})
		if err != nil {
			return err
		}
	}
	base := kvList(fold)
	p.BaseNaive = base

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
	emit := func(env edb.Env) error {
		keys := make([]int64, len(keyTerms))
		for i, t := range keyTerms {
			v, err := termValue(t, env)
			if err != nil {
				return err
			}
			keys[i] = int64(v)
		}
		val, err := termValue(r.Head.Args[valuePos], env)
		if err != nil {
			return err
		}
		key := keys[0]
		if p.PairKeys {
			key = EncodePair(keys[0], keys[1])
		}
		add(key, val)
		return nil
	}
	for _, body := range r.Bodies {
		if err := p.DB.EvalBody(body.Atoms, emit); err != nil {
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
	k, err := newKernel(describe(c, lay), p.Graph, lay, false)
	if err != nil {
		return errf("edge constant %s references unbound variables: %v", c, err)
	}
	scratch := make([]float64, k.scratchLen())
	for v := 0; v < p.N; v++ {
		k.Propagate(scratch, int64(v), 0, add)
	}
	return nil
}

// headKeyFromEnv encodes the head key from a binding environment.
func headKeyFromEnv(p *Plan, keyVars []string, env edb.Env) (int64, error) {
	k0, ok := env[keyVars[0]]
	if !ok {
		return 0, errf("head key variable %s unbound in constant body", keyVars[0])
	}
	if !p.PairKeys {
		return int64(k0), nil
	}
	k1, ok := env[keyVars[1]]
	if !ok {
		return 0, errf("head key variable %s unbound in constant body", keyVars[1])
	}
	return EncodePair(int64(k0), int64(k1)), nil
}

// termValue resolves a head term under a binding environment.
func termValue(t *ast.Term, env edb.Env) (float64, error) {
	switch t.Kind {
	case ast.TermNum:
		return t.Num, nil
	case ast.TermVar:
		v, ok := env[t.Var]
		if !ok {
			return 0, errf("head variable %s unbound", t.Var)
		}
		return v, nil
	case ast.TermArith:
		for _, v := range t.Expr.Vars() {
			if _, ok := env[v]; !ok {
				return 0, errf("head expression variable %s unbound", v)
			}
		}
		return t.Expr.Eval(expr.Env(env)), nil
	default:
		return 0, errf("unsupported head term %s", t)
	}
}

func kvList(m map[int64]float64) []KV {
	out := make([]KV, 0, len(m))
	for k, v := range m {
		out = append(out, KV{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
	return out
}
