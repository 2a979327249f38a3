// Package analyzer performs the syntactic and semantic analysis of §5.1:
// it identifies the recursive aggregate rule of a parsed Datalog program,
// extracts the aggregate operation G, the non-aggregate operation F (and
// its split into F' and the constant part C), classifies the remaining
// rules (initialisation, derived relations, facts), and harvests variable
// constraints for the condition checker.
package analyzer

import (
	"fmt"

	"powerlog/internal/agg"
	"powerlog/internal/ast"
	"powerlog/internal/expr"
	"powerlog/internal/smt"
)

// Info is the result of analysing a recursive aggregate program.
type Info struct {
	AST      *ast.Program
	HeadName string   // recursive predicate name
	Agg      agg.Kind // the aggregate G
	AggVar   string   // the aggregated head variable
	AggPos   int      // argument position of the aggregate term in the head

	// KeyVars are the head's group-by arguments (iteration index excluded).
	KeyVars     []string
	IterIndexed bool // head carries an "i+1"-style iteration index

	Rec         *RecInfo     // the recursive body
	ConstBodies []*ConstBody // the constant parts C (non-recursive bodies)

	InitRules    []*ast.Rule // non-recursive rules for HeadName (X⁰ / ΔX¹ sources)
	DerivedRules []*ast.Rule // non-recursive aggregate rules for other predicates (e.g. degree)
	GroundFacts  []*ast.Rule // ground facts
	OtherRules   []*ast.Rule // remaining non-recursive rules (plain EDB views)

	Termination *ast.Termination // user-level ε clause, if any
	Constraints []smt.Constraint // harvested variable domain facts

	Facts *Facts // what the text alone decides about F' (facts.go)
}

// RecInfo describes the recursive body of the recursive aggregate rule.
type RecInfo struct {
	Rule       *ast.Rule
	Body       *ast.Body
	RecAtom    *ast.Pred // the occurrence of R in the body
	ValueVar   string    // the variable bound to R's value (the "x" of f)
	RecKeyVars []string  // R's key variables in the body occurrence

	F      *expr.Expr // full defining expression of AggVar
	FPrime *expr.Expr // F' after splitting an additive constant (== F when no split)
	CRec   *expr.Expr // additive constant split out of F for combining aggregates; nil if none

	Aux      []*ast.Pred    // non-recursive predicates joined in the body
	Compares []*ast.Compare // comparison atoms (non-assignment)
}

// ConstBody is one non-recursive body of the recursive rule: a C part
// contributing constant tuples each iteration (folded into ΔX¹ by MRA).
type ConstBody struct {
	Body *ast.Body
	Expr *expr.Expr  // defining expression of AggVar in this body
	Aux  []*ast.Pred // predicates supplying parameters (I, pi, node, ...)
}

// Error is a semantic analysis error.
type Error struct {
	Rule string
	Msg  string
}

func (e *Error) Error() string {
	if e.Rule != "" {
		return fmt.Sprintf("analyzer: rule %s: %s", e.Rule, e.Msg)
	}
	return "analyzer: " + e.Msg
}

func errf(rule *ast.Rule, format string, args ...any) error {
	label := ""
	if rule != nil {
		label = rule.Label
		if label == "" {
			label = rule.Head.Name
		}
	}
	return &Error{Rule: label, Msg: fmt.Sprintf(format, args...)}
}

// Analyze classifies the rules of prog and extracts the recursive
// aggregate structure. Programs without a recursive aggregate rule are
// rejected: plain Datalog is out of scope for PowerLog's engine.
func Analyze(prog *ast.Program) (*Info, error) {
	info := &Info{AST: prog}

	var recRules []*ast.Rule
	for _, r := range prog.Rules {
		if r.IsRecursive() {
			recRules = append(recRules, r)
		}
	}
	if len(recRules) == 0 {
		return nil, errf(nil, "no recursive rule found")
	}
	if len(recRules) > 1 {
		return nil, errf(recRules[1], "multiple recursive rules; PowerLog supports linear programs with one recursive aggregate rule (paper §2.1)")
	}
	rec := recRules[0]
	aggTerm, aggPos := rec.AggTermOf()
	if aggTerm == nil {
		return nil, errf(rec, "recursive rule has no aggregate in its head")
	}
	kind, err := agg.Parse(aggTerm.Op)
	if err != nil {
		return nil, errf(rec, "%v", err)
	}
	info.HeadName = rec.Head.Name
	info.Agg = kind
	info.AggVar = aggTerm.Var
	info.AggPos = aggPos
	info.Termination = rec.Term

	if err := analyzeHeadKeys(info, rec); err != nil {
		return nil, err
	}
	if err := splitBodies(info, rec); err != nil {
		return nil, err
	}
	classifyRules(info, prog, rec)
	harvestConstraints(info)
	decide(info)
	return info, nil
}

// analyzeHeadKeys records the head's group-by variables and detects the
// "i+1" iteration-index convention of the paper's PageRank-style programs.
func analyzeHeadKeys(info *Info, rec *ast.Rule) error {
	for i, t := range rec.Head.Args {
		if i == info.AggPos {
			continue
		}
		switch t.Kind {
		case ast.TermVar:
			info.KeyVars = append(info.KeyVars, t.Var)
		case ast.TermArith:
			// Accept an iteration index only in the first position.
			if i == 0 {
				info.IterIndexed = true
				continue
			}
			return errf(rec, "head argument %d is an expression; only the first argument may be an iteration index", i)
		case ast.TermNum:
			if i == 0 {
				info.IterIndexed = true
				continue
			}
			return errf(rec, "head argument %d is a literal", i)
		default:
			return errf(rec, "unsupported head argument %d", i)
		}
	}
	if len(info.KeyVars) == 0 {
		return errf(rec, "recursive head has no group-by key variable")
	}
	return nil
}

// splitBodies separates the recursive body from the constant bodies and
// extracts F, F', and C.
func splitBodies(info *Info, rec *ast.Rule) error {
	for _, body := range rec.Bodies {
		recAtoms := 0
		for _, a := range body.Atoms {
			if a.Kind == ast.AtomPred && a.Pred.Name == rec.Head.Name {
				recAtoms++
			}
		}
		switch {
		case recAtoms > 1:
			return errf(rec, "non-linear recursion (predicate %s appears %d times in one body)", rec.Head.Name, recAtoms)
		case recAtoms == 1:
			if info.Rec != nil {
				return errf(rec, "multiple recursive bodies; only one is supported")
			}
			ri, err := analyzeRecBody(info, rec, body)
			if err != nil {
				return err
			}
			info.Rec = ri
		default:
			cb, err := analyzeConstBody(info, rec, body)
			if err != nil {
				return err
			}
			info.ConstBodies = append(info.ConstBodies, cb)
		}
	}
	if info.Rec == nil {
		return errf(rec, "recursive rule has no body mentioning %s", rec.Head.Name)
	}
	return nil
}

func analyzeRecBody(info *Info, rec *ast.Rule, body *ast.Body) (*RecInfo, error) {
	ri := &RecInfo{Rule: rec, Body: body}
	defs := map[string]*expr.Expr{}
	for _, a := range body.Atoms {
		switch a.Kind {
		case ast.AtomPred:
			if a.Pred.Name == rec.Head.Name {
				ri.RecAtom = a.Pred
			} else {
				ri.Aux = append(ri.Aux, a.Pred)
			}
		case ast.AtomCompare:
			if v, def, ok := a.Cmp.IsAssignment(); ok {
				if _, dup := defs[v]; dup {
					return nil, errf(rec, "variable %s defined twice in one body", v)
				}
				defs[v] = def
			} else {
				ri.Compares = append(ri.Compares, a.Cmp)
			}
		}
	}

	// Bind R's body occurrence: value var sits at the aggregate position;
	// the rest are R's key variables (iteration index skipped).
	if len(ri.RecAtom.Args) != len(rec.Head.Args) {
		return nil, errf(rec, "%s used with arity %d in body but %d in head",
			rec.Head.Name, len(ri.RecAtom.Args), len(rec.Head.Args))
	}
	for i, t := range ri.RecAtom.Args {
		if i == info.AggPos {
			if t.Kind != ast.TermVar {
				return nil, errf(rec, "the value position of %s in the body must be a variable", rec.Head.Name)
			}
			ri.ValueVar = t.Var
			continue
		}
		if i == 0 && info.IterIndexed {
			continue
		}
		switch t.Kind {
		case ast.TermVar:
			ri.RecKeyVars = append(ri.RecKeyVars, t.Var)
		case ast.TermWildcard:
			ri.RecKeyVars = append(ri.RecKeyVars, "_")
		default:
			return nil, errf(rec, "unsupported key term %s in body occurrence of %s", t, rec.Head.Name)
		}
	}

	// Resolve F: the defining expression of AggVar, chasing intermediate
	// assignments, stopping at the recursive value var and aux variables.
	f, err := resolve(info.AggVar, defs, map[string]bool{})
	if err != nil {
		return nil, errf(rec, "%v", err)
	}
	ri.F, ri.FPrime = f, f // decide splits C out of F' where it may
	return ri, nil
}

// resolve chases assignment definitions to express name in terms of
// non-assigned variables (the recursive value var, predicate-bound
// variables, and constants).
func resolve(name string, defs map[string]*expr.Expr, seen map[string]bool) (*expr.Expr, error) {
	def, ok := defs[name]
	if !ok {
		return expr.Var(name), nil
	}
	if seen[name] {
		return nil, fmt.Errorf("cyclic definition of %s", name)
	}
	seen[name] = true
	defer delete(seen, name)
	out := def
	for _, v := range def.Vars() {
		if _, isDef := defs[v]; !isDef {
			continue
		}
		sub, err := resolve(v, defs, seen)
		if err != nil {
			return nil, err
		}
		out = out.Subst(v, sub)
	}
	return out, nil
}

func analyzeConstBody(info *Info, rec *ast.Rule, body *ast.Body) (*ConstBody, error) {
	cb := &ConstBody{Body: body}
	defs := map[string]*expr.Expr{}
	for _, a := range body.Atoms {
		switch a.Kind {
		case ast.AtomPred:
			cb.Aux = append(cb.Aux, a.Pred)
		case ast.AtomCompare:
			if v, def, ok := a.Cmp.IsAssignment(); ok {
				defs[v] = def
			}
		}
	}
	e, err := resolve(info.AggVar, defs, map[string]bool{})
	if err != nil {
		return nil, errf(rec, "%v", err)
	}
	cb.Expr = e
	return cb, nil
}

// classifyRules buckets the remaining rules.
func classifyRules(info *Info, prog *ast.Program, rec *ast.Rule) {
	for _, r := range prog.Rules {
		if r == rec {
			continue
		}
		switch {
		case len(r.Bodies) == 0:
			info.GroundFacts = append(info.GroundFacts, r)
		case r.Head.Name == info.HeadName:
			info.InitRules = append(info.InitRules, r)
		default:
			if t, _ := r.AggTermOf(); t != nil {
				info.DerivedRules = append(info.DerivedRules, r)
			} else {
				info.OtherRules = append(info.OtherRules, r)
			}
		}
	}
}

// harvestConstraints extracts variable domain facts used by the condition
// checker: explicit comparison atoms "v op const" in the recursive body,
// plus the inference that a variable bound by a count-aggregated derived
// relation (e.g. degree) is strictly positive — the paper's
// "(assert (> d 0))" preamble for PageRank.
func harvestConstraints(info *Info) {
	for _, c := range info.Rec.Compares {
		v, bound, rel, ok := varConstCompare(c)
		if !ok {
			continue
		}
		info.Constraints = append(info.Constraints, smt.Constraint{Var: v, Rel: rel, Bound: bound})
	}
	countPreds := map[string]int{} // predicate name → agg position
	for _, r := range info.DerivedRules {
		if t, pos := r.AggTermOf(); t != nil && (t.Op == "count" || t.Op == "mcount") {
			countPreds[r.Head.Name] = pos
		}
	}
	for _, p := range info.Rec.Aux {
		pos, ok := countPreds[p.Name]
		if !ok || pos >= len(p.Args) {
			continue
		}
		if t := p.Args[pos]; t.Kind == ast.TermVar {
			info.Constraints = append(info.Constraints, smt.Constraint{Var: t.Var, Rel: smt.Gt, Bound: 0})
		}
	}
}

// varConstCompare matches atoms of the form "v op num" or "num op v".
func varConstCompare(c *ast.Compare) (v string, bound float64, rel smt.Rel, ok bool) {
	flip := map[smt.Rel]smt.Rel{smt.Ge: smt.Le, smt.Gt: smt.Lt, smt.Le: smt.Ge, smt.Lt: smt.Gt}
	var r smt.Rel
	switch c.Op {
	case ">=":
		r = smt.Ge
	case ">":
		r = smt.Gt
	case "<=":
		r = smt.Le
	case "<":
		r = smt.Lt
	default:
		return "", 0, 0, false
	}
	if c.LHS.Kind == expr.KVar && c.RHS.Kind == expr.KNum {
		return c.LHS.Name, c.RHS.Val, r, true
	}
	if c.LHS.Kind == expr.KNum && c.RHS.Kind == expr.KVar {
		return c.RHS.Name, c.LHS.Val, flip[r], true
	}
	return "", 0, 0, false
}
