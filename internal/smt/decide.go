package smt

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"

	"powerlog/internal/expr"
)

// Verdict is the solver's answer about a universally quantified equality,
// mirroring Z3's answer to the paper's double-negated assertion:
// Valid = "unsat", Invalid = "sat" (with model), Unknown = "unknown".
type Verdict int

// Verdicts.
const (
	Unknown Verdict = iota
	Valid
	Invalid
)

// String renders the verdict in Z3's vocabulary alongside ours.
func (v Verdict) String() string {
	switch v {
	case Valid:
		return "valid (Z3: unsat)"
	case Invalid:
		return "invalid (Z3: sat)"
	default:
		return "unknown"
	}
}

// Result is the outcome of a ProveEq query.
type Result struct {
	Verdict Verdict
	Witness map[string]float64 // counterexample model when Invalid
	Reason  string             // human-readable proof / refutation sketch
}

// maxSplits bounds the piecewise case-split depth; 2^maxSplits regions.
const maxSplits = 14

// falsifyTries is the sample budget of the counterexample search.
const falsifyTries = 4000

// relative tolerance for float counterexample confirmation; generous
// enough to absorb non-associative float rounding between the two sides.
const eqTol = 1e-6

// ProveEq decides whether lhs == rhs for all real assignments satisfying
// the constraints. It proves, then refutes. The proof is exact and draws
// no samples: normalisation, case splits and Fourier–Motzkin, with every
// region it cannot discharge left undecided. A query it proves is Valid,
// and no sample could have refuted it. Only a query it cannot prove is
// attacked by sampling: a falsifier pass over the whole query, then the
// same decision with each undischarged region sampled before
// Fourier–Motzkin. The deterministic seed makes verdicts reproducible.
func ProveEq(lhs, rhs *expr.Expr, cons []Constraint) Result {
	diff := expr.Sub(lhs, rhs)
	proof := &decider{cons: cons}
	if verdict, reason := proof.decide(diff, nil, 0); verdict == Valid {
		return Result{Verdict: Valid, Reason: reason}
	}
	rng := rand.New(rand.NewSource(20200614)) // SIGMOD'20 opening day

	// Fast refutation first: a concrete counterexample settles the query
	// without exponential branching (this is how GCN-Forward and CommNet
	// die in practice).
	if w, ok := falsify(diff, nil, cons, rng, falsifyTries); ok {
		return Result{Verdict: Invalid, Witness: w,
			Reason: fmt.Sprintf("counterexample %v: lhs=%v rhs=%v", fmtModel(w), lhs.Eval(w), rhs.Eval(w))}
	}

	d := &decider{cons: cons, rng: rng}
	verdict, reason := d.decide(diff, nil, 0)
	switch verdict {
	case Valid:
		return Result{Verdict: Valid, Reason: reason}
	case Invalid:
		return Result{Verdict: Invalid, Witness: d.witness, Reason: reason}
	default:
		return Result{Verdict: Unknown, Reason: reason}
	}
}

// cond is a branch condition: expr (>= | <) 0, or (> | <=) 0.
type cond struct {
	e      *expr.Expr
	ge     bool // true: lower bound (>= or >); false: upper (< or <=)
	strict bool
}

// holds judges the condition on v, the value of c.e at a sample.
func (c cond) holds(v float64) bool {
	switch {
	case c.ge && c.strict:
		return v > 0
	case c.ge:
		return v >= 0
	case c.strict:
		return v < 0
	default:
		return v <= 0
	}
}

// decider runs the decision procedure. With a nil rng it only proves: a
// region it cannot discharge exactly is Unknown, and it never samples.
type decider struct {
	cons    []Constraint
	rng     *rand.Rand
	witness map[string]float64
}

// refute samples the region for a counterexample, recording it as the
// witness; a proving decider has no rng and finds none.
func (d *decider) refute(diff *expr.Expr, conds []cond) bool {
	if d.rng == nil {
		return false
	}
	w, ok := falsify(diff, conds, d.cons, d.rng, falsifyTries)
	if ok {
		d.witness = w
	}
	return ok
}

// branch is one side of a piecewise case split: on region c, the call
// node rewrites to repl.
type branch struct {
	c    cond
	repl *expr.Expr
}

// piecewiseFns are builtins the case-split engine can eliminate.
var piecewiseFns = map[string]bool{"relu": true, "abs": true, "min": true, "max": true}

// findInnermostPiecewise returns a piecewise call node none of whose
// arguments contain further piecewise calls, or nil.
func findInnermostPiecewise(e *expr.Expr) *expr.Expr {
	if e.Kind == expr.KCall && piecewiseFns[e.Name] {
		for _, a := range e.Args {
			if inner := findInnermostPiecewise(a); inner != nil {
				return inner
			}
		}
		return e
	}
	for _, a := range e.Args {
		if inner := findInnermostPiecewise(a); inner != nil {
			return inner
		}
	}
	return nil
}

// replaceNode substitutes repl for every occurrence of target (by pointer
// identity) in e. Replacing all identical occurrences at once is sound:
// the same subexpression falls on the same side of its branch condition.
func replaceNode(e, target, repl *expr.Expr) *expr.Expr {
	if e == target {
		return repl
	}
	if len(e.Args) == 0 {
		return e
	}
	changed := false
	args := make([]*expr.Expr, len(e.Args))
	for i, a := range e.Args {
		args[i] = replaceNode(a, target, repl)
		if args[i] != a {
			changed = true
		}
	}
	if !changed {
		return e
	}
	return &expr.Expr{Kind: e.Kind, Val: e.Val, Name: e.Name, Args: args}
}

// decide proves diff == 0 on the region described by conds (plus the
// global constraints), case-splitting piecewise builtins.
func (d *decider) decide(diff *expr.Expr, conds []cond, splits int) (Verdict, string) {
	if call := findInnermostPiecewise(diff); call != nil {
		if splits >= maxSplits {
			return Unknown, fmt.Sprintf("case-split budget exceeded (%d piecewise calls)", splits)
		}
		var branches []branch
		switch call.Name {
		case "relu":
			a := call.Args[0]
			branches = []branch{
				{cond{a, true, false}, a},           // a >= 0 → a
				{cond{a, false, true}, expr.Num(0)}, // a <  0 → 0
			}
		case "abs":
			a := call.Args[0]
			branches = []branch{
				{cond{a, true, false}, a},
				{cond{a, false, true}, expr.Neg(a)},
			}
		case "min":
			a, b := call.Args[0], call.Args[1]
			dab := expr.Sub(a, b)
			branches = []branch{
				{cond{dab, false, false}, a}, // a-b <= 0 → a
				{cond{dab, true, true}, b},   // a-b >  0 → b
			}
		case "max":
			a, b := call.Args[0], call.Args[1]
			dab := expr.Sub(a, b)
			branches = []branch{
				{cond{dab, true, false}, a},
				{cond{dab, false, true}, b},
			}
		}
		for _, br := range branches {
			sub := replaceNode(diff, call, br.repl)
			v, reason := d.decide(sub, append(conds[:len(conds):len(conds)], br.c), splits+1)
			if v != Valid {
				return v, reason
			}
		}
		return Valid, fmt.Sprintf("all %d-deep case splits discharged", splits+1)
	}

	// Base case: no piecewise calls remain.
	rf, err := FromExpr(diff)
	if err != nil {
		// Transcendental residue: only refutation is possible here.
		if d.refute(diff, conds) {
			return Invalid, fmt.Sprintf("counterexample %v (non-polynomial branch)", fmtModel(d.witness))
		}
		return Unknown, fmt.Sprintf("non-polynomial branch (%v) with no counterexample found", err)
	}
	if rf.EqualZero() {
		return Valid, "normalises to the zero rational function"
	}
	// The difference is a nonzero rational function on this region; a
	// counterexample exists iff the region is feasible (the zero set of a
	// nonzero polynomial has measure zero).
	if d.refute(diff, conds) {
		return Invalid, fmt.Sprintf("counterexample %v on region %s", fmtModel(d.witness), fmtConds(conds))
	}
	// No sample hit the region (or none was drawn): try to *prove* the
	// region empty with Fourier–Motzkin (complete for linear real
	// arithmetic).
	if ineqs, ok := d.linearSystem(conds); ok {
		if !fmFeasible(ineqs) {
			return Valid, fmt.Sprintf("region %s infeasible (Fourier–Motzkin)", fmtConds(conds))
		}
		// The region is feasible but thin (sampling missed it, e.g. the
		// diagonal a == b). The difference may still vanish everywhere ON
		// the region: prove diff > 0 and diff < 0 both infeasible there.
		if num, ok := signedLinearNumerator(rf); ok {
			coefPos, konstPos, lin := linFromPoly(num)
			if lin {
				coefNeg, konstNeg, _ := linFromPoly(num.Neg())
				pos := append(ineqs[:len(ineqs):len(ineqs)], &linIneq{coef: coefPos, konst: konstPos, strict: true})
				neg := append(ineqs[:len(ineqs):len(ineqs)], &linIneq{coef: coefNeg, konst: konstNeg, strict: true})
				if !fmFeasible(pos) && !fmFeasible(neg) {
					return Valid, fmt.Sprintf("difference vanishes on region %s (Fourier–Motzkin)", fmtConds(conds))
				}
			}
		}
		return Unknown, fmt.Sprintf("nonzero difference on feasible thin region %s", fmtConds(conds))
	}
	return Unknown, fmt.Sprintf("nonzero difference on nonlinear region %s", fmtConds(conds))
}

// signedLinearNumerator returns the numerator of rf oriented so that its
// sign matches the sign of rf, which requires a constant nonzero
// denominator. ok is false otherwise.
func signedLinearNumerator(rf RatFunc) (Poly, bool) {
	dc, isConst := rf.Den.IsConst()
	if !isConst || dc.Sign() == 0 {
		return nil, false
	}
	if dc.Sign() < 0 {
		return rf.Num.Neg(), true
	}
	return rf.Num, true
}

// linearSystem converts branch conditions plus global constraints to
// linear inequalities; ok is false if anything is nonlinear.
func (d *decider) linearSystem(conds []cond) ([]*linIneq, bool) {
	var out []*linIneq
	for _, c := range conds {
		rf, err := FromExpr(c.e)
		if err != nil {
			return nil, false
		}
		p := rf.Num
		// e = Num/Den: require a constant denominator to keep the sign
		// relation linear; flip for negative constants.
		dc, isConst := rf.Den.IsConst()
		if !isConst || dc.Sign() == 0 {
			return nil, false
		}
		if dc.Sign() < 0 {
			p = p.Neg()
		}
		if !c.ge {
			p = p.Neg() // e <(=) 0  ⇔  -e >(=) 0
		}
		coef, konst, ok := linFromPoly(p)
		if !ok {
			return nil, false
		}
		out = append(out, &linIneq{coef: coef, konst: konst, strict: c.strict})
	}
	return append(out, consIneqs(d.cons)...), true
}

// consIneqs converts the global variable constraints to linear form.
func consIneqs(cons []Constraint) []*linIneq {
	var out []*linIneq
	for _, c := range cons {
		bound := new(big.Rat)
		bound.SetFloat64(c.Bound)
		q := &linIneq{coef: map[string]*big.Rat{}, konst: new(big.Rat)}
		switch c.Rel {
		case Ge, Gt: // v - bound >= 0
			q.coef[c.Var] = big.NewRat(1, 1)
			q.konst.Neg(bound)
			q.strict = c.Rel == Gt
		case Le, Lt: // bound - v >= 0
			q.coef[c.Var] = big.NewRat(-1, 1)
			q.konst.Set(bound)
			q.strict = c.Rel == Lt
		}
		out = append(out, q)
	}
	return out
}

// falsify searches for an assignment satisfying conds and cons at which
// diff evaluates away from zero (relative tolerance eqTol). A sample is a
// frame, the sorted variables' values in order, and every expression a
// closure over it (expr.Compile): the draws, their order and the
// floating-point operations are those of evaluating the trees over a map.
func falsify(diff *expr.Expr, conds []cond, cons []Constraint, rng *rand.Rand, tries int) (map[string]float64, bool) {
	varSet := map[string]bool{}
	for _, v := range diff.Vars() {
		varSet[v] = true
	}
	for _, c := range conds {
		for _, v := range c.e.Vars() {
			varSet[v] = true
		}
	}
	vars := make([]string, 0, len(varSet))
	for v := range varSet {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	slots := make(map[string]int, len(vars))
	for i, v := range vars {
		slots[v] = i
	}
	// Like Eval, compile panics on a builtin the parser would have refused.
	compile := func(e *expr.Expr) func([]float64) float64 {
		f, err := e.Compile(slots)
		if err != nil {
			panic(err)
		}
		return f
	}
	value := compile(diff)
	if len(vars) == 0 {
		if math.Abs(value(nil)) > eqTol {
			return map[string]float64{}, true
		}
		return nil, false
	}
	magnitude := compile(diff.Args[0])
	condValue := make([]func([]float64) float64, len(conds))
	for i, c := range conds {
		condValue[i] = compile(c.e)
	}
	// A constraint on a variable the sample does not bind constrains nothing.
	var bounds []Constraint
	var boundSlot []int
	for _, c := range cons {
		if s, ok := slots[c.Var]; ok {
			bounds, boundSlot = append(bounds, c), append(boundSlot, s)
		}
	}
	doms := domainsOf(vars, cons)

	frame := make([]float64, len(vars))
next:
	for i := 0; i < tries; i++ {
		for s := range frame {
			structured := -1
			if i < tries/2 { // first half: bias toward structured points
				structured = rng.Intn(len(interestingPoints) + 4) // sometimes uniform
			}
			frame[s] = doms[s].sample(rng, structured)
		}
		for j := range bounds {
			if !bounds[j].Satisfied(frame[boundSlot[j]]) {
				continue next
			}
		}
		for j := range conds {
			if !conds[j].holds(condValue[j](frame)) {
				continue next
			}
		}
		v := value(frame)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		// Scale tolerance by the magnitude of the subterms to absorb float
		// reassociation error.
		scale := math.Max(1, math.Abs(magnitude(frame)))
		if math.Abs(v) > eqTol*scale {
			w := make(map[string]float64, len(vars))
			for s, name := range vars {
				w[name] = frame[s]
			}
			return w, true
		}
	}
	return nil, false
}

func fmtModel(w map[string]float64) string {
	keys := make([]string, 0, len(w))
	for k := range w {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := "{"
	for i, k := range keys {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s=%v", k, w[k])
	}
	return s + "}"
}

func fmtConds(conds []cond) string {
	if len(conds) == 0 {
		return "⊤"
	}
	s := ""
	for i, c := range conds {
		if i > 0 {
			s += " ∧ "
		}
		op := map[[2]bool]string{{true, false}: ">=", {true, true}: ">", {false, false}: "<=", {false, true}: "<"}[[2]bool{c.ge, c.strict}]
		s += fmt.Sprintf("%s %s 0", c.e, op)
	}
	return s
}
