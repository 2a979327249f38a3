package smt

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"powerlog/internal/expr"
)

// ProveEq against the procedure it replaced, kept here as the oracle:
// oracleProveEq and oracleDecider.decide are ProveEq and decider.decide as
// they stood before ProveEq proved first — a falsifier pass over the whole
// query, then the decision with every nonzero region sampled before
// Fourier–Motzkin. ProveEq must return the oracle's Result, verdict,
// reason and witness, with one intended difference: a query the exact
// proof discharges is Valid where the oracle's float sampling claimed a
// counterexample, and that witness must be spurious under exact
// evaluation (spurious).

// oracleProveEq is the old ProveEq.
func oracleProveEq(lhs, rhs *expr.Expr, cons []Constraint) Result {
	diff := expr.Sub(lhs, rhs)
	rng := rand.New(rand.NewSource(20200614)) // SIGMOD'20 opening day

	// Fast refutation first: a concrete counterexample settles the query
	// without exponential branching (this is how GCN-Forward and CommNet
	// die in practice).
	if w, ok := falsify(diff, nil, cons, rng, falsifyTries); ok {
		return Result{Verdict: Invalid, Witness: w,
			Reason: fmt.Sprintf("counterexample %v: lhs=%v rhs=%v", fmtModel(w), lhs.Eval(w), rhs.Eval(w))}
	}

	d := &oracleDecider{decider{cons: cons, rng: rng}}
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

// oracleDecider is the old decider: its decide samples every region it
// cannot normalise to zero before it tries Fourier–Motzkin.
type oracleDecider struct{ decider }

func (d *oracleDecider) decide(diff *expr.Expr, conds []cond, splits int) (Verdict, string) {
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
		if w, ok := falsify(diff, conds, d.cons, d.rng, falsifyTries); ok {
			d.witness = w
			return Invalid, fmt.Sprintf("counterexample %v (non-polynomial branch)", fmtModel(w))
		}
		return Unknown, fmt.Sprintf("non-polynomial branch (%v) with no counterexample found", err)
	}
	if rf.EqualZero() {
		return Valid, "normalises to the zero rational function"
	}
	// The difference is a nonzero rational function on this region; a
	// counterexample exists iff the region is feasible (the zero set of a
	// nonzero polynomial has measure zero).
	if w, ok := falsify(diff, conds, d.cons, d.rng, falsifyTries); ok {
		d.witness = w
		return Invalid, fmt.Sprintf("counterexample %v on region %s", fmtModel(w), fmtConds(conds))
	}
	// No sample hit the region: try to *prove* the region empty with
	// Fourier–Motzkin (complete for linear real arithmetic).
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

// sameOrSpurious fails t unless got, ProveEq's answer, is the oracle's
// want, or a Valid where the oracle's witness is spurious.
func sameOrSpurious(t *testing.T, lhs, rhs *expr.Expr, cons []Constraint, got, want Result) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	if got.Verdict == Valid && want.Verdict == Invalid {
		if why, ok := spurious(lhs, rhs, cons, want.Witness); ok {
			t.Logf("%s = %s under %v: Valid where the oracle said Invalid; its witness %s", lhs, rhs, cons, why)
			return
		}
	}
	t.Errorf("%s = %s under %v:\n  ProveEq %v %q %v\n  oracle  %v %q %v",
		lhs, rhs, cons, got.Verdict, got.Reason, got.Witness, want.Verdict, want.Reason, want.Witness)
}

// spurious reports whether w is no counterexample: the constraints are
// contradictory (the falsifier drops a bound on a variable the query does
// not use, so it samples a query that holds vacuously), or, under exact
// evaluation, the two sides are equal at w or one is undefined there (a
// divisor that only float rounding kept off zero). ok is false when w
// separates them, or when they cannot be evaluated exactly.
func spurious(lhs, rhs *expr.Expr, cons []Constraint, w map[string]float64) (string, bool) {
	if !fmFeasible(consIneqs(cons)) {
		return "meets constraints no assignment meets", true
	}
	l, lerr := exactAt(lhs, w)
	r, rerr := exactAt(rhs, w)
	switch {
	case lerr == errUndefined || rerr == errUndefined:
		return "is a pole of one side", true
	case lerr != nil || rerr != nil:
		return fmt.Sprintf("cannot be evaluated exactly (%v, %v)", lerr, rerr), false
	case l.Cmp(r) == 0:
		return fmt.Sprintf("gives both sides %s exactly", l.RatString()), true
	}
	return fmt.Sprintf("separates the sides exactly: %s vs %s", l.RatString(), r.RatString()), false
}

var (
	errUndefined   = errors.New("division by zero")
	errNotRational = errors.New("not a rational value")
)

// exactAt evaluates e at w in exact rational arithmetic: the float values
// are taken exactly, and each piecewise builtin follows the exact sign of
// its argument. A variable w does not bind is 0, as in Eval.
func exactAt(e *expr.Expr, w map[string]float64) (*big.Rat, error) {
	switch e.Kind {
	case expr.KNum, expr.KVar:
		v := e.Val
		if e.Kind == expr.KVar {
			v = w[e.Name]
		}
		r := new(big.Rat)
		if r.SetFloat64(v) == nil {
			return nil, errNotRational
		}
		return r, nil
	}
	args := make([]*big.Rat, len(e.Args))
	for i, a := range e.Args {
		v, err := exactAt(a, w)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	out := new(big.Rat)
	switch e.Kind {
	case expr.KNeg:
		return out.Neg(args[0]), nil
	case expr.KAdd:
		return out.Add(args[0], args[1]), nil
	case expr.KSub:
		return out.Sub(args[0], args[1]), nil
	case expr.KMul:
		return out.Mul(args[0], args[1]), nil
	case expr.KDiv:
		if args[1].Sign() == 0 {
			return nil, errUndefined
		}
		return out.Quo(args[0], args[1]), nil
	}
	switch e.Name {
	case "relu":
		if args[0].Sign() < 0 {
			return out, nil
		}
		return args[0], nil
	case "abs":
		return out.Abs(args[0]), nil
	case "min":
		if args[0].Cmp(args[1]) <= 0 {
			return args[0], nil
		}
		return args[1], nil
	case "max":
		if args[0].Cmp(args[1]) >= 0 {
			return args[0], nil
		}
		return args[1], nil
	}
	return nil, errNotRational
}

// queryGen draws the property test's queries.
type queryGen struct {
	rng  *rand.Rand
	vars []string
}

var genConsts = []float64{-2, -1, -0.5, 0, 0.5, 1, 2, 3}

func (g *queryGen) leaf() *expr.Expr {
	if g.rng.Intn(3) == 0 {
		return expr.Num(genConsts[g.rng.Intn(len(genConsts))])
	}
	return expr.Var(g.vars[g.rng.Intn(len(g.vars))])
}

// tree is an expression over + − * / min max relu abs tanh, at most depth
// operators deep.
func (g *queryGen) tree(depth int) *expr.Expr {
	if depth == 0 || g.rng.Intn(4) == 0 {
		return g.leaf()
	}
	a := g.tree(depth - 1)
	switch g.rng.Intn(9) {
	case 0:
		return expr.Add(a, g.tree(depth-1))
	case 1:
		return expr.Sub(a, g.tree(depth-1))
	case 2:
		return expr.Mul(a, g.tree(depth-1))
	case 3:
		return expr.Div(a, g.tree(depth-1))
	case 4:
		return expr.Call("min", a, g.tree(depth-1))
	case 5:
		return expr.Call("max", a, g.tree(depth-1))
	case 6:
		return expr.Call("relu", a)
	case 7:
		return expr.Call("abs", a)
	default:
		return expr.Call("tanh", a)
	}
}

// equal is an expression equal to e wherever e is defined: its operators
// commuted, or rewritten into one another, at random.
func (g *queryGen) equal(e *expr.Expr) *expr.Expr {
	if len(e.Args) == 0 {
		return e
	}
	args := make([]*expr.Expr, len(e.Args))
	for i, a := range e.Args {
		args[i] = g.equal(a)
	}
	flip := g.rng.Intn(2) == 0
	switch {
	case e.Kind == expr.KAdd && flip:
		return expr.Add(args[1], args[0])
	case e.Kind == expr.KAdd:
		return expr.Sub(args[0], expr.Neg(args[1]))
	case e.Kind == expr.KSub && flip:
		return expr.Add(args[0], expr.Mul(expr.Num(-1), args[1]))
	case e.Kind == expr.KMul && flip:
		return expr.Mul(args[1], args[0])
	case e.Name == "min" && flip:
		return expr.Call("min", args[1], args[0])
	case e.Name == "min":
		return expr.Neg(expr.Call("max", expr.Neg(args[0]), expr.Neg(args[1])))
	case e.Name == "max" && flip:
		return expr.Call("max", args[1], args[0])
	case e.Name == "max":
		return expr.Add(args[0], expr.Call("relu", expr.Sub(args[1], args[0])))
	case e.Name == "relu" && flip:
		return expr.Call("max", args[0], expr.Num(0))
	case e.Name == "relu":
		return expr.Div(expr.Add(args[0], expr.Call("abs", args[0])), expr.Num(2))
	case e.Name == "abs" && flip:
		return expr.Call("max", args[0], expr.Neg(args[0]))
	}
	return &expr.Expr{Kind: e.Kind, Val: e.Val, Name: e.Name, Args: args}
}

// mutate is e with one leaf redrawn: usually a different function.
func (g *queryGen) mutate(e *expr.Expr) *expr.Expr {
	if len(e.Args) == 0 {
		return g.leaf()
	}
	args := append([]*expr.Expr(nil), e.Args...)
	i := g.rng.Intn(len(args))
	args[i] = g.mutate(args[i])
	return &expr.Expr{Kind: e.Kind, Val: e.Val, Name: e.Name, Args: args}
}

// constraints are up to two bounds on the query's variables.
func (g *queryGen) constraints() []Constraint {
	var cons []Constraint
	for n := g.rng.Intn(3); n > 0; n-- {
		rel := Ge
		if g.rng.Intn(2) == 0 {
			rel = Le
		}
		cons = append(cons, Constraint{Var: g.vars[g.rng.Intn(len(g.vars))], Rel: rel, Bound: genConsts[1+g.rng.Intn(5)]})
	}
	return cons
}

// piecewiseCalls counts e's piecewise builtins, the case splits of the
// decision at worst.
func piecewiseCalls(e *expr.Expr) int {
	n := 0
	if e.Kind == expr.KCall && piecewiseFns[e.Name] {
		n++
	}
	for _, a := range e.Args {
		n += piecewiseCalls(a)
	}
	return n
}

// aggBinary is the checker's binary form of aggregate g (§5.1).
func aggBinary(g string, a, b *expr.Expr) *expr.Expr {
	switch g {
	case "sum", "count":
		return expr.Add(a, b)
	case "mean":
		return expr.Div(expr.Add(a, b), expr.Num(2))
	}
	return expr.Call(g, a, b)
}

// fig4 is the checker's Figure-4 Property 2 template for aggregate g
// over f.
func fig4(g string, f func(*expr.Expr) *expr.Expr) (lhs, rhs *expr.Expr) {
	x1, y1 := expr.Var("ǂx1"), expr.Var("ǂy1")
	x2, y2 := expr.Var("ǂx2"), expr.Var("ǂy2")
	lhs = aggBinary(g, f(aggBinary(g, x1, y1)), f(aggBinary(g, x2, y2)))
	rhs = aggBinary(g, aggBinary(g, aggBinary(g, f(x1), f(y1)), f(x2)), f(y2))
	return lhs, rhs
}

// TestProveEqMatchesOracle runs ProveEq and the oracle on seeded queries:
// Property 1 of every aggregate, generated identities (an expression
// against a rewriting of it, of a mutant, or of another expression)
// under optional bounds, and the Figure-4 Property 2 template over
// generated F' for sum, min and max.
func TestProveEqMatchesOracle(t *testing.T) {
	verdicts := map[Verdict]int{}
	check := func(lhs, rhs *expr.Expr, cons []Constraint) {
		t.Helper()
		got, want := ProveEq(lhs, rhs, cons), oracleProveEq(lhs, rhs, cons)
		verdicts[got.Verdict]++
		sameOrSpurious(t, lhs, rhs, cons, got, want)
	}
	a, b, c := expr.Var("a"), expr.Var("b"), expr.Var("c")
	for _, g := range []string{"sum", "min", "max", "mean"} {
		check(aggBinary(g, a, b), aggBinary(g, b, a), nil)
		check(aggBinary(g, aggBinary(g, a, b), c), aggBinary(g, a, aggBinary(g, b, c)), nil)
	}

	rng := rand.New(rand.NewSource(50))
	allVars := []string{"a", "b", "c", "d"}
	for i := 0; i < 400; i++ {
		g := &queryGen{rng: rng, vars: allVars[:1+rng.Intn(4)]}
		lhs := g.tree(3)
		var rhs *expr.Expr
		switch rng.Intn(4) {
		case 0, 1:
			rhs = g.equal(lhs)
		case 2:
			rhs = g.equal(g.mutate(lhs))
		default:
			rhs = g.tree(3)
		}
		// The oracle samples every nonzero region, up to 2^8 of them here.
		if piecewiseCalls(lhs)+piecewiseCalls(rhs) > 8 {
			continue
		}
		check(lhs, rhs, g.constraints())
	}

	for i := 0; i < 300; i++ {
		g := &queryGen{rng: rng, vars: []string{"v", "v", "p", "q"}}
		fp := g.tree(2)
		f := func(x *expr.Expr) *expr.Expr { return fp.Subst("v", x) }
		lhs, rhs := fig4([]string{"sum", "min", "max"}[i%3], f)
		if piecewiseCalls(lhs)+piecewiseCalls(rhs) > 8 {
			continue
		}
		check(lhs, rhs, g.constraints())
	}
	t.Logf("verdicts: %d valid, %d invalid, %d unknown", verdicts[Valid], verdicts[Invalid], verdicts[Unknown])
	for _, v := range []Verdict{Valid, Invalid, Unknown} {
		if verdicts[v] == 0 {
			t.Errorf("no query ended %v", v)
		}
	}
}

// FuzzProveEq runs ProveEq and the oracle on the fuzzer's queries: lhs
// and rhs in prefix notation (readExpr), cons a space-separated list of
// bounds such as "x>=0 y<1". Queries past the property test's size are
// skipped, the oracle's sampling makes big ones slow.
func FuzzProveEq(f *testing.F) {
	f.Fuzz(func(t *testing.T, lhsSrc, rhsSrc, consSrc string) {
		lhs, err := readExpr(lhsSrc)
		if err != nil {
			t.Skip(err)
		}
		rhs, err := readExpr(rhsSrc)
		if err != nil {
			t.Skip(err)
		}
		cons, err := readConstraints(consSrc)
		if err != nil {
			t.Skip(err)
		}
		if piecewiseCalls(lhs)+piecewiseCalls(rhs) > 8 || len(expr.Sub(lhs, rhs).Vars()) > 6 {
			t.Skip("query too big")
		}
		sameOrSpurious(t, lhs, rhs, cons, ProveEq(lhs, rhs, cons), oracleProveEq(lhs, rhs, cons))
	})
}

// readExpr reads prefix notation: a number, a variable, or (op arg...)
// with op one of + - * / neg or a builtin.
func readExpr(src string) (*expr.Expr, error) {
	toks := strings.Fields(strings.NewReplacer("(", " ( ", ")", " ) ").Replace(src))
	e, rest, err := readTerm(toks, 0)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("trailing %q", rest[0])
	}
	if err == nil {
		err = e.Check()
	}
	return e, err
}

var readOps = map[string]expr.Kind{"+": expr.KAdd, "-": expr.KSub, "*": expr.KMul, "/": expr.KDiv}

func readTerm(toks []string, depth int) (*expr.Expr, []string, error) {
	if len(toks) == 0 {
		return nil, nil, fmt.Errorf("unexpected end")
	}
	if depth > 12 {
		return nil, nil, fmt.Errorf("too deep")
	}
	tok, toks := toks[0], toks[1:]
	if tok == ")" {
		return nil, nil, fmt.Errorf("unexpected )")
	}
	if tok != "(" {
		if v, err := strconv.ParseFloat(tok, 64); err == nil {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, nil, fmt.Errorf("non-finite %q", tok)
			}
			return expr.Num(v), toks, nil
		}
		return expr.Var(tok), toks, nil
	}
	if len(toks) == 0 {
		return nil, nil, fmt.Errorf("unexpected end")
	}
	op, toks := toks[0], toks[1:]
	var args []*expr.Expr
	for len(toks) > 0 && toks[0] != ")" {
		a, rest, err := readTerm(toks, depth+1)
		if err != nil {
			return nil, nil, err
		}
		args, toks = append(args, a), rest
	}
	if len(toks) == 0 {
		return nil, nil, fmt.Errorf("unclosed (")
	}
	toks = toks[1:]
	switch k, ok := readOps[op]; {
	case ok && len(args) == 2:
		return &expr.Expr{Kind: k, Args: args}, toks, nil
	case op == "neg" && len(args) == 1:
		return expr.Neg(args[0]), toks, nil
	case ok || op == "neg":
		return nil, nil, fmt.Errorf("%s takes %d arguments", op, len(args))
	}
	return expr.Call(op, args...), toks, nil
}

// readConstraints reads bounds such as "x>=0 y<1".
func readConstraints(src string) ([]Constraint, error) {
	var cons []Constraint
	for _, f := range strings.Fields(src) {
		i := strings.IndexAny(f, "<>")
		if i <= 0 {
			return nil, fmt.Errorf("bad bound %q", f)
		}
		c := Constraint{Var: f[:i]}
		op, num := f[i:i+1], f[i+1:]
		strict := !strings.HasPrefix(num, "=")
		num = strings.TrimPrefix(num, "=")
		switch {
		case op == ">" && strict:
			c.Rel = Gt
		case op == ">":
			c.Rel = Ge
		case strict:
			c.Rel = Lt
		default:
			c.Rel = Le
		}
		v, err := strconv.ParseFloat(num, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bad bound %q", f)
		}
		c.Bound = v
		cons = append(cons, c)
	}
	return cons, nil
}
