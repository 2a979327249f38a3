package smt

import (
	"math/big"
	"testing"

	"powerlog/internal/expr"
)

// --- Fourier–Motzkin ------------------------------------------------------

func ineq(konst int64, strict bool, terms map[string]int64) *linIneq {
	coef := map[string]*big.Rat{}
	for v, c := range terms {
		coef[v] = big.NewRat(c, 1)
	}
	return &linIneq{coef: coef, konst: big.NewRat(konst, 1), strict: strict}
}

func TestFMFeasible(t *testing.T) {
	// x >= 1, x <= 3: feasible.
	sys := []*linIneq{
		ineq(-1, false, map[string]int64{"x": 1}), // x - 1 >= 0
		ineq(3, false, map[string]int64{"x": -1}), // 3 - x >= 0
	}
	if !fmFeasible(sys) {
		t.Error("x in [1,3] should be feasible")
	}

	// x >= 3, x <= 1: infeasible.
	sys = []*linIneq{
		ineq(-3, false, map[string]int64{"x": 1}),
		ineq(1, false, map[string]int64{"x": -1}),
	}
	if fmFeasible(sys) {
		t.Error("x>=3 && x<=1 should be infeasible")
	}

	// x > 1, x < 1: infeasible (strictness matters).
	sys = []*linIneq{
		ineq(-1, true, map[string]int64{"x": 1}),
		ineq(1, true, map[string]int64{"x": -1}),
	}
	if fmFeasible(sys) {
		t.Error("x>1 && x<1 should be infeasible")
	}

	// x >= 1, x <= 1: feasible exactly at x=1.
	sys = []*linIneq{
		ineq(-1, false, map[string]int64{"x": 1}),
		ineq(1, false, map[string]int64{"x": -1}),
	}
	if !fmFeasible(sys) {
		t.Error("x=1 point should be feasible")
	}

	// Two variables: x <= y, y <= z, z <= x - 1: infeasible cycle.
	sys = []*linIneq{
		ineq(0, false, map[string]int64{"x": -1, "y": 1}),
		ineq(0, false, map[string]int64{"y": -1, "z": 1}),
		ineq(-1, false, map[string]int64{"z": -1, "x": 1}), // x - z >= 1 means z <= x-1... wait
	}
	// x<=y, y<=z gives x<=z; adding x - z >= 1 (x >= z+1) contradicts.
	if fmFeasible(sys) {
		t.Error("cyclic chain should be infeasible")
	}

	// Unbounded single-sided constraints are trivially feasible.
	sys = []*linIneq{ineq(-5, false, map[string]int64{"x": 1, "y": 1})}
	if !fmFeasible(sys) {
		t.Error("half-space is feasible")
	}

	// Ground contradictions.
	if fmFeasible([]*linIneq{ineq(-1, false, nil)}) {
		t.Error("-1 >= 0 should be infeasible")
	}
	if fmFeasible([]*linIneq{ineq(0, true, nil)}) {
		t.Error("0 > 0 should be infeasible")
	}
	if !fmFeasible([]*linIneq{ineq(0, false, nil)}) {
		t.Error("0 >= 0 should be feasible")
	}
	if !fmFeasible(nil) {
		t.Error("empty system is feasible")
	}
}

// --- Sign analysis --------------------------------------------------------

func TestSignOf(t *testing.T) {
	consD := []Constraint{{Var: "d", Rel: Gt, Bound: 0}}
	consW := []Constraint{{Var: "w", Rel: Ge, Bound: 0}, {Var: "p", Rel: Ge, Bound: 0}}
	cases := []struct {
		e    *expr.Expr
		cons []Constraint
		want func(Sign) bool
	}{
		{expr.Num(0.85), nil, func(s Sign) bool { return s == SignPos }},
		{expr.Num(0), nil, func(s Sign) bool { return s == SignZero }},
		{expr.Num(-2), nil, func(s Sign) bool { return s == SignNeg }},
		{expr.Var("d"), consD, func(s Sign) bool { return s == SignPos }},
		{expr.Div(expr.Num(0.85), expr.Var("d")), consD, func(s Sign) bool { return s.NonNegative() }},
		{expr.Mul(expr.Var("w"), expr.Var("p")), consW, func(s Sign) bool { return s.NonNegative() }},
		{expr.Mul(expr.Num(0.7), expr.Mul(expr.Var("w"), expr.Var("p"))), consW, func(s Sign) bool { return s.NonNegative() }},
		{expr.Var("free"), nil, func(s Sign) bool { return s == SignUnknown }},
		{expr.Neg(expr.Var("d")), consD, func(s Sign) bool { return s == SignNeg }},
		{expr.Call("relu", expr.Var("free")), nil, func(s Sign) bool { return s.NonNegative() }},
		{expr.Call("abs", expr.Var("free")), nil, func(s Sign) bool { return s.NonNegative() }},
		{expr.Call("exp", expr.Var("free")), nil, func(s Sign) bool { return s == SignPos }},
		{expr.Add(expr.Var("d"), expr.Call("relu", expr.Var("q"))), consD, func(s Sign) bool { return s == SignPos }},
		{expr.Sub(expr.Num(0), expr.Var("d")), consD, func(s Sign) bool { return s == SignNeg }},
	}
	for i, c := range cases {
		if got := SignOf(c.e, c.cons); !c.want(got) {
			t.Errorf("case %d: SignOf(%s) = %v", i, c.e, got)
		}
	}
}

func TestVarSignMeet(t *testing.T) {
	cons := []Constraint{{Var: "x", Rel: Ge, Bound: 0}, {Var: "x", Rel: Le, Bound: 0}}
	if got := varSign("x", cons); got != SignZero {
		t.Errorf("x in [0,0] should be zero, got %v", got)
	}
}

// --- ProveEq: the identities the checker depends on ------------------------

// aggExpr builds g(a,b) for the named aggregate.
func aggExpr(g string, a, b *expr.Expr) *expr.Expr {
	switch g {
	case "sum", "count":
		return expr.Add(a, b)
	case "min", "max":
		return expr.Call(g, a, b)
	case "mean":
		return expr.Div(expr.Add(a, b), expr.Num(2))
	}
	panic("bad agg")
}

func TestProveCommutativity(t *testing.T) {
	a, b := expr.Var("a"), expr.Var("b")
	for _, g := range []string{"sum", "min", "max", "mean"} {
		res := ProveEq(aggExpr(g, a, b), aggExpr(g, b, a), nil)
		if res.Verdict != Valid {
			t.Errorf("%s commutativity: %v (%s)", g, res.Verdict, res.Reason)
		}
	}
}

func TestProveAssociativity(t *testing.T) {
	a, b, c := expr.Var("a"), expr.Var("b"), expr.Var("c")
	for _, g := range []string{"sum", "min", "max"} {
		lhs := aggExpr(g, aggExpr(g, a, b), c)
		rhs := aggExpr(g, a, aggExpr(g, b, c))
		res := ProveEq(lhs, rhs, nil)
		if res.Verdict != Valid {
			t.Errorf("%s associativity: %v (%s)", g, res.Verdict, res.Reason)
		}
	}
	// mean is NOT associative; the solver must produce a counterexample.
	lhs := aggExpr("mean", aggExpr("mean", a, b), c)
	rhs := aggExpr("mean", a, aggExpr("mean", b, c))
	res := ProveEq(lhs, rhs, nil)
	if res.Verdict != Invalid {
		t.Fatalf("mean associativity should be refuted: %v (%s)", res.Verdict, res.Reason)
	}
	l := lhs.Eval(res.Witness)
	r := rhs.Eval(res.Witness)
	if l == r {
		t.Errorf("witness %v does not separate the sides", res.Witness)
	}
}

// p2Template builds the paper's Figure-4 Property-2 template for a binary
// aggregate g and unary f:
//
//	lhs = g(f(g(x1,y1)), f(g(x2,y2)))
//	rhs = g(g(g(f(x1),f(y1)), f(x2)), f(y2))
func p2Template(g string, f func(*expr.Expr) *expr.Expr) (lhs, rhs *expr.Expr) {
	x1, y1, x2, y2 := expr.Var("x1"), expr.Var("y1"), expr.Var("x2"), expr.Var("y2")
	lhs = aggExpr(g, f(aggExpr(g, x1, y1)), f(aggExpr(g, x2, y2)))
	rhs = aggExpr(g, aggExpr(g, aggExpr(g, f(x1), f(y1)), f(x2)), f(y2))
	return lhs, rhs
}

func TestProveP2PageRank(t *testing.T) {
	// f = 0.85*x/d with d > 0 — the exact query of paper Figure 4.
	f := func(x *expr.Expr) *expr.Expr {
		return expr.Div(expr.Mul(expr.Num(0.85), x), expr.Var("d"))
	}
	lhs, rhs := p2Template("sum", f)
	res := ProveEq(lhs, rhs, []Constraint{{Var: "d", Rel: Gt, Bound: 0}})
	if res.Verdict != Valid {
		t.Errorf("PageRank P2 should be valid: %v (%s)", res.Verdict, res.Reason)
	}
}

func TestProveP2SSSP(t *testing.T) {
	// f = x + w (edge relaxation) under min.
	f := func(x *expr.Expr) *expr.Expr { return expr.Add(x, expr.Var("w")) }
	lhs, rhs := p2Template("min", f)
	res := ProveEq(lhs, rhs, nil)
	if res.Verdict != Valid {
		t.Errorf("SSSP P2 should be valid: %v (%s)", res.Verdict, res.Reason)
	}
}

func TestProveP2CCIdentity(t *testing.T) {
	// f = identity under min (label propagation).
	f := func(x *expr.Expr) *expr.Expr { return x }
	lhs, rhs := p2Template("min", f)
	res := ProveEq(lhs, rhs, nil)
	if res.Verdict != Valid {
		t.Errorf("CC P2 should be valid: %v (%s)", res.Verdict, res.Reason)
	}
}

func TestProveP2Adsorption(t *testing.T) {
	// f = 0.7*a*w*p with w,p in [0,1] under sum.
	f := func(x *expr.Expr) *expr.Expr {
		return expr.Mul(expr.Mul(expr.Num(0.7), x), expr.Mul(expr.Var("w"), expr.Var("p")))
	}
	lhs, rhs := p2Template("sum", f)
	res := ProveEq(lhs, rhs, []Constraint{
		{Var: "w", Rel: Ge, Bound: 0}, {Var: "w", Rel: Le, Bound: 1},
		{Var: "p", Rel: Ge, Bound: 0}, {Var: "p", Rel: Le, Bound: 1},
	})
	if res.Verdict != Valid {
		t.Errorf("Adsorption P2 should be valid: %v (%s)", res.Verdict, res.Reason)
	}
}

func TestProveP2GCNReluFails(t *testing.T) {
	// f = relu(x*p)*w — the paper's own counterexample: Property 2 fails.
	f := func(x *expr.Expr) *expr.Expr {
		return expr.Mul(expr.Call("relu", expr.Mul(x, expr.Var("p"))), expr.Var("w"))
	}
	lhs, rhs := p2Template("sum", f)
	res := ProveEq(lhs, rhs, []Constraint{{Var: "w", Rel: Gt, Bound: 0}, {Var: "p", Rel: Gt, Bound: 0}})
	if res.Verdict != Invalid {
		t.Fatalf("GCN P2 should be refuted: %v (%s)", res.Verdict, res.Reason)
	}
	if l, r := lhs.Eval(res.Witness), rhs.Eval(res.Witness); l == r {
		t.Errorf("witness %v does not separate the sides (%v vs %v)", res.Witness, l, r)
	}
}

func TestProveP2TanhFails(t *testing.T) {
	// CommNet-style nonlinearity: f = tanh(x) under sum.
	f := func(x *expr.Expr) *expr.Expr { return expr.Call("tanh", x) }
	lhs, rhs := p2Template("sum", f)
	res := ProveEq(lhs, rhs, nil)
	if res.Verdict != Invalid {
		t.Fatalf("tanh P2 should be refuted: %v (%s)", res.Verdict, res.Reason)
	}
}

// TestRefuteNeedsARegion: a counterexample must lie in the query's
// region. A constant condition that does not hold, or bounds that no
// value of a variable the difference does not use meets, leave none, so
// the sampling half never calls such a query Invalid; GCN-Forward and
// CommNet, whose regions are not empty, it still refutes.
func TestRefuteNeedsARegion(t *testing.T) {
	three := expr.Num(3)
	gcnL, gcnR := p2Template("sum", func(x *expr.Expr) *expr.Expr {
		return expr.Mul(expr.Call("relu", expr.Mul(x, expr.Var("p"))), expr.Var("w"))
	})
	tanhL, tanhR := p2Template("sum", func(x *expr.Expr) *expr.Expr { return expr.Call("tanh", x) })
	for _, tc := range []struct {
		name     string
		lhs, rhs *expr.Expr
		below    []*expr.Expr // the region: each of these < 0
		cons     []Constraint
		invalid  bool
	}{
		{"relu(3) = (3 + abs(3)) / 2 on 3 < 0", expr.Call("relu", three),
			expr.Div(expr.Add(three, expr.Call("abs", three)), expr.Num(2)), []*expr.Expr{three}, nil, false},
		{"y = y + 1 under x > 1, x < 0", expr.Var("y"), expr.Add(expr.Var("y"), expr.Num(1)), nil,
			[]Constraint{{Var: "x", Rel: Gt, Bound: 1}, {Var: "x", Rel: Lt, Bound: 0}}, false},
		{"GCN-Forward", gcnL, gcnR, nil, []Constraint{{Var: "w", Rel: Gt, Bound: 0}, {Var: "p", Rel: Gt, Bound: 0}}, true},
		{"CommNet", tanhL, tanhR, nil, nil, true},
	} {
		if got := Refute(tc.lhs, tc.rhs, tc.below, tc.cons); (got == Invalid) != tc.invalid {
			t.Errorf("%s: %v, want invalid %v", tc.name, got, tc.invalid)
		}
	}
}

func TestProveP2MinNegativeCoefficientFails(t *testing.T) {
	// f = -x is decreasing: min does not distribute; must be refuted.
	f := func(x *expr.Expr) *expr.Expr { return expr.Neg(x) }
	lhs, rhs := p2Template("min", f)
	res := ProveEq(lhs, rhs, nil)
	if res.Verdict != Invalid {
		t.Fatalf("min with f=-x should be refuted: %v (%s)", res.Verdict, res.Reason)
	}
}

func TestProveP2SumAffineConstantFails(t *testing.T) {
	// f = x + 5 under sum: f(a+b) != f(a)+f(b); Property 2 fails, which is
	// why the checker must split F into F' and the constant part C first.
	f := func(x *expr.Expr) *expr.Expr { return expr.Add(x, expr.Num(5)) }
	lhs, rhs := p2Template("sum", f)
	res := ProveEq(lhs, rhs, nil)
	if res.Verdict != Invalid {
		t.Fatalf("sum with f=x+5 should be refuted: %v (%s)", res.Verdict, res.Reason)
	}
}

func TestProveP2ViterbiMax(t *testing.T) {
	// f = p*x with 0 <= p <= 1 under max (Viterbi).
	f := func(x *expr.Expr) *expr.Expr { return expr.Mul(expr.Var("p"), x) }
	lhs, rhs := p2Template("max", f)
	res := ProveEq(lhs, rhs, []Constraint{{Var: "p", Rel: Ge, Bound: 0}, {Var: "p", Rel: Le, Bound: 1}})
	// This needs nonlinear regional reasoning (p*x1 <= p*x2 given x1<=x2,
	// p>=0); the generic engine may return Unknown but must never claim
	// Invalid. (The checker proves this case via the monotone-distribution
	// lemma on top of SignOf.)
	if res.Verdict == Invalid {
		t.Fatalf("Viterbi P2 wrongly refuted with witness %v (%s)", res.Witness, res.Reason)
	}
}

func TestProveEqTrivial(t *testing.T) {
	x := expr.Var("x")
	if res := ProveEq(x, x, nil); res.Verdict != Valid {
		t.Errorf("x == x: %v", res.Verdict)
	}
	if res := ProveEq(x, expr.Add(x, expr.Num(1)), nil); res.Verdict != Invalid {
		t.Errorf("x == x+1 should be refuted: %v", res.Verdict)
	}
	// Constant equality without variables.
	if res := ProveEq(expr.Num(2), expr.Num(2), nil); res.Verdict != Valid {
		t.Errorf("2 == 2: %v (%s)", res.Verdict, res.Reason)
	}
	if res := ProveEq(expr.Num(2), expr.Num(3), nil); res.Verdict != Invalid {
		t.Errorf("2 == 3 should be refuted: %v", res.Verdict)
	}
}

func TestProveEqRespectsConstraints(t *testing.T) {
	// abs(x) == x is false in general but valid for x >= 0.
	x := expr.Var("x")
	if res := ProveEq(expr.Call("abs", x), x, nil); res.Verdict != Invalid {
		t.Errorf("abs(x)==x unconstrained should be refuted: %v", res.Verdict)
	}
	res := ProveEq(expr.Call("abs", x), x, []Constraint{{Var: "x", Rel: Ge, Bound: 0}})
	if res.Verdict != Valid {
		t.Errorf("abs(x)==x for x>=0 should be valid: %v (%s)", res.Verdict, res.Reason)
	}
}

func TestProveMinMaxDuality(t *testing.T) {
	// min(a,b) == -max(-a,-b): needs nested splits on both sides.
	a, b := expr.Var("a"), expr.Var("b")
	lhs := expr.Call("min", a, b)
	rhs := expr.Neg(expr.Call("max", expr.Neg(a), expr.Neg(b)))
	res := ProveEq(lhs, rhs, nil)
	if res.Verdict != Valid {
		t.Errorf("min/max duality: %v (%s)", res.Verdict, res.Reason)
	}
}

func TestReplaceNodeSharing(t *testing.T) {
	shared := expr.Call("relu", expr.Var("x"))
	e := expr.Add(shared, expr.Mul(shared, expr.Var("y")))
	out := replaceNode(e, shared, expr.Num(1))
	if got := out.Eval(expr.Env{"y": 3}); got != 4 {
		t.Errorf("both shared occurrences should be replaced: got %v", got)
	}
	// Untouched tree is returned as-is when target absent.
	other := expr.Var("z")
	if replaceNode(e, other, expr.Num(0)) != e {
		t.Error("replace of absent node should share the tree")
	}
}

func TestFindInnermostPiecewise(t *testing.T) {
	inner := expr.Call("relu", expr.Var("x"))
	outer := expr.Call("min", inner, expr.Var("y"))
	if got := findInnermostPiecewise(outer); got != inner {
		t.Errorf("innermost = %v", got)
	}
	if findInnermostPiecewise(expr.Add(expr.Var("x"), expr.Num(1))) != nil {
		t.Error("no piecewise call expected")
	}
}
