package smt

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"powerlog/internal/expr"
)

func ratEq(a, b *big.Rat) bool { return a.Cmp(b) == 0 }

func TestPolyBasics(t *testing.T) {
	x, y := PolyVar("x"), PolyVar("y")
	two := PolyConst(big.NewRat(2, 1))

	sum := x.Add(y).Add(two)
	if sum.IsZero() {
		t.Error("x+y+2 is zero")
	}
	if got := sum.Eval(map[string]float64{"x": 3, "y": 4}); got != 9 {
		t.Errorf("eval = %v", got)
	}

	diff := sum.Sub(sum)
	if !diff.IsZero() {
		t.Errorf("p-p should be zero, got %v", diff)
	}

	prod := x.Add(y).Mul(x.Add(y)) // (x+y)^2 = x^2 + 2xy + y^2
	if got := prod.Eval(map[string]float64{"x": 2, "y": 3}); got != 25 {
		t.Errorf("(2+3)^2 = %v", got)
	}
	want := x.Mul(x).Add(x.Mul(y).Mul(PolyConst(big.NewRat(2, 1)))).Add(y.Mul(y))
	if !prod.Sub(want).IsZero() {
		t.Errorf("expansion mismatch: %v vs %v", prod, want)
	}
}

func TestPolyConstAndVars(t *testing.T) {
	if c, ok := PolyConst(big.NewRat(3, 2)).IsConst(); !ok || !ratEq(c, big.NewRat(3, 2)) {
		t.Error("const detection failed")
	}
	if _, ok := PolyVar("x").IsConst(); ok {
		t.Error("x is not a constant")
	}
	if c, ok := (Poly{}).IsConst(); !ok || c.Sign() != 0 {
		t.Error("zero poly is the constant 0")
	}
	p := PolyVar("b").Mul(PolyVar("a")).Add(PolyVar("c"))
	vars := p.Vars()
	if len(vars) != 3 || vars[0] != "a" || vars[1] != "b" || vars[2] != "c" {
		t.Errorf("vars = %v", vars)
	}
}

func TestMonoEncoding(t *testing.T) {
	m := monomial{"x": 2, "y": 1}
	enc := encodeMono(m)
	if enc != "x^2 y^1" {
		t.Errorf("enc = %q", enc)
	}
	dec := decodeMono(enc)
	if dec["x"] != 2 || dec["y"] != 1 {
		t.Errorf("dec = %v", dec)
	}
	if got := mulMono(enc, "y^2 z^1"); got != "x^2 y^3 z^1" {
		t.Errorf("mul = %q", got)
	}
	if mulMono("", "x^1") != "x^1" || mulMono("x^1", "") != "x^1" {
		t.Error("identity monomial mul broken")
	}
}

func TestFromExprPolynomial(t *testing.T) {
	// (0.85*x/d) normalises with numerator 0.85x (times d-denominators).
	e := expr.Div(expr.Mul(expr.Num(0.85), expr.Var("x")), expr.Var("d"))
	rf, err := FromExpr(e)
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]float64{"x": 4, "d": 2}
	got := rf.Num.Eval(env) / rf.Den.Eval(env)
	if got != 1.7 {
		t.Errorf("eval = %v", got)
	}
}

func TestFromExprDistributes(t *testing.T) {
	// f(x+y) == f(x)+f(y) for linear f = c*x: exact proof via normalisation.
	f := func(arg *expr.Expr) *expr.Expr { return expr.Mul(expr.Num(0.85), arg) }
	lhs := f(expr.Add(expr.Var("x"), expr.Var("y")))
	rhs := expr.Add(f(expr.Var("x")), f(expr.Var("y")))
	rf, err := FromExpr(expr.Sub(lhs, rhs))
	if err != nil {
		t.Fatal(err)
	}
	if !rf.EqualZero() {
		t.Errorf("difference = %v / %v", rf.Num, rf.Den)
	}
}

func TestFromExprRejectsCalls(t *testing.T) {
	_, err := FromExpr(expr.Call("relu", expr.Var("x")))
	if err == nil {
		t.Fatal("relu should not normalise")
	}
	var npe *ErrNonPolynomial
	if !errors.As(err, &npe) {
		t.Errorf("want ErrNonPolynomial, got %T", err)
	}
}

func TestFromExprDivByZeroPoly(t *testing.T) {
	zero := expr.Sub(expr.Var("x"), expr.Var("x"))
	if _, err := FromExpr(expr.Div(expr.Num(1), zero)); err == nil {
		t.Fatal("division by zero polynomial should fail")
	}
}

func TestRatFuncCrossEquality(t *testing.T) {
	// x/d - (2x)/(2d) == 0.
	a := expr.Div(expr.Var("x"), expr.Var("d"))
	b := expr.Div(expr.Mul(expr.Num(2), expr.Var("x")), expr.Mul(expr.Num(2), expr.Var("d")))
	rf, err := FromExpr(expr.Sub(a, b))
	if err != nil {
		t.Fatal(err)
	}
	if !rf.EqualZero() {
		t.Errorf("x/d != 2x/2d per normaliser: %v", rf.Num)
	}
}

// TestQuickPolyRingLaws checks ring laws on randomly built polynomials.
func TestQuickPolyRingLaws(t *testing.T) {
	gen := func(seed int64) Poly {
		rng := rand.New(rand.NewSource(seed))
		p := Poly{}
		vars := []string{"x", "y", "z"}
		for i := 0; i < 1+rng.Intn(4); i++ {
			m := monomial{}
			for j := 0; j < rng.Intn(3); j++ {
				m[vars[rng.Intn(3)]]++
			}
			p.addInto(encodeMono(m), big.NewRat(int64(rng.Intn(11)-5), int64(1+rng.Intn(4))))
		}
		return p
	}
	f := func(s1, s2, s3 int64) bool {
		a, b, c := gen(s1), gen(s2), gen(s3)
		// commutativity
		if !a.Add(b).Sub(b.Add(a)).IsZero() || !a.Mul(b).Sub(b.Mul(a)).IsZero() {
			return false
		}
		// associativity of mul
		if !a.Mul(b).Mul(c).Sub(a.Mul(b.Mul(c))).IsZero() {
			return false
		}
		// distributivity
		return a.Mul(b.Add(c)).Sub(a.Mul(b).Add(a.Mul(c))).IsZero()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickFromExprAgreesWithEval: normalisation preserves value.
func TestQuickFromExprAgreesWithEval(t *testing.T) {
	f := func(x, y int8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randPolyExpr(rng, 3)
		env := map[string]float64{"x": float64(x % 10), "y": float64(y % 10)}
		rf, err := FromExpr(e)
		if err != nil {
			return false
		}
		den := rf.Den.Eval(env)
		if den == 0 {
			return true // formal quotient undefined here; skip
		}
		want := e.Eval(env)
		got := rf.Num.Eval(env) / den
		if want == got {
			return true
		}
		diff := want - got
		if diff < 0 {
			diff = -diff
		}
		scale := 1.0
		if want > 1 || want < -1 {
			scale = want
			if scale < 0 {
				scale = -scale
			}
		}
		return diff < 1e-9*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func randPolyExpr(rng *rand.Rand, depth int) *expr.Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0:
			return expr.Num(float64(rng.Intn(7) - 3))
		case 1:
			return expr.Var("x")
		default:
			return expr.Var("y")
		}
	}
	a, b := randPolyExpr(rng, depth-1), randPolyExpr(rng, depth-1)
	switch rng.Intn(4) {
	case 0:
		return expr.Add(a, b)
	case 1:
		return expr.Sub(a, b)
	case 2:
		return expr.Mul(a, b)
	default:
		return expr.Neg(a)
	}
}
