package expr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

func TestEvalBasics(t *testing.T) {
	env := Env{"x": 3, "y": 4}
	cases := []struct {
		e    *Expr
		want float64
	}{
		{Num(2.5), 2.5},
		{Var("x"), 3},
		{Add(Var("x"), Var("y")), 7},
		{Sub(Var("x"), Var("y")), -1},
		{Mul(Var("x"), Var("y")), 12},
		{Div(Var("y"), Num(2)), 2},
		{Neg(Var("x")), -3},
		{Add(Mul(Num(0.85), Var("x")), Num(0.15)), 2.7},
		{Call("relu", Neg(Var("x"))), 0},
		{Call("relu", Var("x")), 3},
		{Call("abs", Neg(Var("y"))), 4},
		{Call("min", Var("x"), Var("y")), 3},
		{Call("max", Var("x"), Var("y")), 4},
	}
	for _, c := range cases {
		if got := c.e.Eval(env); !almostEq(got, c.want) {
			t.Errorf("Eval(%s) = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestEvalMissingVarIsZero(t *testing.T) {
	if got := Add(Var("unbound"), Num(1)).Eval(Env{}); got != 1 {
		t.Fatalf("got %v, want 1", got)
	}
}

func TestCheck(t *testing.T) {
	if err := Call("relu", Var("x")).Check(); err != nil {
		t.Errorf("relu/1 should pass: %v", err)
	}
	if err := Call("relu", Var("x"), Var("y")).Check(); err == nil {
		t.Error("relu/2 should fail arity check")
	}
	if err := Call("nosuch", Var("x")).Check(); err == nil {
		t.Error("unknown builtin should fail")
	}
	if err := Add(Var("a"), Call("bogus", Num(1))).Check(); err == nil {
		t.Error("nested unknown builtin should fail")
	}
}

func TestVars(t *testing.T) {
	e := Add(Mul(Var("b"), Var("a")), Call("relu", Var("c")))
	got := e.Vars()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
	if !e.HasVar("a") || e.HasVar("z") {
		t.Error("HasVar wrong")
	}
}

func TestSubst(t *testing.T) {
	e := Add(Var("x"), Mul(Var("x"), Var("y")))
	s := e.Subst("x", Num(2))
	if got := s.Eval(Env{"y": 5}); got != 12 {
		t.Fatalf("after subst got %v, want 12", got)
	}
	// Original untouched.
	if got := e.Eval(Env{"x": 1, "y": 5}); got != 6 {
		t.Fatalf("original mutated: %v", got)
	}
	// Substituting an absent variable returns the same tree.
	if e.Subst("zz", Num(9)) != e {
		t.Error("subst of absent var should share the tree")
	}
}

func TestCompileMatchesEval(t *testing.T) {
	slots := map[string]int{"x": 0, "y": 1, "w": 2}
	exprs := []*Expr{
		Add(Mul(Num(0.85), Var("x")), Num(0.15)),
		Div(Mul(Var("x"), Var("w")), Add(Var("y"), Num(1))),
		Call("relu", Sub(Var("x"), Var("y"))),
		Neg(Call("tanh", Var("x"))),
		Mul(Mul(Num(0.7), Var("x")), Mul(Var("w"), Var("y"))),
	}
	rng := rand.New(rand.NewSource(7))
	for _, e := range exprs {
		fn, err := e.Compile(slots)
		if err != nil {
			t.Fatalf("Compile(%s): %v", e, err)
		}
		for i := 0; i < 100; i++ {
			x, y, w := rng.NormFloat64()*10, rng.NormFloat64()*10, rng.Float64()
			want := e.Eval(Env{"x": x, "y": y, "w": w})
			got := fn([]float64{x, y, w})
			if !almostEq(got, want) {
				t.Fatalf("compiled %s(%v,%v,%v) = %v, want %v", e, x, y, w, got, want)
			}
		}
	}
}

func TestCompileMissingSlot(t *testing.T) {
	if _, err := Var("q").Compile(map[string]int{}); err == nil {
		t.Fatal("expected error for unslotted variable")
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		e    *Expr
		want string
	}{
		{Add(Var("a"), Mul(Var("b"), Var("c"))), "a + b * c"},
		{Mul(Add(Var("a"), Var("b")), Var("c")), "(a + b) * c"},
		{Sub(Var("a"), Sub(Var("b"), Var("c"))), "a - (b - c)"},
		{Div(Mul(Num(0.85), Var("rx")), Var("d")), "0.85 * rx / d"},
		{Call("relu", Add(Var("g"), Num(1))), "relu(g + 1)"},
		{Neg(Add(Var("a"), Var("b"))), "-(a + b)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

// randExpr builds a random expression over vars x,y with bounded depth,
// avoiding division (to dodge div-by-zero noise in equivalence checks).
func randExpr(rng *rand.Rand, depth int) *Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0:
			return Num(float64(rng.Intn(9)) - 4)
		case 1:
			return Var("x")
		default:
			return Var("y")
		}
	}
	switch rng.Intn(5) {
	case 0:
		return Add(randExpr(rng, depth-1), randExpr(rng, depth-1))
	case 1:
		return Sub(randExpr(rng, depth-1), randExpr(rng, depth-1))
	case 2:
		return Mul(randExpr(rng, depth-1), randExpr(rng, depth-1))
	case 3:
		return Neg(randExpr(rng, depth-1))
	default:
		return Call("relu", randExpr(rng, depth-1))
	}
}

func TestQuickCloneEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(x, y float64, seed int64) bool {
		e := randExpr(rand.New(rand.NewSource(seed)), 4)
		_ = rng
		env := Env{"x": x, "y": y}
		return almostEq(e.Eval(env), e.Clone().Eval(env))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickCompileEquivalent(t *testing.T) {
	slots := map[string]int{"x": 0, "y": 1}
	f := func(x, y float64, seed int64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return true
		}
		// Bound magnitudes so products stay finite.
		x = math.Mod(x, 1e3)
		y = math.Mod(y, 1e3)
		e := randExpr(rand.New(rand.NewSource(seed)), 4)
		fn, err := e.Compile(slots)
		if err != nil {
			return false
		}
		return almostEq(e.Eval(Env{"x": x, "y": y}), fn([]float64{x, y}))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickAffineDecomposition(t *testing.T) {
	// For random affine-shaped expressions, AffineIn must reconstruct the
	// original value: e(x) == a*x + b.
	f := func(x, c1, c2 float64, seed int64) bool {
		for _, v := range []float64{x, c1, c2} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		x, c1, c2 = math.Mod(x, 100), math.Mod(c1, 100), math.Mod(c2, 100)
		rng := rand.New(rand.NewSource(seed))
		// Build: c1*x + c2, possibly nested with sub/neg/add of constants.
		e := Add(Mul(Num(c1), Var("x")), Num(c2))
		if rng.Intn(2) == 0 {
			e = Sub(e, Mul(Var("x"), Num(0.5)))
		}
		if rng.Intn(2) == 0 {
			e = Neg(e)
		}
		a, b, ok := AffineIn(e, "x")
		if !ok {
			return false
		}
		env := Env{"x": x}
		return almostEq(e.Eval(env), a.Eval(env)*x+b.Eval(env))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAffineIn(t *testing.T) {
	// 0.85*x/d : affine in x with a=0.85/d, b=0.
	e := Div(Mul(Num(0.85), Var("x")), Var("d"))
	a, b, ok := AffineIn(e, "x")
	if !ok {
		t.Fatal("expected affine")
	}
	env := Env{"d": 4}
	if got := a.Eval(env); !almostEq(got, 0.2125) {
		t.Errorf("a = %v", got)
	}
	if got := b.Eval(env); got != 0 {
		t.Errorf("b = %v", got)
	}

	// relu(x)*w is not affine in x.
	if _, _, ok := AffineIn(Mul(Call("relu", Var("x")), Var("w")), "x"); ok {
		t.Error("relu(x)*w should not be affine in x")
	}
	// x*x is not affine in x.
	if _, _, ok := AffineIn(Mul(Var("x"), Var("x")), "x"); ok {
		t.Error("x*x should not be affine")
	}
	// a/x is not affine in x.
	if _, _, ok := AffineIn(Div(Var("a"), Var("x")), "x"); ok {
		t.Error("a/x should not be affine")
	}
	// Expression without x: a=0, b=e.
	a, b, ok = AffineIn(Mul(Var("w"), Num(3)), "x")
	if !ok {
		t.Fatal("const-in-x must be affine")
	}
	if c := a.Eval(nil); c != 0 {
		t.Error("coefficient should be 0")
	}
	if got := b.Eval(Env{"w": 2}); got != 6 {
		t.Errorf("b = %v", got)
	}
}

// TestCompiledBuiltinsAllocFree: a compiled call must not allocate — a
// client's F' may use any builtin, and it then runs once per edge on the
// engine's zero-allocation path. Every entry of Builtins is pinned, so a
// new builtin cannot bring the argument slice back.
func TestCompiledBuiltinsAllocFree(t *testing.T) {
	slots := map[string]int{"x": 0, "y": 1}
	vals := []float64{0.25, 0.5}
	for name, b := range Builtins {
		args := []*Expr{Var("x"), Var("y")}[:b.Arity]
		fn, err := Call(name, args...).Compile(slots)
		if err != nil {
			t.Fatalf("Compile(%s): %v", name, err)
		}
		if got, want := fn(vals), Call(name, args...).Eval(Env{"x": 0.25, "y": 0.5}); got != want {
			t.Errorf("compiled %s = %v, Eval = %v", name, got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { sinkF = fn(vals) }); allocs != 0 {
			t.Errorf("compiled %s allocates %v/eval, want 0", name, allocs)
		}
	}
}

var sinkF float64

// TestHoist: the residual over the hoisted values computes bitwise what
// the expression computes, maximal invariant subtrees are cut whole, and
// leaves stay in place.
func TestHoist(t *testing.T) {
	varies := func(name string) bool { return name == "w" }
	for _, tc := range []struct {
		e        *Expr
		residual string
		hoisted  []string
	}{
		{Div(Mul(Num(0.85), Var("x")), Var("d")), "ǂh0", []string{"0.85 * x / d"}},
		{Add(Var("x"), Var("w")), "x + w", nil},
		{Mul(Mul(Num(0.8), Var("x")), Var("w")), "ǂh0 * w", []string{"0.8 * x"}},
		{Mul(Mul(Mul(Num(0.8), Var("w")), Var("x")), Var("d")), "0.8 * w * x * d", nil},
		{Call("min", Add(Var("x"), Num(1)), Mul(Var("w"), Neg(Var("d")))), "min(ǂh0, w * ǂh1)", []string{"x + 1", "-d"}},
		{Var("x"), "x", nil},
	} {
		res, hoisted := tc.e.Hoist(varies)
		if res.String() != tc.residual {
			t.Errorf("Hoist(%s) residual = %s, want %s", tc.e, res, tc.residual)
		}
		if len(hoisted) != len(tc.hoisted) {
			t.Fatalf("Hoist(%s) cut %d subtrees, want %d", tc.e, len(hoisted), len(tc.hoisted))
		}
		env := Env{"x": 0.1, "d": 3, "w": 0.7}
		want := tc.e.Eval(env)
		for i, h := range hoisted {
			if h.String() != tc.hoisted[i] {
				t.Errorf("Hoist(%s) hoisted[%d] = %s, want %s", tc.e, i, h, tc.hoisted[i])
			}
			env[HoistVar(i)] = h.Eval(env)
		}
		if got := res.Eval(env); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Hoist(%s): residual evaluates to %v, expression to %v", tc.e, got, want)
		}
	}
}
