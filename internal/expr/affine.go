package expr

// AffineIn decomposes e as a*x + b where x is the named variable and
// neither a nor b mentions x. It returns (a, b, true) on success. The
// decomposition is purely structural plus linear-arithmetic rules; builtins
// applied to subtrees containing x defeat it (ok=false), which is exactly
// the conservative behaviour the MRA checker wants: nonlinear use of the
// recursive variable must be proved or refuted by the smt package instead.
func AffineIn(e *Expr, x string) (a, b *Expr, ok bool) {
	if !e.HasVar(x) {
		return Num(0), e, true
	}
	switch e.Kind {
	case KVar: // e == x
		return Num(1), Num(0), true
	case KNeg:
		a1, b1, ok := AffineIn(e.Args[0], x)
		if !ok {
			return nil, nil, false
		}
		return Neg(a1), Neg(b1), true
	case KAdd:
		a1, b1, ok1 := AffineIn(e.Args[0], x)
		a2, b2, ok2 := AffineIn(e.Args[1], x)
		if !ok1 || !ok2 {
			return nil, nil, false
		}
		return Add(a1, a2), Add(b1, b2), true
	case KSub:
		a1, b1, ok1 := AffineIn(e.Args[0], x)
		a2, b2, ok2 := AffineIn(e.Args[1], x)
		if !ok1 || !ok2 {
			return nil, nil, false
		}
		return Sub(a1, a2), Sub(b1, b2), true
	case KMul:
		l, r := e.Args[0], e.Args[1]
		switch {
		case !l.HasVar(x):
			a2, b2, ok := AffineIn(r, x)
			if !ok {
				return nil, nil, false
			}
			return Mul(l, a2), Mul(l, b2), true
		case !r.HasVar(x):
			a1, b1, ok := AffineIn(l, x)
			if !ok {
				return nil, nil, false
			}
			return Mul(a1, r), Mul(b1, r), true
		default: // x*x or similar: not affine
			return nil, nil, false
		}
	case KDiv:
		l, r := e.Args[0], e.Args[1]
		if r.HasVar(x) {
			return nil, nil, false
		}
		a1, b1, ok := AffineIn(l, x)
		if !ok {
			return nil, nil, false
		}
		return Div(a1, r), Div(b1, r), true
	default: // KCall containing x, KNum handled by !HasVar above
		return nil, nil, false
	}
}

// Simplify applies local algebraic rewrites bottom-up: constant folding,
// additive/multiplicative identities, and annihilation by zero. It is a
// cleanup pass, not a decision procedure — the smt package owns full
// canonicalisation.
func Simplify(e *Expr) *Expr {
	if len(e.Args) == 0 {
		return e
	}
	args := make([]*Expr, len(e.Args))
	allNum := true
	for i, a := range e.Args {
		args[i] = Simplify(a)
		if args[i].Kind != KNum {
			allNum = false
		}
	}
	s := &Expr{Kind: e.Kind, Val: e.Val, Name: e.Name, Args: args}
	if allNum && !(e.Kind == KDiv && args[1].Val == 0) {
		if e.Kind != KCall || func() bool { _, ok := Builtins[e.Name]; return ok }() {
			return Num(s.Eval(nil))
		}
	}
	isZero := func(x *Expr) bool { return x.Kind == KNum && x.Val == 0 }
	isOne := func(x *Expr) bool { return x.Kind == KNum && x.Val == 1 }
	switch e.Kind {
	case KAdd:
		if isZero(args[0]) {
			return args[1]
		}
		if isZero(args[1]) {
			return args[0]
		}
	case KSub:
		if isZero(args[1]) {
			return args[0]
		}
		if isZero(args[0]) {
			return Simplify(Neg(args[1]))
		}
	case KMul:
		if isZero(args[0]) || isZero(args[1]) {
			return Num(0)
		}
		if isOne(args[0]) {
			return args[1]
		}
		if isOne(args[1]) {
			return args[0]
		}
	case KDiv:
		if isZero(args[0]) && !isZero(args[1]) {
			return Num(0)
		}
		if isOne(args[1]) {
			return args[0]
		}
	case KNeg:
		if args[0].Kind == KNum {
			return Num(-args[0].Val)
		}
		if args[0].Kind == KNeg {
			return args[0].Args[0]
		}
	default:
		// KNum, KVar, KCall: leaves (or opaque calls) have no algebraic
		// rewrite; fall through to the rebuilt node.
	}
	return s
}
