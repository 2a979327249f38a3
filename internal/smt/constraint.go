package smt

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"powerlog/internal/expr"
)

// Rel is a constraint relation.
type Rel int

// Constraint relations. (Equality constraints are expressed as a Ge+Le
// pair by callers that need them.)
const (
	Ge Rel = iota // var >= bound
	Gt            // var >  bound
	Le            // var <= bound
	Lt            // var <  bound
)

// String renders the relation symbol.
func (r Rel) String() string {
	switch r {
	case Ge:
		return ">="
	case Gt:
		return ">"
	case Le:
		return "<="
	case Lt:
		return "<"
	}
	return "?"
}

// Constraint restricts a single variable's domain, mirroring the paper's
// Z3 preamble assertions such as "(assert (> d 0))" for the PageRank
// out-degree.
type Constraint struct {
	Var   string
	Rel   Rel
	Bound float64
}

// String renders the constraint.
func (c Constraint) String() string {
	return fmt.Sprintf("%s %s %v", c.Var, c.Rel, c.Bound)
}

// Satisfied reports whether v, a value of c.Var, meets the constraint.
func (c Constraint) Satisfied(v float64) bool {
	switch c.Rel {
	case Ge:
		return v >= c.Bound
	case Gt:
		return v > c.Bound
	case Le:
		return v <= c.Bound
	case Lt:
		return v < c.Bound
	}
	return false
}

// domain is the interval a sampler draws a variable from.
type domain struct {
	lo, hi         float64
	loOpen, hiOpen bool
}

// domainsOf returns the domain of each of vars, which are sorted, under
// cons.
func domainsOf(vars []string, cons []Constraint) []domain {
	d := make([]domain, len(vars))
	for i := range d {
		d[i] = domain{lo: math.Inf(-1), hi: math.Inf(1)}
	}
	for _, c := range cons {
		i, ok := slices.BinarySearch(vars, c.Var)
		if !ok {
			continue
		}
		dom := &d[i]
		switch c.Rel {
		case Ge:
			if c.Bound > dom.lo {
				dom.lo, dom.loOpen = c.Bound, false
			}
		case Gt:
			if c.Bound >= dom.lo {
				dom.lo, dom.loOpen = c.Bound, true
			}
		case Le:
			if c.Bound < dom.hi {
				dom.hi, dom.hiOpen = c.Bound, false
			}
		case Lt:
			if c.Bound <= dom.hi {
				dom.hi, dom.hiOpen = c.Bound, true
			}
		}
	}
	return d
}

// feasible reports whether every variable cons constrains has a value
// that meets all of its constraints; a NaN bound is met by none.
func feasible(cons []Constraint) bool {
	for _, c := range cons {
		d := domainsOf([]string{c.Var}, cons)[0]
		if c.Bound != c.Bound || d.lo > d.hi || d.lo == d.hi && (d.loOpen || d.hiOpen) {
			return false
		}
	}
	return true
}

// interestingPoints are the structured sample values the falsifier tries
// first; they cover signs, zero, fractions, and moderately large values.
var interestingPoints = []float64{0, 1, -1, 2, -2, 0.5, -0.5, 3, -3, 10, -10, 0.1, -0.1, 7, -7, 100, -100}

// sample draws a value from dom: structured points that fit, else uniform
// within the (clipped) interval.
func (dom domain) sample(rng *rand.Rand, structured int) float64 {
	if structured >= 0 && structured < len(interestingPoints) {
		p := interestingPoints[structured]
		if dom.contains(p) {
			return p
		}
	}
	lo, hi := dom.lo, dom.hi
	if math.IsInf(lo, -1) {
		lo = -50
	}
	if math.IsInf(hi, 1) {
		hi = 50
	}
	if lo > hi {
		lo = hi
	}
	v := lo + rng.Float64()*(hi-lo)
	if dom.loOpen && v <= dom.lo {
		v = math.Nextafter(dom.lo, math.Inf(1)) + 1e-6
	}
	if dom.hiOpen && v >= dom.hi {
		v = math.Nextafter(dom.hi, math.Inf(-1)) - 1e-6
	}
	return v
}

func (dom domain) contains(v float64) bool {
	if v < dom.lo || (dom.loOpen && v == dom.lo) {
		return false
	}
	if v > dom.hi || (dom.hiOpen && v == dom.hi) {
		return false
	}
	return true
}

// Sign is the result of static sign analysis.
type Sign int

// Sign lattice values.
const (
	SignUnknown Sign = iota
	SignZero
	SignNonNeg // >= 0
	SignPos    // > 0
	SignNonPos // <= 0
	SignNeg    // < 0
)

// String renders the sign.
func (s Sign) String() string {
	switch s {
	case SignZero:
		return "= 0"
	case SignNonNeg:
		return ">= 0"
	case SignPos:
		return "> 0"
	case SignNonPos:
		return "<= 0"
	case SignNeg:
		return "< 0"
	default:
		return "unknown"
	}
}

// NonNegative reports whether the sign guarantees >= 0.
func (s Sign) NonNegative() bool { return s == SignZero || s == SignNonNeg || s == SignPos }

// NonPositive reports whether the sign guarantees <= 0.
func (s Sign) NonPositive() bool { return s == SignZero || s == SignNonPos || s == SignNeg }

func signOfConst(v float64) Sign {
	switch {
	case v == 0:
		return SignZero
	case v > 0:
		return SignPos
	default:
		return SignNeg
	}
}

// SignOf statically bounds the sign of e under the variable constraints.
// It is sound but incomplete: SignUnknown means "could not determine",
// never "can be anything".
func SignOf(e *expr.Expr, cons []Constraint) Sign {
	switch e.Kind {
	case expr.KNum:
		return signOfConst(e.Val)
	case expr.KVar:
		return varSign(e.Name, cons)
	case expr.KNeg:
		return negSign(SignOf(e.Args[0], cons))
	case expr.KAdd:
		return addSign(SignOf(e.Args[0], cons), SignOf(e.Args[1], cons))
	case expr.KSub:
		return addSign(SignOf(e.Args[0], cons), negSign(SignOf(e.Args[1], cons)))
	case expr.KMul:
		return mulSign(SignOf(e.Args[0], cons), SignOf(e.Args[1], cons))
	case expr.KDiv:
		a, b := SignOf(e.Args[0], cons), SignOf(e.Args[1], cons)
		if b == SignZero {
			return SignUnknown
		}
		// Quotient sign follows product sign, except it can never be
		// proven zero-free by the denominator alone.
		return mulSign(a, b)
	case expr.KCall:
		switch e.Name {
		case "relu", "abs", "sqrt":
			return SignNonNeg
		case "exp", "sigmoid":
			return SignPos
		case "min":
			a, b := SignOf(e.Args[0], cons), SignOf(e.Args[1], cons)
			if a.NonNegative() && b.NonNegative() {
				return SignNonNeg
			}
			if a.NonPositive() || b.NonPositive() {
				return SignNonPos
			}
		case "max":
			a, b := SignOf(e.Args[0], cons), SignOf(e.Args[1], cons)
			if a.NonNegative() || b.NonNegative() {
				return SignNonNeg
			}
			if a.NonPositive() && b.NonPositive() {
				return SignNonPos
			}
		case "tanh":
			return SignOf(e.Args[0], cons) // tanh preserves sign
		}
		return SignUnknown
	}
	return SignUnknown
}

func varSign(name string, cons []Constraint) Sign {
	s := SignUnknown
	for _, c := range cons {
		if c.Var != name {
			continue
		}
		var this Sign
		switch {
		case c.Rel == Gt && c.Bound >= 0:
			this = SignPos
		case c.Rel == Ge && c.Bound > 0:
			this = SignPos
		case c.Rel == Ge && c.Bound == 0:
			this = SignNonNeg
		case c.Rel == Lt && c.Bound <= 0:
			this = SignNeg
		case c.Rel == Le && c.Bound < 0:
			this = SignNeg
		case c.Rel == Le && c.Bound == 0:
			this = SignNonPos
		default:
			continue
		}
		s = meetSign(s, this)
	}
	return s
}

// meetSign combines two sound facts about the same value.
func meetSign(a, b Sign) Sign {
	if a == SignUnknown {
		return b
	}
	if b == SignUnknown {
		return a
	}
	if a == b {
		return a
	}
	switch {
	case (a == SignNonNeg && b == SignPos) || (a == SignPos && b == SignNonNeg):
		return SignPos
	case (a == SignNonPos && b == SignNeg) || (a == SignNeg && b == SignNonPos):
		return SignNeg
	case (a.NonNegative() && b.NonPositive()) || (a.NonPositive() && b.NonNegative()):
		return SignZero
	}
	return a
}

func negSign(s Sign) Sign {
	switch s {
	case SignPos:
		return SignNeg
	case SignNeg:
		return SignPos
	case SignNonNeg:
		return SignNonPos
	case SignNonPos:
		return SignNonNeg
	default:
		return s
	}
}

func addSign(a, b Sign) Sign {
	switch {
	case a == SignZero:
		return b
	case b == SignZero:
		return a
	case a == SignPos && b.NonNegative(), b == SignPos && a.NonNegative():
		return SignPos
	case a.NonNegative() && b.NonNegative():
		return SignNonNeg
	case a == SignNeg && b.NonPositive(), b == SignNeg && a.NonPositive():
		return SignNeg
	case a.NonPositive() && b.NonPositive():
		return SignNonPos
	default:
		return SignUnknown
	}
}

func mulSign(a, b Sign) Sign {
	if a == SignZero || b == SignZero {
		return SignZero
	}
	if a == SignUnknown || b == SignUnknown {
		return SignUnknown
	}
	pos := func(s Sign) bool { return s == SignPos }
	nonneg := a.NonNegative()
	bnonneg := b.NonNegative()
	switch {
	case pos(a) && pos(b):
		return SignPos
	case nonneg && bnonneg:
		return SignNonNeg
	case a == SignNeg && b == SignNeg:
		return SignPos
	case a.NonPositive() && b.NonPositive():
		return SignNonNeg
	case (pos(a) && b == SignNeg) || (a == SignNeg && pos(b)):
		return SignNeg
	default:
		return SignNonPos
	}
}
