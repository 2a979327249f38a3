// Package smt is PowerLog-Go's stand-in for the Z3 SMT solver used by the
// paper's automatic condition checker (§3.3, §5.1). It decides validity of
// equalities between arithmetic expressions over the reals:
//
//   - exact symbolic normalisation of division-closed polynomial
//     expressions to canonical rational functions (math/big.Rat
//     coefficients, so no float error in proofs),
//   - a branch-and-prove decision procedure for the piecewise-linear
//     builtins (min, max, relu, abs) that case-splits on branch
//     conditions and discharges each region either by normalisation or by
//     Fourier–Motzkin infeasibility,
//   - sign analysis of expressions under declared variable constraints
//     (used for the monotone-distribution lemma of selective aggregates),
//   - a systematic falsifier that searches for concrete counterexamples,
//     mirroring Z3's "sat + model" answer, run only on a query the exact
//     procedure cannot prove.
//
// The three verdicts correspond to Z3's answers for the paper's
// double-negated assertion: Valid = "unsat", Invalid = "sat" (with a
// witness model), Unknown = "unknown". Callers must treat Unknown
// conservatively, exactly as the paper does.
package smt

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"powerlog/internal/expr"
)

// Poly is a multivariate polynomial with exact rational coefficients,
// keyed by canonical monomial encoding (see encodeMono). The zero
// polynomial is the empty map.
type Poly map[string]*big.Rat

// monomial is a variable-name → power map; the constant monomial is empty.
type monomial map[string]int

func encodeMono(m monomial) string {
	if len(m) == 0 {
		return ""
	}
	names := make([]string, 0, len(m))
	for v, p := range m {
		if p != 0 {
			names = append(names, v)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for i, v := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s^%d", v, m[v])
	}
	return b.String()
}

func decodeMono(key string) monomial {
	m := monomial{}
	if key == "" {
		return m
	}
	for _, part := range strings.Split(key, " ") {
		i := strings.LastIndexByte(part, '^')
		var pow int
		fmt.Sscanf(part[i+1:], "%d", &pow)
		m[part[:i]] = pow
	}
	return m
}

func mulMono(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	m := decodeMono(a)
	for v, p := range decodeMono(b) {
		m[v] += p
	}
	return encodeMono(m)
}

// PolyConst returns the constant polynomial c.
func PolyConst(c *big.Rat) Poly {
	p := Poly{}
	if c.Sign() != 0 {
		p[""] = new(big.Rat).Set(c)
	}
	return p
}

// PolyVar returns the polynomial consisting of the single variable v.
func PolyVar(v string) Poly {
	return Poly{encodeMono(monomial{v: 1}): big.NewRat(1, 1)}
}

func (p Poly) clone() Poly {
	q := make(Poly, len(p))
	for k, c := range p {
		q[k] = new(big.Rat).Set(c)
	}
	return q
}

func (p Poly) addInto(k string, c *big.Rat) {
	if cur, ok := p[k]; ok {
		cur.Add(cur, c)
		if cur.Sign() == 0 {
			delete(p, k)
		}
	} else if c.Sign() != 0 {
		p[k] = new(big.Rat).Set(c)
	}
}

// Add returns p+q.
func (p Poly) Add(q Poly) Poly {
	r := p.clone()
	for k, c := range q {
		r.addInto(k, c)
	}
	return r
}

// Sub returns p-q.
func (p Poly) Sub(q Poly) Poly {
	r := p.clone()
	neg := new(big.Rat)
	for k, c := range q {
		neg.Neg(c)
		r.addInto(k, neg)
		neg = new(big.Rat)
	}
	return r
}

// Neg returns -p.
func (p Poly) Neg() Poly {
	r := make(Poly, len(p))
	for k, c := range p {
		r[k] = new(big.Rat).Neg(c)
	}
	return r
}

// Mul returns p*q.
func (p Poly) Mul(q Poly) Poly {
	r := Poly{}
	tmp := new(big.Rat)
	for ka, ca := range p {
		for kb, cb := range q {
			tmp.Mul(ca, cb)
			r.addInto(mulMono(ka, kb), tmp)
			tmp = new(big.Rat)
		}
	}
	return r
}

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return len(p) == 0 }

// IsConst reports whether p is constant, returning the constant.
func (p Poly) IsConst() (*big.Rat, bool) {
	switch len(p) {
	case 0:
		return big.NewRat(0, 1), true
	case 1:
		if c, ok := p[""]; ok {
			return c, true
		}
	}
	return nil, false
}

// Vars returns the sorted variables appearing in p.
func (p Poly) Vars() []string {
	set := map[string]bool{}
	for k := range p {
		for v := range decodeMono(k) {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Eval evaluates p at the given float64 point.
func (p Poly) Eval(env map[string]float64) float64 {
	total := 0.0
	for k, c := range p {
		term, _ := c.Float64()
		for v, pow := range decodeMono(k) {
			x := env[v]
			for i := 0; i < pow; i++ {
				term *= x
			}
		}
		total += term
	}
	return total
}

// String renders p with monomials in canonical order.
func (p Poly) String() string {
	if len(p) == 0 {
		return "0"
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteString(" + ")
		}
		if k == "" {
			b.WriteString(p[k].RatString())
		} else {
			fmt.Fprintf(&b, "%s·[%s]", p[k].RatString(), k)
		}
	}
	return b.String()
}

// RatFunc is a formal quotient Num/Den of polynomials. Den is never the
// zero polynomial. RatFuncs are not reduced to lowest terms; equality is
// decided by cross-multiplication.
type RatFunc struct {
	Num, Den Poly
}

// ErrNonPolynomial is returned by FromExpr when the expression contains a
// builtin call and therefore has no rational-function normal form.
type ErrNonPolynomial struct{ Fn string }

func (e *ErrNonPolynomial) Error() string {
	return fmt.Sprintf("smt: %q has no polynomial normal form", e.Fn)
}

// FromExpr normalises e to a rational function. Builtin calls make the
// expression non-polynomial and return *ErrNonPolynomial; division by an
// expression that normalises to the zero polynomial is rejected too.
func FromExpr(e *expr.Expr) (RatFunc, error) {
	one := PolyConst(big.NewRat(1, 1))
	switch e.Kind {
	case expr.KNum:
		c := new(big.Rat)
		if c.SetFloat64(e.Val) == nil {
			return RatFunc{}, fmt.Errorf("smt: non-finite literal %v", e.Val)
		}
		return RatFunc{PolyConst(c), one}, nil
	case expr.KVar:
		return RatFunc{PolyVar(e.Name), one}, nil
	case expr.KNeg:
		a, err := FromExpr(e.Args[0])
		if err != nil {
			return RatFunc{}, err
		}
		return RatFunc{a.Num.Neg(), a.Den}, nil
	case expr.KAdd, expr.KSub, expr.KMul, expr.KDiv:
		a, err := FromExpr(e.Args[0])
		if err != nil {
			return RatFunc{}, err
		}
		b, err := FromExpr(e.Args[1])
		if err != nil {
			return RatFunc{}, err
		}
		switch e.Kind {
		case expr.KAdd:
			return RatFunc{a.Num.Mul(b.Den).Add(b.Num.Mul(a.Den)), a.Den.Mul(b.Den)}, nil
		case expr.KSub:
			return RatFunc{a.Num.Mul(b.Den).Sub(b.Num.Mul(a.Den)), a.Den.Mul(b.Den)}, nil
		case expr.KMul:
			return RatFunc{a.Num.Mul(b.Num), a.Den.Mul(b.Den)}, nil
		default: // KDiv
			if b.Num.IsZero() {
				return RatFunc{}, fmt.Errorf("smt: division by zero polynomial")
			}
			return RatFunc{a.Num.Mul(b.Den), a.Den.Mul(b.Num)}, nil
		}
	case expr.KCall:
		return RatFunc{}, &ErrNonPolynomial{Fn: e.Name}
	default:
		return RatFunc{}, fmt.Errorf("smt: bad expr kind %d", e.Kind)
	}
}

// EqualZero reports whether the rational function is identically zero,
// i.e. its numerator is the zero polynomial.
func (r RatFunc) EqualZero() bool { return r.Num.IsZero() }
