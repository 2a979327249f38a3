// Package checker implements the paper's automatic MRA condition checker
// (§3.3, §5.1): given an analysed recursive aggregate program it verifies
//
//	Property 1:  G(X∪Y) = G(Y∪X) and G(X∪Y) = G(G(X)∪Y)
//	             (the aggregate is commutative and associative), and
//	Property 2:  G∘F'∘G(X) = G∘F'(X),
//
// using the internal/smt solver in place of Z3. A program satisfying both
// may be executed with incremental (MRA) and asynchronous evaluation;
// otherwise PowerLog falls back to naive synchronous evaluation.
package checker

import (
	"fmt"
	"strings"

	"powerlog/internal/agg"
	"powerlog/internal/analyzer"
	"powerlog/internal/expr"
	"powerlog/internal/parser"
	"powerlog/internal/smt"
)

// Report is the outcome of checking one program, one row of Table 1.
type Report struct {
	Name      string   // head predicate (or caller-supplied program name)
	Agg       agg.Kind // the aggregate G
	Satisfied bool     // both properties verified

	P1 smt.Result // commutativity + associativity of G
	P2 smt.Result // G∘F'∘G = G∘F'

	FPrime  string // rendered F'
	CParts  []string
	Inverse string // the G⁻ used to derive ΔX¹ (paper §3.3)
	Notes   []string
}

// String renders the report as a human-readable block.
func (r *Report) String() string {
	var b strings.Builder
	status := "MRA satisfied"
	if !r.Satisfied {
		status = "MRA NOT satisfied"
	}
	fmt.Fprintf(&b, "%s: %s (aggregate %s)\n", r.Name, status, r.Agg)
	fmt.Fprintf(&b, "  P1 (comm+assoc): %v — %s\n", r.P1.Verdict, r.P1.Reason)
	fmt.Fprintf(&b, "  P2 (G∘F'∘G=G∘F'): %v — %s\n", r.P2.Verdict, r.P2.Reason)
	fmt.Fprintf(&b, "  F' = %s\n", r.FPrime)
	for _, c := range r.CParts {
		fmt.Fprintf(&b, "  C  = %s\n", c)
	}
	if r.Inverse != "" {
		fmt.Fprintf(&b, "  G⁻ = %s\n", r.Inverse)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// CheckSource parses, analyses, and checks a Datalog program.
func CheckSource(src string) (*Report, *analyzer.Info, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	info, err := analyzer.Analyze(prog)
	if err != nil {
		return nil, nil, err
	}
	return Check(info), info, nil
}

// Check verifies the MRA conditions of Theorem 1 for an analysed program.
func Check(info *analyzer.Info) *Report {
	r := &Report{
		Name:   info.HeadName,
		Agg:    info.Agg,
		FPrime: info.Rec.FPrime.String(),
	}
	if info.Rec.CRec != nil {
		r.CParts = append(r.CParts, info.Rec.CRec.String()+" (split from the recursive body)")
	}
	for _, cb := range info.ConstBodies {
		r.CParts = append(r.CParts, cb.Expr.String())
	}
	r.Inverse = inverseName(info.Agg)

	r.P1 = checkProperty1(info.Agg)
	if r.P1.Verdict != smt.Valid {
		r.P2 = smt.Result{Verdict: smt.Unknown, Reason: "skipped: Property 1 failed"}
		return r
	}
	r.P2 = checkProperty2(info)
	r.Satisfied = r.P1.Verdict == smt.Valid && r.P2.Verdict == smt.Valid
	if !r.Satisfied {
		r.Notes = append(r.Notes, "program will run with naive evaluation on the sync engine")
	}
	return r
}

// aggAsBinary renders the aggregate as a binary expression, the encoding
// of §5.1: "we use the binary aggregate operators in Z3 code" since
// associativity lets g take any number of inputs as a fold.
func aggAsBinary(k agg.Kind, a, b *expr.Expr) *expr.Expr {
	switch k {
	case agg.Sum, agg.Count:
		return expr.Add(a, b)
	case agg.Min:
		return expr.Call("min", a, b)
	case agg.Max:
		return expr.Call("max", a, b)
	case agg.Mean:
		return expr.Div(expr.Add(a, b), expr.Num(2))
	default:
		panic("checker: unsupported aggregate")
	}
}

// checkProperty1 verifies commutativity and associativity of G.
func checkProperty1(k agg.Kind) smt.Result {
	a, b, c := expr.Var("a"), expr.Var("b"), expr.Var("c")
	comm := smt.ProveEq(aggAsBinary(k, a, b), aggAsBinary(k, b, a), nil)
	if comm.Verdict != smt.Valid {
		comm.Reason = "commutativity: " + comm.Reason
		return comm
	}
	assoc := smt.ProveEq(
		aggAsBinary(k, aggAsBinary(k, a, b), c),
		aggAsBinary(k, a, aggAsBinary(k, b, c)), nil)
	if assoc.Verdict != smt.Valid {
		assoc.Reason = "associativity: " + assoc.Reason
		return assoc
	}
	return smt.Result{Verdict: smt.Valid, Reason: "commutative and associative"}
}

// checkProperty2 verifies G∘F'∘G(X) = G∘F'(X) with the paper's four-input
// template (Figure 4). For the selective aggregates min and max it first
// tries the monotone-distribution lemma — an affine F' with a provably
// non-negative coefficient (analyzer.Facts) distributes over min/max —
// falling back to the generic case-split template.
func checkProperty2(info *analyzer.Info) smt.Result {
	valueVar := info.Rec.ValueVar
	fp := info.Rec.FPrime
	f := func(x *expr.Expr) *expr.Expr { return fp.Subst(valueVar, x) }

	if ft := info.Facts; ft.Selective && ft.Affine && ft.SignA.NonNegative() {
		return smt.Result{
			Verdict: smt.Valid,
			Reason: fmt.Sprintf("monotone-distribution lemma: F' affine in %s with coefficient %s (sign %s) distributes over %s",
				valueVar, ft.A, ft.SignA, info.Agg),
		}
	}

	lhs, rhs := p2Template(info.Agg, f)
	res := smt.ProveEq(lhs, rhs, info.Constraints)
	switch res.Verdict {
	case smt.Valid:
		res.Reason = "Z3-style template proof: " + res.Reason
	case smt.Invalid:
		res.Reason = "Property 2 refuted: " + res.Reason
	default:
		res.Reason = "undecided, treated as unsatisfied (conservative): " + res.Reason
	}
	return res
}

// p2Template builds the two sides of the paper's Figure-4 assertion:
//
//	lhs = g(f(g(x1,y1)), f(g(x2,y2)))          — aggregate first (G∘F'∘G)
//	rhs = g(g(g(f(x1),f(y1)), f(x2)), f(y2))   — expand first    (G∘F')
func p2Template(k agg.Kind, f func(*expr.Expr) *expr.Expr) (lhs, rhs *expr.Expr) {
	x1, y1 := expr.Var("ǂx1"), expr.Var("ǂy1")
	x2, y2 := expr.Var("ǂx2"), expr.Var("ǂy2")
	lhs = aggAsBinary(k, f(aggAsBinary(k, x1, y1)), f(aggAsBinary(k, x2, y2)))
	rhs = aggAsBinary(k, aggAsBinary(k, aggAsBinary(k, f(x1), f(y1)), f(x2)), f(y2))
	return lhs, rhs
}

func inverseName(k agg.Kind) string {
	switch k {
	case agg.Min:
		return "min (G⁻ = G for selective aggregates)"
	case agg.Max:
		return "max (G⁻ = G for selective aggregates)"
	case agg.Sum, agg.Count:
		return "pairwise subtraction"
	default:
		return ""
	}
}
