package smt_test

import (
	"reflect"
	"testing"

	"powerlog/internal/analyzer"
	"powerlog/internal/checker"
	"powerlog/internal/expr"
	"powerlog/internal/progs"
	"powerlog/internal/smt"
)

// TestValidProofsDoNotSample: every query a passing catalogue program
// puts to ProveEq — Property 1 of its aggregate, the Figure-4 Property 2
// template unless the monotone-distribution lemma settles it, and the
// discount delete licence's bound — is Valid from the proof alone, with
// ProveEq's answer, so checking a passing program draws no sample.
func TestValidProofsDoNotSample(t *testing.T) {
	for _, p := range progs.Catalog() {
		rep, info, err := checker.CheckSource(p.Source)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !rep.Satisfied {
			continue
		}
		g := info.Agg.String()
		a, b, c := expr.Var("a"), expr.Var("b"), expr.Var("c")
		type query struct {
			what     string
			lhs, rhs *expr.Expr
			cons     []smt.Constraint
		}
		qs := []query{
			{"commutativity", smt.AggBinary(g, a, b), smt.AggBinary(g, b, a), nil},
			{"associativity", smt.AggBinary(g, smt.AggBinary(g, a, b), c), smt.AggBinary(g, a, smt.AggBinary(g, b, c)), nil},
		}
		ft := info.Facts
		if !(ft.Selective && ft.Affine && ft.SignA.NonNegative()) {
			f := func(x *expr.Expr) *expr.Expr { return info.Rec.FPrime.Subst(info.Rec.ValueVar, x) }
			lhs, rhs := smt.Fig4(g, f)
			qs = append(qs, query{"Property 2", lhs, rhs, info.Constraints})
			if want := "Z3-style template proof: " + smt.Prove(lhs, rhs, info.Constraints).Reason; rep.P2.Reason != want {
				t.Errorf("%s: the checker's Property 2 reads %q, the template's proof %q", p.Name, rep.P2.Reason, want)
			}
		}
		if ft.Deletes.Kind == analyzer.DeleteDiscount {
			qs = append(qs, query{"discount bound", expr.Call("max", ft.A, expr.Num(1)), expr.Num(1), info.Constraints})
		}
		for _, q := range qs {
			proof, full := smt.Prove(q.lhs, q.rhs, q.cons), smt.ProveEq(q.lhs, q.rhs, q.cons)
			if proof.Verdict != smt.Valid || !reflect.DeepEqual(proof, full) {
				t.Errorf("%s %s: proof %v %q, ProveEq %v %q", p.Name, q.what, proof.Verdict, proof.Reason, full.Verdict, full.Reason)
			}
		}
	}
}
