package smt

import (
	"math/rand"

	"powerlog/internal/expr"
)

// Prove is ProveEq's proof alone: the decider with no rng, which draws
// no sample.
func Prove(lhs, rhs *expr.Expr, cons []Constraint) Result {
	verdict, reason := (&decider{cons: cons}).decide(expr.Sub(lhs, rhs), nil, 0)
	return Result{Verdict: verdict, Reason: reason}
}

// AggBinary and Fig4 build the checker's queries.
var (
	AggBinary = aggBinary
	Fig4      = fig4
)

// Refute is ProveEq's sampling half on the region where each of below
// is < 0: the falsifier over the whole query, then the decision with
// each undischarged region sampled. Its verdict is Invalid only with a
// counterexample in the region.
func Refute(lhs, rhs *expr.Expr, below []*expr.Expr, cons []Constraint) Verdict {
	diff := expr.Sub(lhs, rhs)
	var conds []cond
	for _, e := range below {
		conds = append(conds, cond{e: e, strict: true})
	}
	rng := rand.New(rand.NewSource(20200614))
	if _, ok := falsify(diff, conds, cons, rng, falsifyTries); ok {
		return Invalid
	}
	verdict, _ := (&decider{cons: cons, rng: rng}).decide(diff, conds, 0)
	return verdict
}
