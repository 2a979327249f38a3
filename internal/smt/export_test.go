package smt

import "powerlog/internal/expr"

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
