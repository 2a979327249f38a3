// Package rewrite converts a convertible non-monotonic recursive
// aggregate program into its equivalent incremental (monotonic) form —
// the transformation the paper performs "automatically and transparently
// to users" (§3.2), turning the original PageRank (Program 2) into the
// delta-based Program 2.b. The engine itself executes the analysed form
// directly; this package materialises the rewritten AST so users can see
// (and other systems can consume) the incremental program.
package rewrite

import (
	"fmt"

	"powerlog/internal/analyzer"
	"powerlog/internal/ast"
	"powerlog/internal/checker"
	"powerlog/internal/expr"
)

// ToIncremental returns the incremental equivalent of an analysed
// program that satisfies the MRA conditions:
//
//   - the constant bodies C become initialisation (ΔX¹) rules, and
//   - the recursive rule keeps only F' plus a self-feed body
//     ("ry = r" in Program 2.b) that makes the per-key sequence
//     monotonic under the aggregate.
//
// It refuses programs that fail the condition check — rewriting those
// would change their semantics.
func ToIncremental(info *analyzer.Info, rep *checker.Report) (*ast.Program, error) {
	if rep == nil {
		rep = checker.Check(info)
	}
	if !rep.Satisfied {
		return nil, fmt.Errorf("rewrite: %s does not satisfy the MRA conditions (%s)", info.HeadName, rep.P2.Reason)
	}
	out := &ast.Program{}

	// Non-recursive rules pass through untouched (facts, views, derived
	// relations).
	rec := info.Rec.Rule
	for _, r := range info.AST.Rules {
		if r != rec && r.Head.Name != info.HeadName {
			out.Rules = append(out.Rules, r)
		}
	}

	// Initialisation: former init rules keep their role; each constant
	// body becomes an explicit iteration-0 rule.
	for _, r := range info.InitRules {
		out.Rules = append(out.Rules, r)
	}
	for i, cb := range info.ConstBodies {
		init := &ast.Rule{
			Label: fmt.Sprintf("init%d", i+1),
			Head:  initHead(info),
			Bodies: []*ast.Body{
				{Atoms: initAtoms(info, cb)},
			},
		}
		out.Rules = append(out.Rules, init)
	}

	// The incremental recursive rule: self-feed body plus the F' body.
	newRec := &ast.Rule{
		Label:  rec.Label,
		Head:   rec.Head,
		Term:   rec.Term,
		Bodies: []*ast.Body{selfFeedBody(info), fPrimeBody(info)},
	}
	out.Rules = append(out.Rules, newRec)
	return out, nil
}

// initHead builds "R(0, keys..., value)" mirroring the recursive head's
// argument layout.
func initHead(info *analyzer.Info) *ast.Pred {
	head := &ast.Pred{Name: info.HeadName}
	ki := 0
	for i := range info.Rec.Rule.Head.Args {
		switch {
		case i == 0 && info.IterIndexed:
			head.Args = append(head.Args, &ast.Term{Kind: ast.TermNum, Num: 0})
		case i == info.AggPos:
			head.Args = append(head.Args, &ast.Term{Kind: ast.TermVar, Var: info.AggVar})
		default:
			head.Args = append(head.Args, &ast.Term{Kind: ast.TermVar, Var: info.KeyVars[ki]})
			ki++
		}
	}
	return head
}

// initAtoms reuses the constant body's atoms as the init rule's body.
func initAtoms(info *analyzer.Info, cb *analyzer.ConstBody) []*ast.Atom {
	return cb.Body.Atoms
}

// selfFeedBody builds "R(i, keys..., r), aggVar = r": each key re-feeds
// its accumulated value, making the sequence monotonically increasing
// for combining aggregates (Program 2.b's first body). For selective
// aggregates the self-feed is what DeALS' monotonic aggregates do
// implicitly.
func selfFeedBody(info *analyzer.Info) *ast.Body {
	prev := "ǂprev"
	recAtom := &ast.Pred{Name: info.HeadName}
	ki := 0
	for i := range info.Rec.Rule.Head.Args {
		switch {
		case i == 0 && info.IterIndexed:
			recAtom.Args = append(recAtom.Args, &ast.Term{Kind: ast.TermVar, Var: "i"})
		case i == info.AggPos:
			recAtom.Args = append(recAtom.Args, &ast.Term{Kind: ast.TermVar, Var: prev})
		default:
			recAtom.Args = append(recAtom.Args, &ast.Term{Kind: ast.TermVar, Var: info.KeyVars[ki]})
			ki++
		}
	}
	return &ast.Body{Atoms: []*ast.Atom{
		{Kind: ast.AtomPred, Pred: recAtom},
		{Kind: ast.AtomCompare, Cmp: &ast.Compare{
			Op:  "=",
			LHS: expr.Var(info.AggVar),
			RHS: expr.Var(prev),
		}},
	}}
}

// fPrimeBody rebuilds the recursive body with the aggregate variable
// defined by F' alone (any additive constant split out by the analyzer
// has moved to the init rules).
func fPrimeBody(info *analyzer.Info) *ast.Body {
	b := &ast.Body{}
	for _, a := range info.Rec.Body.Atoms {
		if a.Kind == ast.AtomCompare {
			if v, _, ok := a.Cmp.IsAssignment(); ok && v == info.AggVar {
				b.Atoms = append(b.Atoms, &ast.Atom{Kind: ast.AtomCompare, Cmp: &ast.Compare{
					Op:  "=",
					LHS: expr.Var(info.AggVar),
					RHS: info.Rec.FPrime,
				}})
				continue
			}
		}
		b.Atoms = append(b.Atoms, a)
	}
	if _, selfDefined := findAggDef(info); !selfDefined {
		// CC-style bodies bind the aggregate variable directly through the
		// recursive atom; nothing to rewrite.
		return b
	}
	return b
}

// findAggDef reports whether the recursive body defines AggVar by
// assignment (as opposed to binding it directly in the recursive atom).
func findAggDef(info *analyzer.Info) (*expr.Expr, bool) {
	for _, a := range info.Rec.Body.Atoms {
		if a.Kind == ast.AtomCompare {
			if v, def, ok := a.Cmp.IsAssignment(); ok && v == info.AggVar {
				return def, true
			}
		}
	}
	return nil, false
}
