package compiler

import (
	"slices"

	"powerlog/internal/ast"
	"powerlog/internal/edb"
)

// curRelName is the per-iteration materialisation of the current result —
// the "additional rank table" the paper says naive evaluation must build
// and join every iteration (§1). The ǂ prefix keeps it out of user
// namespace.
const curRelName = "ǂcur"

// NaiveEvaluator evaluates the recursive rule body as a relational join
// against a per-iteration materialisation of the current result. This is
// what naive Datalog evaluation actually costs (SociaLite/Myria-style):
// rebuild the result table, re-run the joins, re-aggregate — as opposed
// to the compiled propagation closure MRA evaluation uses. One evaluator
// per worker; not safe for concurrent use.
type NaiveEvaluator struct {
	db    *edb.DB
	join  func(f func(row []float64) error) error // the body, prepared once: rows of the head key and value
	arity int                                     // columns of the cur relation: rec key + value
}

// NaiveJoinSupported reports whether the plan can evaluate naively via
// relational joins: a plan keyed by vertex.
func (p *Plan) NaiveJoinSupported() bool { return !p.PairKeys }

// NewNaiveEvaluator builds a per-worker naive evaluator. Each worker owns
// a clone of the database so its per-iteration result table does not race
// other workers'.
func (p *Plan) NewNaiveEvaluator() (*NaiveEvaluator, error) {
	if !p.NaiveJoinSupported() {
		return nil, errf("the naive join needs vertex keys")
	}
	info := p.Info
	rec := info.Rec

	// Rebuild the recursive body with the R occurrence rewritten to scan
	// the materialised current-result relation: drop the iteration index,
	// keep (recKeys..., valueVar).
	var curArgs []*ast.Term
	for i, t := range rec.RecAtom.Args {
		if i == 0 && info.IterIndexed {
			continue
		}
		curArgs = append(curArgs, t)
	}
	atoms := []*ast.Atom{{
		Kind: ast.AtomPred,
		Pred: &ast.Pred{Name: curRelName, Args: curArgs},
	}}
	for _, a := range rec.Body.Atoms {
		if a.Kind == ast.AtomPred && a.Pred == rec.RecAtom {
			continue
		}
		atoms = append(atoms, a)
	}

	ev := &NaiveEvaluator{db: p.DB.Clone(), arity: len(curArgs)}
	var err error
	if ev.join, err = prepareRows(ev.db, atoms, varTerms(append(slices.Clone(info.KeyVars), info.AggVar))); err != nil {
		return nil, err
	}
	return ev, nil
}

// Eval materialises the caller's current rows into the result table and
// evaluates the body join, emitting every derived (key, value) tuple.
func (ev *NaiveEvaluator) Eval(rows func(yield func(key int64, val float64)), emit func(key int64, val float64)) error {
	cur := edb.NewRelation(curRelName, ev.arity)
	rows(func(key int64, val float64) { cur.Add(float64(key), val) })
	ev.db.AddRelation(cur)

	return ev.join(func(row []float64) error {
		emit(int64(row[0]), row[1])
		return nil
	})
}
