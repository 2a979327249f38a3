// Package edb implements the extensional database: named relations over
// float64 columns with first-column indexes, plus a nested-loop join
// evaluator over rule bodies. The engine uses it to evaluate
// initialisation rules, constant bodies, and derived relations (e.g. the
// count-aggregated degree view of PageRank); the recursive hot path runs
// on CSR graphs instead.
package edb

import (
	"fmt"
	"sync"

	"powerlog/internal/ast"
	"powerlog/internal/expr"
	"powerlog/internal/graph"
)

// Relation is a named table of float64 tuples in flat row-major storage.
type Relation struct {
	Name  string
	Arity int

	data []float64

	mu    sync.Mutex          // guards lazy index construction
	index map[float64][]int32 // first column → row ids, built on demand
}

// NewRelation creates an empty relation.
func NewRelation(name string, arity int) *Relation {
	if arity <= 0 {
		panic("edb: relation arity must be positive")
	}
	return &Relation{Name: name, Arity: arity}
}

// Add appends a tuple; its length must equal the arity.
func (r *Relation) Add(tuple ...float64) {
	if len(tuple) != r.Arity {
		panic(fmt.Sprintf("edb: %s expects arity %d, got %d", r.Name, r.Arity, len(tuple)))
	}
	r.data = append(r.data, tuple...)
	r.index = nil
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.data) / r.Arity }

// Row returns the i-th tuple as a subslice of the backing array; callers
// must not modify or retain it across Adds.
func (r *Relation) Row(i int) []float64 {
	return r.data[i*r.Arity : (i+1)*r.Arity]
}

func (r *Relation) buildIndex() {
	idx := make(map[float64][]int32, r.Len())
	for i := 0; i < r.Len(); i++ {
		k := r.data[i*r.Arity]
		idx[k] = append(idx[k], int32(i))
	}
	r.index = idx
}

// rowsWithFirst returns the row ids whose first column equals v. Safe for
// concurrent readers (the naive engine joins from several workers).
func (r *Relation) rowsWithFirst(v float64) []int32 {
	r.mu.Lock()
	if r.index == nil {
		r.buildIndex()
	}
	idx := r.index
	r.mu.Unlock()
	return idx[v]
}

// DB is a collection of relations plus registered graphs. Graphs are
// exposed to the join evaluator as lazily materialised (src,dst[,w])
// relations.
type DB struct {
	rels   map[string]*Relation
	graphs map[string]*graph.Graph
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{rels: map[string]*Relation{}, graphs: map[string]*graph.Graph{}}
}

// AddRelation registers (or replaces) a relation.
func (db *DB) AddRelation(r *Relation) { db.rels[r.Name] = r }

// Clone returns a database sharing the same (read-only) relations and
// graphs but with an independent registry, so a caller can overlay
// per-worker relations (the naive engine's per-iteration result table)
// without racing other workers.
func (db *DB) Clone() *DB {
	out := NewDB()
	for k, v := range db.rels {
		out.rels[k] = v
	}
	for k, v := range db.graphs {
		out.graphs[k] = v
	}
	return out
}

// SetGraph registers a graph under a predicate name (e.g. "edge").
func (db *DB) SetGraph(name string, g *graph.Graph) { db.graphs[name] = g }

// DropRelation removes a relation from the registry. Used to invalidate
// materialised graph views and derived relations after a base-fact
// mutation so the next Relation/EvalBody call re-materialises against
// the current graph.
func (db *DB) DropRelation(name string) { delete(db.rels, name) }

// MutateGraph applies edge inserts and deletes to the graph registered
// under name, rebuilding its CSR in place (every holder of the *Graph
// pointer sees the mutation), and drops the cached (src,dst,weight)
// relation view so joins re-materialise it. The caller must have
// quiesced all readers.
func (db *DB) MutateGraph(name string, inserts, deletes []graph.Edge) error {
	g, ok := db.graphs[name]
	if !ok {
		return fmt.Errorf("edb: no graph registered under %q", name)
	}
	if err := g.ApplyEdgeMutations(inserts, deletes); err != nil {
		return err
	}
	db.DropRelation(name)
	return nil
}

// GraphMutation is one batch of base-fact churn against a registered
// graph predicate.
type GraphMutation struct {
	Pred    string
	Inserts []graph.Edge
	Deletes []graph.Edge
}

// LogEntry is one applied mutation batch, stamped with the session
// epoch that incorporated it (epoch 1 = the first Apply after Open).
type LogEntry struct {
	Epoch int
	Mut   GraphMutation
}

// MutationLog records applied mutations in epoch order, the newest
// logKeep of them at least. Checkpoints stamp the log position
// (ckpt.Meta.MutEpoch) so a restore knows which trailing entries still
// need replaying; a session checkpoints at every park, so the tail a
// restore replays is a batch or two, and what a long-lived session
// applied thousands of batches ago only costs memory — 4 KB a batch at
// the serving sizes, without bound, which a session that applies faster
// than it used to turns into resident set. Truncated says how far back
// the log still reaches.
type MutationLog struct {
	entries   []LogEntry
	truncated int // epoch of the newest entry let go (0 = none)
}

// logKeep is how many batches a MutationLog always holds (it trims from
// twice that).
const logKeep = 1024

// Append records a mutation batch under epoch. Epochs must be
// non-decreasing.
func (l *MutationLog) Append(epoch int, mut GraphMutation) {
	if n := len(l.entries); n > 0 && l.entries[n-1].Epoch > epoch {
		panic(fmt.Sprintf("edb: mutation log epoch went backwards (%d after %d)", epoch, l.entries[n-1].Epoch))
	}
	l.entries = append(l.entries, LogEntry{Epoch: epoch, Mut: mut})
	if len(l.entries) == 2*logKeep {
		// Let the older half go in one move: O(1) per Append, and the
		// batches' edge slices become collectable.
		l.truncated = l.entries[logKeep-1].Epoch
		n := copy(l.entries, l.entries[logKeep:])
		clear(l.entries[n:])
		l.entries = l.entries[:n]
	}
}

// Truncated returns the epoch of the newest entry the log no longer
// holds, 0 if it holds them all: Since(e) is the complete tail iff
// e >= Truncated().
func (l *MutationLog) Truncated() int { return l.truncated }

// Since returns the held entries with Epoch > epoch (the trailing
// mutations a restore from a checkpoint stamped `epoch` must replay; see
// Truncated).
func (l *MutationLog) Since(epoch int) []LogEntry {
	i := len(l.entries)
	for i > 0 && l.entries[i-1].Epoch > epoch {
		i--
	}
	return l.entries[i:]
}

// Len returns the number of batches the log holds.
func (l *MutationLog) Len() int { return len(l.entries) }

// LastEpoch returns the newest recorded epoch (0 when empty).
func (l *MutationLog) LastEpoch() int {
	if len(l.entries) == 0 {
		return 0
	}
	return l.entries[len(l.entries)-1].Epoch
}

// Graph returns the graph registered under name.
func (db *DB) Graph(name string) (*graph.Graph, bool) {
	g, ok := db.graphs[name]
	return g, ok
}

// HasPred reports whether name resolves to a relation or graph.
func (db *DB) HasPred(name string) bool {
	if _, ok := db.rels[name]; ok {
		return true
	}
	_, ok := db.graphs[name]
	return ok
}

// Relation resolves name to a relation, materialising a graph view
// (src,dst,weight) on first use.
func (db *DB) Relation(name string) (*Relation, bool) {
	if r, ok := db.rels[name]; ok {
		return r, true
	}
	g, ok := db.graphs[name]
	if !ok {
		return nil, false
	}
	r := NewRelation(name, 3)
	r.data = make([]float64, 0, 3*g.NumEdges())
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		lo, hi := g.EdgeRange(v)
		for i := lo; i < hi; i++ {
			r.data = append(r.data, float64(v), float64(g.Target(i)), g.Weight(i))
		}
	}
	db.rels[name] = r
	return r, true
}

// VertexColumn interprets a binary relation keyed by vertex id as a dense
// attribute column of length n; missing vertices get def.
func (db *DB) VertexColumn(name string, n int, def float64) ([]float64, error) {
	r, ok := db.Relation(name)
	if !ok {
		return nil, fmt.Errorf("edb: no relation %q", name)
	}
	if r.Arity < 2 {
		return nil, fmt.Errorf("edb: relation %q has arity %d, need ≥2 for a vertex column", name, r.Arity)
	}
	col := make([]float64, n)
	for i := range col {
		col[i] = def
	}
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		v := int(row[0])
		if v >= 0 && v < n {
			col[v] = row[1]
		}
	}
	return col, nil
}

// Env is a variable binding environment for body evaluation.
type Env map[string]float64

// EvalBody evaluates a conjunction of atoms by nested-loop join with
// index acceleration on bound first columns, calling emit once per
// satisfying assignment. Comparison atoms bind ("v = expr" with v free)
// or filter; atoms whose variables are not yet bound are deferred. A body
// that can never bind some comparison's variables is an error.
func (db *DB) EvalBody(atoms []*ast.Atom, emit func(Env) error) error {
	env := Env{}
	return db.eval(atoms, env, emit)
}

func (db *DB) eval(atoms []*ast.Atom, env Env, emit func(Env) error) error {
	// Find the next evaluable atom: a comparison whose variables are
	// resolvable now, or the first predicate atom.
	for i, a := range atoms {
		if a.Kind != ast.AtomCompare {
			continue
		}
		ready, err := db.tryCompare(a.Cmp, env)
		if err != nil {
			return err
		}
		switch ready {
		case cmpBound, cmpTrue:
			rest := append(atoms[:i:i], atoms[i+1:]...)
			err := db.eval(rest, env, emit)
			if ready == cmpBound {
				// Unbind the variable this comparison introduced.
				if v, _, ok := a.Cmp.IsAssignment(); ok {
					delete(env, v)
				}
			}
			return err
		case cmpFalse:
			return nil // conjunction fails on this branch
		case cmpDeferred:
			// fall through to try other atoms first
		}
	}
	// No comparison ready; take the first predicate atom.
	for i, a := range atoms {
		if a.Kind != ast.AtomPred {
			continue
		}
		rest := append(atoms[:i:i], atoms[i+1:]...)
		return db.scanPred(a.Pred, rest, env, emit)
	}
	// Only deferred comparisons (or nothing) remain.
	for _, a := range atoms {
		if a.Kind == ast.AtomCompare {
			return fmt.Errorf("edb: comparison %v has unbound variables", a)
		}
	}
	return emit(env)
}

type cmpState int

const (
	cmpDeferred cmpState = iota // variables not yet bound
	cmpBound                    // assignment succeeded, variable now bound
	cmpTrue                     // filter passed
	cmpFalse                    // filter failed
)

// tryCompare attempts to apply a comparison under env.
func (db *DB) tryCompare(c *ast.Compare, env Env) (cmpState, error) {
	if v, def, ok := c.IsAssignment(); ok {
		if _, bound := env[v]; !bound {
			if !allBound(def, env) {
				return cmpDeferred, nil
			}
			env[v] = def.Eval(expr.Env(env))
			return cmpBound, nil
		}
	}
	if !allBound(c.LHS, env) || !allBound(c.RHS, env) {
		return cmpDeferred, nil
	}
	l, r := c.LHS.Eval(expr.Env(env)), c.RHS.Eval(expr.Env(env))
	ok := false
	switch c.Op {
	case "=":
		ok = l == r
	case "!=":
		ok = l != r
	case "<":
		ok = l < r
	case ">":
		ok = l > r
	case "<=":
		ok = l <= r
	case ">=":
		ok = l >= r
	default:
		return cmpFalse, fmt.Errorf("edb: unknown comparison %q", c.Op)
	}
	if ok {
		return cmpTrue, nil
	}
	return cmpFalse, nil
}

func allBound(e *expr.Expr, env Env) bool {
	for _, v := range e.Vars() {
		if _, ok := env[v]; !ok {
			return false
		}
	}
	return true
}

// scanPred iterates the tuples of p matching env's bindings, extends env,
// and recurses into the remaining atoms.
func (db *DB) scanPred(p *ast.Pred, rest []*ast.Atom, env Env, emit func(Env) error) error {
	rel, ok := db.Relation(p.Name)
	if !ok {
		return fmt.Errorf("edb: no relation or graph named %q", p.Name)
	}
	if len(p.Args) > rel.Arity {
		return fmt.Errorf("edb: %s used with arity %d but has %d columns", p.Name, len(p.Args), rel.Arity)
	}

	match := func(row []float64) error {
		var bound []string
		ok := true
		for j, term := range p.Args {
			val := row[j]
			switch term.Kind {
			case ast.TermWildcard:
				continue
			case ast.TermNum:
				if term.Num != val {
					ok = false
				}
			case ast.TermVar:
				if cur, has := env[term.Var]; has {
					if cur != val {
						ok = false
					}
				} else {
					env[term.Var] = val
					bound = append(bound, term.Var)
				}
			default:
				ok = false
			}
			if !ok {
				break
			}
		}
		var err error
		if ok {
			err = db.eval(rest, env, emit)
		}
		for _, v := range bound {
			delete(env, v)
		}
		return err
	}

	// Index acceleration when the first argument is already determined.
	if len(p.Args) > 0 {
		if first, ok := firstArgValue(p.Args[0], env); ok {
			for _, i := range rel.rowsWithFirst(first) {
				if err := match(rel.Row(int(i))); err != nil {
					return err
				}
			}
			return nil
		}
	}
	for i := 0; i < rel.Len(); i++ {
		if err := match(rel.Row(i)); err != nil {
			return err
		}
	}
	return nil
}

func firstArgValue(t *ast.Term, env Env) (float64, bool) {
	switch t.Kind {
	case ast.TermNum:
		return t.Num, true
	case ast.TermVar:
		v, ok := env[t.Var]
		return v, ok
	default:
		return 0, false
	}
}
