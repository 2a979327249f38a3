// Package edb implements the extensional database: named relations over
// float64 columns with first-column indexes, registered CSR graphs, and a
// nested-loop join over rule bodies, prepared once into slot-addressed
// steps and run many times (Body). The engine uses it to evaluate
// initialisation rules, constant bodies, derived relations (e.g. the
// count-aggregated degree view of PageRank) and naive mode's per-iteration
// join; the recursive hot path runs on compiled row kernels instead.
package edb

import (
	"fmt"
	"slices"
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

// rowsWithFirst returns the row ids whose first column equals v. Safe for
// concurrent readers (the naive engine joins from several workers).
func (r *Relation) rowsWithFirst(v float64) []int32 {
	r.mu.Lock()
	if r.index == nil {
		r.index = make(map[float64][]int32, r.Len())
		for i := 0; i < r.Len(); i++ {
			k := r.data[i*r.Arity]
			r.index[k] = append(r.index[k], int32(i))
		}
	}
	idx := r.index
	r.mu.Unlock()
	return idx[v]
}

// DB is a collection of relations plus registered graphs. A graph joins
// as the relation (src,dst,w), read from its CSR rows where they lie.
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

// DropRelation removes a relation from the registry: a derived relation
// is dropped after a base-fact mutation and re-derived against the
// current graph.
func (db *DB) DropRelation(name string) { delete(db.rels, name) }

// MutateGraph applies edge inserts and deletes to the graph registered
// under name, splicing its CSR in place: every holder of the *Graph
// pointer, a prepared Body included, sees the mutation. It returns the
// edges the splice copied. The caller must have quiesced all readers.
func (db *DB) MutateGraph(name string, inserts, deletes []graph.Edge) (int, error) {
	g, ok := db.graphs[name]
	if !ok {
		return 0, fmt.Errorf("edb: no graph registered under %q", name)
	}
	return g.ApplyEdgeMutations(inserts, deletes)
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

// Append records a copy of a mutation batch under epoch: the caller keeps
// its edge slices and may refill them for the next batch. Epochs must be
// non-decreasing.
func (l *MutationLog) Append(epoch int, mut GraphMutation) {
	mut.Inserts, mut.Deletes = slices.Clone(mut.Inserts), slices.Clone(mut.Deletes)
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

// Relation resolves name to a relation (a graph is not one: joins read
// it in place, see Body).
func (db *DB) Relation(name string) (*Relation, bool) {
	r, ok := db.rels[name]
	return r, ok
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

// Body is a conjunction of atoms prepared for evaluation: every variable
// has a slot in one []float64 frame, and the atoms are steps in the order
// a run takes them — decided once, because which variables are bound
// when an atom is reached does not depend on the data. A comparison runs
// as soon as its variables are bound: "v = expr" with v free binds v,
// anything else filters; when none is ready the next predicate atom is
// scanned, by its index (a relation) or its CSR row (a graph) when its
// first argument is already determined. Expressions run as closures over
// the frame (expr.Compile). A Body belongs to whoever prepared it and is
// not safe for concurrent runs; it resolves predicate names when a run
// starts, so it follows a relation that is replaced between runs (naive
// mode's result table) and a graph that is mutated in place.
type Body struct {
	db    *DB
	slots map[string]int
	bound []bool // by slot, during Prepare
	steps []step
	frame []float64
}

type step struct {
	// A comparison: bind frame[slot] = lhs (cmp nil), or filter cmp(lhs, rhs).
	cmp      func(l, r float64) bool
	slot     int
	lhs, rhs func([]float64) float64

	// A predicate atom (pred != nil), resolved per run to rel or g.
	pred  *ast.Pred
	args  []arg
	first int // how the first column is determined: argNum, argBound, or -1
	rel   *Relation
	g     *graph.Graph
}

// arg is what a scan does with one column of a row.
type arg struct {
	mode int // argSkip … argNever
	slot int
	num  float64
}

const (
	argSkip  = iota // wildcard
	argNum          // must equal num
	argBound        // must equal frame[slot]
	argBind         // binds frame[slot]
	argNever        // a term no row matches
)

var comparisons = map[string]func(l, r float64) bool{
	"=":  func(l, r float64) bool { return l == r },
	"!=": func(l, r float64) bool { return l != r },
	"<":  func(l, r float64) bool { return l < r },
	">":  func(l, r float64) bool { return l > r },
	"<=": func(l, r float64) bool { return l <= r },
	">=": func(l, r float64) bool { return l >= r },
}

// Prepare orders atoms into steps and assigns the frame's slots. A
// comparison whose variables nothing binds is an error.
func (db *DB) Prepare(atoms []*ast.Atom) (*Body, error) {
	b := &Body{db: db, slots: map[string]int{}}
	rest := slices.Clone(atoms)
	for len(rest) > 0 {
		i := slices.IndexFunc(rest, func(a *ast.Atom) bool { return a.Kind == ast.AtomCompare && b.ready(a.Cmp) })
		if i < 0 {
			i = slices.IndexFunc(rest, func(a *ast.Atom) bool { return a.Kind == ast.AtomPred })
		}
		if i < 0 {
			return nil, fmt.Errorf("edb: comparison %v has unbound variables", rest[0])
		}
		var err error
		if a := rest[i]; a.Kind == ast.AtomPred {
			b.addScan(a.Pred)
		} else {
			err = b.addCompare(a.Cmp)
		}
		if err != nil {
			return nil, err
		}
		rest = slices.Delete(rest, i, i+1)
	}
	b.frame = make([]float64, len(b.slots))
	return b, nil
}

// slotOf returns name's slot, assigning the next one at first sight.
func (b *Body) slotOf(name string) int {
	s, ok := b.slots[name]
	if !ok {
		s = len(b.slots)
		b.slots[name] = s
		b.bound = append(b.bound, false)
	}
	return s
}

// closed reports whether every variable of e is bound.
func (b *Body) closed(e *expr.Expr) bool {
	if e.Kind == expr.KVar {
		return b.bound[b.slotOf(e.Name)]
	}
	for _, a := range e.Args {
		if !b.closed(a) {
			return false
		}
	}
	return true
}

// ready reports whether c can run now: as a binding, or as a filter.
func (b *Body) ready(c *ast.Compare) bool {
	if v, def, ok := c.IsAssignment(); ok && !b.bound[b.slotOf(v)] {
		return b.closed(def)
	}
	return b.closed(c.LHS) && b.closed(c.RHS)
}

func (b *Body) addCompare(c *ast.Compare) (err error) {
	var s step
	if v, def, ok := c.IsAssignment(); ok && !b.bound[b.slotOf(v)] {
		s.slot = b.slotOf(v)
		b.bound[s.slot] = true
		s.lhs, err = b.Compile(def)
	} else {
		if s.cmp = comparisons[c.Op]; s.cmp == nil {
			return fmt.Errorf("edb: unknown comparison %q", c.Op)
		}
		if s.lhs, err = b.Compile(c.LHS); err == nil {
			s.rhs, err = b.Compile(c.RHS)
		}
	}
	b.steps = append(b.steps, s)
	return err
}

func (b *Body) addScan(p *ast.Pred) {
	s := step{pred: p, first: -1, args: make([]arg, len(p.Args))}
	for j, t := range p.Args {
		a := &s.args[j]
		switch t.Kind {
		case ast.TermWildcard:
		case ast.TermNum:
			a.mode, a.num = argNum, t.Num
		case ast.TermVar:
			if a.slot = b.slotOf(t.Var); b.bound[a.slot] {
				a.mode = argBound
			} else {
				a.mode, b.bound[a.slot] = argBind, true
			}
		default:
			a.mode = argNever
		}
		// The first column is determined if it was before this atom.
		if j == 0 && (a.mode == argNum || a.mode == argBound) {
			s.first = a.mode
		}
	}
	b.steps = append(b.steps, s)
}

// Compile lowers e to a closure over the body's frame; every variable
// of e must be one the body binds.
func (b *Body) Compile(e *expr.Expr) (func(frame []float64) float64, error) {
	return e.Compile(b.slots)
}

// Run calls emit once per satisfying assignment with the frame, which is
// only valid during the call. It stops at emit's first error.
func (b *Body) Run(emit func(frame []float64) error) error {
	for i := range b.steps {
		s := &b.steps[i]
		if s.pred == nil {
			continue
		}
		s.rel, s.g = b.db.rels[s.pred.Name], b.db.graphs[s.pred.Name]
		arity := 3 // a graph's rows are (src, dst, weight)
		switch {
		case s.rel != nil: // a relation shadows a graph of its name
			s.g, arity = nil, s.rel.Arity
		case s.g == nil:
			return fmt.Errorf("edb: no relation or graph named %q", s.pred.Name)
		}
		if len(s.args) > arity {
			return fmt.Errorf("edb: %s used with arity %d but has %d columns", s.pred.Name, len(s.args), arity)
		}
	}
	return b.run(0, emit)
}

func (b *Body) run(i int, emit func([]float64) error) error {
	if i == len(b.steps) {
		return emit(b.frame)
	}
	s, f := &b.steps[i], b.frame
	switch {
	case s.pred != nil:
		return b.scan(s, i+1, emit)
	case s.cmp == nil:
		f[s.slot] = s.lhs(f)
	case !s.cmp(s.lhs(f), s.rhs(f)):
		return nil // the conjunction fails on this branch
	}
	return b.run(i+1, emit)
}

// scan runs the steps from next on for every row of s that agrees with
// the frame.
func (b *Body) scan(s *step, next int, emit func([]float64) error) error {
	var first float64
	switch s.first {
	case argNum:
		first = s.args[0].num
	case argBound:
		first = b.frame[s.args[0].slot]
	}
	switch {
	case s.g != nil:
		// Rows (v, target, weight) in CSR order; one vertex's when the
		// first column is determined.
		lo, hi := int32(0), int32(s.g.NumVertices())
		if s.first >= 0 {
			if lo = int32(first); float64(lo) != first || lo < 0 || lo >= hi {
				return nil
			}
			hi = lo + 1
		}
		for v := lo; v < hi; v++ {
			targets, weights := s.g.Neighbors(v)
			for k, t := range targets {
				row := [3]float64{float64(v), float64(t), 1}
				if weights != nil {
					row[2] = weights[k]
				}
				if err := b.match(s, row[:], next, emit); err != nil {
					return err
				}
			}
		}
	case s.first >= 0:
		for _, i := range s.rel.rowsWithFirst(first) {
			if err := b.match(s, s.rel.Row(int(i)), next, emit); err != nil {
				return err
			}
		}
	default:
		for i := 0; i < s.rel.Len(); i++ {
			if err := b.match(s, s.rel.Row(i), next, emit); err != nil {
				return err
			}
		}
	}
	return nil
}

// match binds row's columns into the frame and carries on, unless a
// column disagrees with a constant or an earlier binding.
func (b *Body) match(s *step, row []float64, next int, emit func([]float64) error) error {
	for j, a := range s.args {
		switch v := row[j]; a.mode {
		case argNum:
			if v != a.num {
				return nil
			}
		case argBound:
			if v != b.frame[a.slot] {
				return nil
			}
		case argBind:
			b.frame[a.slot] = v
		case argNever:
			return nil
		}
	}
	return b.run(next, emit)
}
