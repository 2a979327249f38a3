// Package edb implements the extensional database: named relations over
// float64 columns with first-column indexes, ranges (the rows [0,n) with
// no tuples stored), registered CSR graphs, and a nested-loop join over
// rule bodies, prepared once into slot-addressed steps and run many times
// (Body). A graph atom is scanned a CSR row at a time. The engine uses it
// to evaluate initialisation rules, constant bodies, derived relations
// (e.g. the count-aggregated degree view of PageRank, folded a row at a
// time: Body.Rows) and naive mode's per-iteration join; the recursive hot
// path runs on compiled row kernels instead.
package edb

import (
	"fmt"
	"slices"
	"sync"

	"powerlog/internal/ast"
	"powerlog/internal/expr"
	"powerlog/internal/graph"
)

// Relation is a named table of float64 tuples in flat row-major storage,
// or a range: the unary rows 0, 1, …, n−1, with nothing stored.
type Relation struct {
	Name  string
	Arity int

	data   []float64
	ranged bool
	n      int // a range's length

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

// NewRange returns the unary relation of the rows [0,n), e.g. the vertex
// set node(X). It stores no tuples and builds no index: a scan counts
// through the range, and a lookup by value tests the value.
func NewRange(name string, n int) *Relation {
	return &Relation{Name: name, Arity: 1, ranged: true, n: n}
}

// Add appends a tuple; its length must equal the arity. A range takes
// none.
func (r *Relation) Add(tuple ...float64) {
	if r.ranged {
		panic(fmt.Sprintf("edb: %s is a range", r.Name))
	}
	if len(tuple) != r.Arity {
		panic(fmt.Sprintf("edb: %s expects arity %d, got %d", r.Name, r.Arity, len(tuple)))
	}
	r.data = append(r.data, tuple...)
	r.index = nil
}

// Len returns the number of tuples.
func (r *Relation) Len() int {
	if r.ranged {
		return r.n
	}
	return len(r.data) / r.Arity
}

// Row returns the i-th tuple as a subslice of the backing array; callers
// must not modify or retain it across Adds. A range's row is made for
// the call.
func (r *Relation) Row(i int) []float64 {
	if r.ranged {
		if i < 0 || i >= r.n {
			panic(fmt.Sprintf("edb: row %d of the range %s of %d", i, r.Name, r.n))
		}
		return []float64{float64(i)}
	}
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

// SetGraph registers a graph under a predicate name (e.g. "edge"). The
// graph is the engine's from then on: the first fixpoint over it sorts
// its rows by target in place (compiler.Plan.Layout) and a session
// splices it, so a caller who needs its own row order keeps a copy.
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
// scanned, by its index (a relation), by value (a range) or a CSR row at
// a time (a graph) when its first argument is already determined.
// Expressions run as closures over the frame (expr.Compile). A Body
// belongs to whoever prepared it and is not safe for concurrent runs; it
// resolves predicate names when a run starts, so it follows a relation
// that is replaced between runs (naive mode's result table) and a graph
// that is mutated in place.
type Body struct {
	db    *DB
	slots map[string]int
	bound []bool // by slot, during Prepare
	steps []step
	frame []float64
	rows  func(frame []float64, targets []int32, weights []float64) error // Rows' consumer, during its run
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

// RowScan reports whether the body ends in an atom of a graph registered
// under its name whose source column is a variable and whose target and
// weight columns only bind: nothing after the atom, nor in its own
// columns, filters a row's entries. It names the variables the three
// columns bind ("" for a wildcard or a column the atom leaves out). Rows
// hands such a body's rows over whole.
func (b *Body) RowScan() (src, dst, w string, ok bool) {
	if len(b.steps) == 0 {
		return "", "", "", false
	}
	s := &b.steps[len(b.steps)-1]
	if s.pred == nil || b.db.rels[s.pred.Name] != nil || b.db.graphs[s.pred.Name] == nil || len(s.args) == 0 || len(s.args) > 3 {
		return "", "", "", false
	}
	var names [3]string
	for j, a := range s.args {
		switch {
		case j == 0 && a.mode != argBind && a.mode != argBound, j > 0 && a.mode != argSkip && a.mode != argBind:
			return "", "", "", false
		case a.mode != argSkip:
			names[j] = s.pred.Args[j].Var
		}
	}
	return names[0], names[1], names[2], true
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

// Rows runs a body that RowScan accepts, calling emit once per non-empty
// CSR row of its last atom, in CSR order, with the frame — every variable
// bound, the row's source included, but the target's and the weight's —
// and the row's targets and weights (nil: every weight is 1), the CSR's
// own slices, to be read during the call only.
func (b *Body) Rows(emit func(frame []float64, targets []int32, weights []float64) error) error {
	if _, _, _, ok := b.RowScan(); !ok {
		return fmt.Errorf("edb: the body does not end in a scan of a graph's rows")
	}
	b.rows = emit
	defer func() { b.rows = nil }()
	return b.Run(nil)
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
		// CSR rows in order, one vertex's when the first column is
		// determined: the source binds once, the row's entries in turn.
		lo, hi := s.span(first, s.g.NumVertices())
		for v := lo; v < hi; v++ {
			targets, weights := s.g.Neighbors(int32(v))
			if len(targets) == 0 || !b.take(s, 0, float64(v)) {
				continue
			}
			if err := b.row(s, next, targets, weights, emit); err != nil {
				return err
			}
		}
	case s.rel.ranged:
		lo, hi := s.span(first, s.rel.n)
		for v := lo; v < hi; v++ {
			if !b.take(s, 0, float64(v)) {
				continue
			}
			if err := b.run(next, emit); err != nil {
				return err
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

// span is the rows [lo,hi) of n vertices, or of a range of n, that s
// reads: every one, or the one its determined first column names, if it
// names one.
func (s *step) span(first float64, n int) (lo, hi int) {
	if s.first < 0 {
		return 0, n
	}
	if v := int32(first); float64(v) == first && v >= 0 && int(v) < n {
		return int(v), int(v) + 1
	}
	return 0, 0
}

// row runs the steps from next on for every entry of one CSR row whose
// source the frame holds — or, when the body ends here and runs under
// Rows, hands the row over whole.
func (b *Body) row(s *step, next int, targets []int32, weights []float64, emit func([]float64) error) error {
	if b.rows != nil && next == len(b.steps) {
		return b.rows(b.frame, targets, weights)
	}
	for k, t := range targets {
		w := 1.0
		if weights != nil {
			w = weights[k]
		}
		if !b.take(s, 1, float64(t)) || !b.take(s, 2, w) {
			continue
		}
		if err := b.run(next, emit); err != nil {
			return err
		}
	}
	return nil
}

// match binds row's columns into the frame and carries on, unless a
// column disagrees with a constant or an earlier binding.
func (b *Body) match(s *step, row []float64, next int, emit func([]float64) error) error {
	for j := range s.args {
		if !b.take(s, j, row[j]) {
			return nil
		}
	}
	return b.run(next, emit)
}

// take applies v, column j of a row, to the frame: false when it
// disagrees with a constant or an earlier binding. A column the atom
// leaves out takes anything.
func (b *Body) take(s *step, j int, v float64) bool {
	if j >= len(s.args) {
		return true
	}
	switch a := &s.args[j]; a.mode {
	case argNum:
		return v == a.num
	case argBound:
		return v == b.frame[a.slot]
	case argBind:
		b.frame[a.slot] = v
	case argNever:
		return false
	}
	return true
}
