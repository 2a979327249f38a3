package compiler

import (
	"powerlog/internal/agg"
	"powerlog/internal/analyzer"
	"powerlog/internal/ast"
	"powerlog/internal/edb"
	"powerlog/internal/graph"
)

// Options tunes compilation.
type Options struct {
	// MaxIters overrides the system-level iteration cap (default 10000).
	MaxIters int
}

// DefaultMaxIters is the system-level termination bound of §2.2.
const DefaultMaxIters = 10000

// Compile lowers an analysed program against a database. The database
// must contain the graph joined by the recursive body (registered under
// the join predicate's name) and any attribute relations the program
// references; a "node" relation is synthesised from the graph when
// missing.
func Compile(info *analyzer.Info, db *edb.DB, opts Options) (*Plan, error) {
	p := &Plan{
		Info: info,
		Op:   agg.ByKind(info.Agg),
		DB:   db,
	}
	p.PairKeys = len(info.KeyVars) == 2
	if len(info.KeyVars) > 2 {
		return nil, errf("more than two group-by keys (%v) not supported", info.KeyVars)
	}

	// Evaluate supporting rules bottom-up so their relations are in place
	// before the recursive body is compiled against them. The join graph
	// is resolved first because view rules may quantify over node(X),
	// which is synthesised from the graph's vertex set.
	if err := evalFacts(info, db); err != nil {
		return nil, err
	}
	shape, err := recShape(info)
	if err != nil {
		return nil, err
	}
	if err := shape.bindGraph(db); err != nil {
		return nil, err
	}
	p.Graph = shape.g
	p.N = shape.g.NumVertices()
	ensureNodeRelation(db, p.N)

	// Record which supporting relations the compiler materialises (vs.
	// relations the database already provided): those are the ones a
	// base-fact mutation must re-derive, because they may read the graph.
	materialised := func(heads []string) []string {
		var out []string
		for _, h := range heads {
			if !db.HasPred(h) {
				out = append(out, h)
			}
		}
		return out
	}
	var otherHeads, derivedHeads []string
	for _, r := range info.OtherRules {
		otherHeads = append(otherHeads, r.Head.Name)
	}
	for _, r := range info.DerivedRules {
		derivedHeads = append(derivedHeads, r.Head.Name)
	}
	shape.otherHeads = materialised(otherHeads)
	shape.derivedHeads = materialised(derivedHeads)

	if err := evalOtherRules(info, db); err != nil {
		return nil, err
	}
	if err := evalDerivedRules(info, db); err != nil {
		return nil, err
	}
	if err := shape.bindAttrs(db); err != nil {
		return nil, err
	}
	p.shape = shape
	if p.Op.Selective() {
		shape.closure = proveClosure(info)
	}

	if err := compilePropagation(p, shape); err != nil {
		return nil, err
	}
	if err := buildInits(p, shape); err != nil {
		return nil, err
	}

	p.Termination = TermSpec{MaxIters: DefaultMaxIters}
	if opts.MaxIters > 0 {
		p.Termination.MaxIters = opts.MaxIters
	}
	if info.Termination != nil {
		p.Termination.Epsilon = info.Termination.Threshold
	}
	p.Kernel.bindStep(p.Op, info.Rec.ValueVar, p.Termination.Fixpoint())
	return p, nil
}

// bodyShape is the resolved propagation structure of the recursive body.
type bodyShape struct {
	g    *graph.Graph
	join *ast.Pred // the resolved join predicate occurrence

	// base is the graph as registered in the database; g == base unless
	// the body is an in-neighbor formulation, in which case g is a
	// transposed copy and reversed is true. A session mutation must be
	// applied to both.
	base     *graph.Graph
	reversed bool

	// otherHeads/derivedHeads name the supporting relations the compiler
	// materialised (view rules and aggregate views such as PageRank's
	// degree). They may read the graph, so a base-fact mutation drops and
	// re-derives them.
	otherHeads   []string
	derivedHeads []string

	// passIdx maps pair-key position 0 (hi) pass-through: for pair-keyed
	// plans, the index in RecKeyVars that flows through unchanged.
	// Single-key plans propagate their only key.
	srcVar string // the rec key var that joins the edge's source side
	dstVar string // the head key var bound by the edge's destination side

	weightVar string // edge-weight variable, "" if none

	srcAttrs []attrCol // columns read at the propagation source
	dstAttrs []attrCol // columns read at the destination

	closure closureProof // selective plans: may a mutation delete? (delta.go)
}

type attrCol struct {
	varName string
	pred    string // relation the column is loaded from (for re-loading after a mutation)
	col     []float64
}

// recShape resolves the propagation structure from the program text
// alone: the join (edge) predicate of the recursive body, its
// orientation, the weight variable, and which side each attribute
// predicate is keyed by. Nothing is bound to a database yet.
func recShape(info *analyzer.Info) (*bodyShape, error) {
	rec := info.Rec
	shape := &bodyShape{}

	// The propagated head key var: the head key not present in rec keys.
	recKeySet := map[string]bool{}
	for _, v := range rec.RecKeyVars {
		recKeySet[v] = true
	}
	var propagated string
	for _, v := range info.KeyVars {
		if !recKeySet[v] {
			if propagated != "" {
				return nil, errf("more than one propagated key (%s and %s)", propagated, v)
			}
			propagated = v
		}
	}
	if propagated == "" {
		return nil, errf("head keys %v all pass through; no propagation structure", info.KeyVars)
	}
	if len(info.KeyVars) == 2 && info.KeyVars[1] != propagated {
		return nil, errf("pair-keyed plans must propagate on the second key; head keys %v propagate %s", info.KeyVars, propagated)
	}
	shape.dstVar = propagated

	// Find the join predicate: mentions the propagated var and a rec key.
	var join *ast.Pred
	for _, p := range rec.Aux {
		hasProp, recVar := false, ""
		for _, t := range p.Args {
			if t.Kind != ast.TermVar {
				continue
			}
			if t.Var == propagated {
				hasProp = true
			}
			if recKeySet[t.Var] {
				recVar = t.Var
			}
		}
		if hasProp && recVar != "" {
			if join != nil {
				return nil, errf("ambiguous join: both %s and %s connect the keys", join.Name, p.Name)
			}
			join = p
			shape.srcVar = recVar
		}
	}
	if join == nil {
		return nil, errf("no predicate joins a recursive key to head key %s", propagated)
	}

	// Orientation: arg positions of src and dst vars.
	srcPos, dstPos := -1, -1
	for i, t := range join.Args {
		if t.Kind != ast.TermVar {
			continue
		}
		switch t.Var {
		case shape.srcVar:
			srcPos = i
		case shape.dstVar:
			dstPos = i
		default:
			if i >= 2 && shape.weightVar == "" {
				shape.weightVar = t.Var
			}
		}
	}
	switch {
	case srcPos == 0 && dstPos == 1:
	case srcPos == 1 && dstPos == 0:
		shape.reversed = true // in-neighbor formulation
	default:
		return nil, errf("join predicate %s must bind keys in its first two arguments", join.Name)
	}
	if len(join.Args) >= 3 && shape.weightVar == "" {
		if t := join.Args[2]; t.Kind == ast.TermVar {
			shape.weightVar = t.Var
		}
	}
	shape.join = join

	// The remaining aux predicates are attributes: binary-style preds
	// keyed by the propagation source or destination.
	for _, p := range rec.Aux {
		if p == join {
			continue
		}
		if len(p.Args) < 2 {
			return nil, errf("attribute predicate %s needs (key, value) arguments", p.Name)
		}
		keyT, valT := p.Args[0], p.Args[1]
		if keyT.Kind != ast.TermVar || valT.Kind != ast.TermVar {
			return nil, errf("attribute predicate %s must bind plain variables", p.Name)
		}
		ac := attrCol{varName: valT.Var, pred: p.Name}
		switch keyT.Var {
		case shape.srcVar:
			shape.srcAttrs = append(shape.srcAttrs, ac)
		case shape.dstVar:
			shape.dstAttrs = append(shape.dstAttrs, ac)
		default:
			return nil, errf("attribute predicate %s keyed by %s, which is neither the propagation source %s nor destination %s",
				p.Name, keyT.Var, shape.srcVar, shape.dstVar)
		}
	}
	return shape, nil
}

// bindGraph finds the join predicate's graph in the database and orients
// it: an in-neighbor formulation propagates over a transposed copy.
func (shape *bodyShape) bindGraph(db *edb.DB) error {
	g, ok := db.Graph(shape.join.Name)
	if !ok {
		return errf("join predicate %q is not registered as a graph", shape.join.Name)
	}
	shape.base, shape.g = g, g
	if shape.reversed {
		shape.g = g.Reverse()
	}
	return nil
}

// bindAttrs loads the attribute columns. It runs after the supporting
// rules have been evaluated, since a column may be one of their heads
// (PageRank's degree).
func (shape *bodyShape) bindAttrs(db *edb.DB) error {
	n := shape.g.NumVertices()
	for _, attrs := range [][]attrCol{shape.srcAttrs, shape.dstAttrs} {
		for i := range attrs {
			col, err := db.VertexColumn(attrs[i].pred, n, 0)
			if err != nil {
				return err
			}
			attrs[i].col = col
		}
	}
	return nil
}

// colSlot binds a scratch slot to a live attribute column.
type colSlot struct {
	slot int
	col  []float64
}

// propLayout is the scratch-slot layout of the compiled propagation
// expressions: slot 0 is the propagated value, then the edge weight,
// then the source- and destination-keyed attribute columns. edgeVars
// are the variables that change from edge to edge along a row: the
// weight and the destination attributes.
type propLayout struct {
	slots            map[string]int
	edgeVars         map[string]bool
	weightVar        string // "" if the body binds none
	weightSlot       int
	srcCols, dstCols []colSlot
	nslots           int
}

// layoutSlots computes the slot layout for the recursive body. The
// returned colSlots reference the live column slices in shape, so a
// kernel built over them reads whatever the columns hold at call time.
func layoutSlots(rec *analyzer.RecInfo, shape *bodyShape) propLayout {
	lay := propLayout{slots: map[string]int{rec.ValueVar: 0}, edgeVars: map[string]bool{},
		weightVar: shape.weightVar, weightSlot: -1}
	next := 1
	if shape.weightVar != "" {
		lay.weightSlot = next
		lay.slots[shape.weightVar] = next
		lay.edgeVars[shape.weightVar] = true
		next++
	}
	for _, a := range shape.srcAttrs {
		lay.slots[a.varName] = next
		lay.srcCols = append(lay.srcCols, colSlot{next, a.col})
		next++
	}
	for _, a := range shape.dstAttrs {
		lay.slots[a.varName] = next
		lay.edgeVars[a.varName] = true
		lay.dstCols = append(lay.dstCols, colSlot{next, a.col})
		next++
	}
	lay.nslots = next
	return lay
}

// Describe reports how the program's F' will be evaluated along a row —
// its kernel class and hoisted residual — from the program text alone.
func Describe(info *analyzer.Info) (KernelDesc, error) {
	shape, err := recShape(info)
	if err != nil {
		return KernelDesc{}, err
	}
	return describe(info.Rec.FPrime, layoutSlots(info.Rec, shape)), nil
}

// compilePropagation builds the plan's two kernels — F' for the MRA
// modes, the un-split F for naive evaluation — and their per-edge
// adapters.
func compilePropagation(p *Plan, shape *bodyShape) error {
	rec := p.Info.Rec
	lay := layoutSlots(rec, shape)

	// Reject free variables that nothing binds.
	for _, v := range rec.F.Vars() {
		if _, ok := lay.slots[v]; !ok {
			return errf("variable %s in the recursive expression is not bound by any predicate", v)
		}
	}

	var err error
	if p.Kernel, err = newKernel(describe(rec.FPrime, lay), p.Graph, lay, p.PairKeys); err != nil {
		return err
	}
	if p.FullKernel, err = newKernel(describe(rec.F, lay), p.Graph, lay, p.PairKeys); err != nil {
		return err
	}
	n := max(p.Kernel.scratchLen(), p.FullKernel.scratchLen())
	p.NewScratch = func() []float64 { return make([]float64, n) }
	p.PropagateInto = p.Kernel.Propagate
	p.PropagateFullInto = p.FullKernel.Propagate
	return nil
}

// ensureNodeRelation synthesises node(v) for v in [0,n) when absent, so
// programs can quantify over all vertices.
func ensureNodeRelation(db *edb.DB, n int) {
	if db.HasPred("node") {
		return
	}
	r := edb.NewRelation("node", 1)
	for v := 0; v < n; v++ {
		r.Add(float64(v))
	}
	db.AddRelation(r)
}
