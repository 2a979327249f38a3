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
	if info.Facts.Shape == nil {
		return nil, errf("%s", info.Facts.ShapeErr)
	}
	shape := &bodyShape{Shape: info.Facts.Shape}
	if err := shape.bindGraph(db); err != nil {
		return nil, err
	}
	p.Graph = shape.g
	p.N = shape.g.NumVertices()
	p.fold.n = p.N
	ensureNodeRelation(db, p.N)

	// Record which supporting relations the compiler materialises (vs.
	// relations the database already provided): those are the ones a
	// base-fact mutation must re-derive, because they may read the graph.
	materialised := func(rules []*ast.Rule) (heads []string) {
		for _, r := range rules {
			if !db.HasPred(r.Head.Name) {
				heads = append(heads, r.Head.Name)
			}
		}
		return heads
	}
	shape.otherHeads = materialised(info.OtherRules)
	shape.derivedHeads = materialised(info.DerivedRules)

	if err := evalViews(p); err != nil {
		return nil, err
	}
	if err := shape.bindAttrs(db); err != nil {
		return nil, err
	}
	p.shape = shape

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
	if info.Facts.Schedule.Kind == analyzer.SchedBucket {
		p.Kernel.bindStep(p.Op.Kind() == agg.Max, shape.base)
	}
	return p, nil
}

// bodyShape is the program's propagation structure (analyzer.Shape)
// bound to a database.
type bodyShape struct {
	*analyzer.Shape
	g *graph.Graph

	// base is the graph as registered in the database; g == base unless
	// the body is an in-neighbor formulation (Reversed), in which case g
	// is a transposed copy. A session mutation must be applied to both.
	base *graph.Graph

	// otherHeads/derivedHeads name the supporting relations the compiler
	// materialised (view rules and aggregate views such as PageRank's
	// degree). They may read the graph, so a base-fact mutation drops and
	// re-derives them.
	otherHeads   []string
	derivedHeads []string

	srcAttrs []attrCol // columns read at the propagation source
	dstAttrs []attrCol // columns read at the destination
}

type attrCol struct {
	varName string
	pred    string // relation the column is loaded from (for re-loading after a mutation)
	col     []float64
}

// bindGraph finds the join predicate's graph in the database and orients
// it: an in-neighbor formulation propagates over a transposed copy.
func (shape *bodyShape) bindGraph(db *edb.DB) error {
	g, ok := db.Graph(shape.Join.Name)
	if !ok {
		return errf("join predicate %q is not registered as a graph", shape.Join.Name)
	}
	shape.base, shape.g = g, g
	if shape.Reversed {
		shape.g = g.Reverse()
	}
	return nil
}

// bindAttrs loads the attribute columns. It runs after the supporting
// rules have been evaluated, since a column may be one of their heads
// (PageRank's degree).
func (shape *bodyShape) bindAttrs(db *edb.DB) error {
	for _, side := range []struct {
		attrs []analyzer.Attr
		cols  *[]attrCol
	}{{shape.SrcAttrs, &shape.srcAttrs}, {shape.DstAttrs, &shape.dstAttrs}} {
		for _, a := range side.attrs {
			col, err := db.VertexColumn(a.Pred, shape.g.NumVertices(), 0)
			if err != nil {
				return err
			}
			*side.cols = append(*side.cols, attrCol{a.Var, a.Pred, col})
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
// then the source- and destination-keyed attribute columns.
type propLayout struct {
	slots            map[string]int
	weightSlot       int
	srcCols, dstCols []colSlot
	nslots           int
}

// layoutSlots computes the slot layout for the recursive body. The
// returned colSlots reference the live column slices in shape, so a
// kernel built over them reads whatever the columns hold at call time.
func layoutSlots(rec *analyzer.RecInfo, shape *bodyShape) propLayout {
	lay := propLayout{slots: map[string]int{rec.ValueVar: 0}, weightSlot: -1}
	next := 1
	if shape.WeightVar != "" {
		lay.weightSlot = next
		lay.slots[shape.WeightVar] = next
		next++
	}
	for _, a := range shape.srcAttrs {
		lay.slots[a.varName] = next
		lay.srcCols = append(lay.srcCols, colSlot{next, a.col})
		next++
	}
	for _, a := range shape.dstAttrs {
		lay.slots[a.varName] = next
		lay.dstCols = append(lay.dstCols, colSlot{next, a.col})
		next++
	}
	lay.nslots = next
	return lay
}

// compilePropagation builds the plan's two kernels — F' for the MRA
// modes, the un-split F for naive evaluation — as the program's facts
// describe them, and their per-edge adapters.
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
	if p.Kernel, err = newKernel(p.Info.Facts.Kernel, p.Graph, lay, p.PairKeys); err != nil {
		return err
	}
	if p.FullKernel, err = newKernel(shape.Describe(rec.F), p.Graph, lay, p.PairKeys); err != nil {
		return err
	}
	n := max(p.Kernel.scratchLen(), p.FullKernel.scratchLen())
	p.NewScratch = func() []float64 { return make([]float64, n) }
	p.PropagateInto = p.Kernel.Propagate
	p.PropagateFullInto = p.FullKernel.Propagate
	return nil
}

// ensureNodeRelation registers node(v) for v in [0,n), a range, when
// absent, so programs can quantify over all vertices.
func ensureNodeRelation(db *edb.DB, n int) {
	if !db.HasPred("node") {
		db.AddRelation(edb.NewRange("node", n))
	}
}
