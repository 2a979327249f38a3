package compiler

import (
	"strings"

	"powerlog/internal/agg"
	"powerlog/internal/expr"
	"powerlog/internal/graph"
)

// The unit of propagation is a CSR row, not an edge (DESIGN.md §9).
// Draining key k with delta δ applies F' along k's out-edges; of F's
// inputs only the edge weight and destination-keyed attributes change
// from edge to edge, so everything else is evaluated once per drained
// row and the rest — the residual — is classified by shape. A Kernel is
// that evaluator; Plan.PropagateInto is its per-edge adapter and the
// runtime's compute pass its row-level consumer.

// Class names the shape of a propagation expression's per-edge residual.
type Class uint8

// Kernel classes. s stands for the row scalar: an operand that mentions
// neither the edge weight nor a destination attribute.
const (
	Generic  Class = iota // anything else: the residual closure, once per edge
	RowConst              // s
	AddW                  // s + w
	MulW                  // s · w
)

var classNames = [...]string{"generic", "rowconst", "addw", "mulw"}

func (c Class) String() string { return classNames[c] }

// KernelDesc says how a program's propagation expression is evaluated
// along a row: the residual computed per edge, over the hoisted
// subtrees computed once per drained row.
type KernelDesc struct {
	Class    Class
	Residual *expr.Expr
	Hoisted  []*expr.Expr // Hoisted[i] is the value of expr.HoistVar(i)

	scalar *expr.Expr // typed classes: the row scalar's own subtree
}

// String renders the residual and, after "with", each hoisted binding.
func (d KernelDesc) String() string {
	var b strings.Builder
	b.WriteString(d.Residual.String())
	for i, h := range d.Hoisted {
		if i == 0 {
			b.WriteString(" with ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(expr.HoistVar(i) + " = " + h.String())
	}
	return b.String()
}

// describe hoists the subtrees of f that hold still along a row — they
// mention none of the layout's edge variables — and classifies what is
// left.
func describe(f *expr.Expr, lay propLayout) KernelDesc {
	var d KernelDesc
	d.Residual, d.Hoisted = f.Hoist(func(name string) bool { return lay.edgeVars[name] })
	scalar := func(e *expr.Expr) bool { // a leaf that holds still along the row
		return e.Kind == expr.KNum || e.Kind == expr.KVar && !lay.edgeVars[e.Name]
	}
	switch r := d.Residual; {
	case scalar(r):
		d.Class, d.scalar = RowConst, r
	case r.Kind == expr.KAdd || r.Kind == expr.KMul:
		s, w := r.Args[0], r.Args[1]
		if scalar(w) {
			s, w = w, s // IEEE + and · commute: either order is the same loop
		}
		if !scalar(s) || w.Kind != expr.KVar || w.Name != lay.weightVar {
			break
		}
		d.Class, d.scalar = AddW, s
		if r.Kind == expr.KMul {
			d.Class = MulW
		}
	}
	for i, h := range d.Hoisted {
		if d.scalar != nil && d.scalar.Kind == expr.KVar && d.scalar.Name == expr.HoistVar(i) {
			d.scalar = h // one closure call per row, not a slot read behind a hoist
		}
	}
	return d
}

// Kernel evaluates one propagation expression (F' or F) along the rows
// of the plan's graph. It reads the live CSR and the live attribute
// columns at call time — a session mutation moves both — so nothing is
// precomputed per vertex. A Kernel is immutable and safe for concurrent
// use; callers bring one scratch (Plan.NewScratch) per goroutine.
type Kernel struct {
	desc KernelDesc
	g    *graph.Graph
	lay  propLayout
	pair bool

	// Typed classes: s computes the row scalar. Generic: hoists fill
	// their scratch slots once per row, then edge computes the residual.
	s      func([]float64) float64
	hoists []hoist
	edge   func([]float64) float64

	// nvars is how many scratch slots the expression's variables and
	// hoisted subtrees take; Fill's chunk of values sits behind them.
	nvars int

	// step and stepSign: see Step. Written when the plan is compiled and
	// by a session's mutation, which runs while no pass does.
	step, stepSign float64
}

type hoist struct {
	slot int
	fn   func([]float64) float64
}

// Desc reports the kernel's class, residual and hoisted subtrees.
func (k *Kernel) Desc() KernelDesc { return k.desc }

// Step is the bucket width of the runtime's delta-stepping schedule
// (DESIGN.md §5b) for the plan's F' kernel, or 0 when its premise fails.
// The premise is Dijkstra's: F' is v + w with v the recursive value
// itself, under a selective aggregate, and no edge improves on the value
// it carries — every w ≥ 0 under min, every w ≤ 0 under max. Then a key
// can only be beaten through a key that is already better, so the near
// end of a frontier is nearly final and the far end a guess. With an
// improving edge the best key is the one most likely to improve again,
// and draining best-first re-relaxes everything behind it: longest path
// on a 1 500-vertex DAG went from 238 supersteps to over 10 000.
//
// The plan must also stop at a fixpoint. An ε stop reads the change of
// one round as a bound on what remains, which is true of a round that
// folds the whole dirty set and false of one that folds its near end:
// ε-SSSP under BSP stopped with reachable keys still held.
//
// The width is the mean |w| — how far a value moves along a typical edge
// — summed when the plan is compiled. A session's mutations do not move
// it while it is positive, except that an improving insert ends the
// premise; while it is 0 each mutation reads the weights again (noteMutation).
func (k *Kernel) Step() float64 { return k.step }

// MayStep reports the half of Step's premise the program decides: whether
// the graph's weights may ever give it a Step.
func (k *Kernel) MayStep() bool { return k.stepSign != 0 }

// bindStep decides MayStep from the program and Step from the graph as it
// stands. stepSign is the sign no weight may contradict: +1, every w ≥ 0,
// under min; −1 under max.
func (k *Kernel) bindStep(op *agg.Op, valueVar string, fixpoint bool) {
	s := k.desc.scalar
	switch {
	case !fixpoint || !op.Selective() || k.desc.Class != AddW || s.Kind != expr.KVar || s.Name != valueVar:
		return // not a program for buckets: the graph is not read
	case op.Kind() == agg.Max:
		k.stepSign = -1
	default:
		k.stepSign = 1
	}
	k.readStep()
}

// readStep is one pass over the graph's weights.
func (k *Kernel) readStep() {
	k.step = 0
	lo, hi, mean := k.g.WeightStats()
	if k.stepSign*lo >= 0 && k.stepSign*hi >= 0 {
		k.step = mean
	}
}

// noteMutation keeps Step true to a graph a session has just mutated. A
// positive Step ends with an inserted edge that improves on the value it
// carries. A Step of 0 may begin: the graph was empty or its weights all
// zero and it gained edges, or the improving edge is gone. That reads
// every weight again, once per mutation for as long as the premise fails.
func (k *Kernel) noteMutation(inserts []graph.Edge) {
	switch {
	case k.stepSign == 0:
	case k.step == 0:
		k.readStep()
	case k.g.Weighted():
		for _, e := range inserts {
			if !(k.stepSign*e.W >= 0) {
				k.step = 0
				return
			}
		}
	}
}

// newKernel compiles an expression, evaluated as d describes it, over
// the layout; hoisted subtrees take the scratch slots from lay.nslots on.
func newKernel(d KernelDesc, g *graph.Graph, lay propLayout, pair bool) (*Kernel, error) {
	k := &Kernel{desc: d, g: g, lay: lay, pair: pair, nvars: lay.nslots + len(d.Hoisted)}
	var err error
	if d.Class != Generic {
		k.s, err = d.scalar.Compile(lay.slots)
		return k, err
	}
	slots := make(map[string]int, len(lay.slots)+len(d.Hoisted))
	for v, i := range lay.slots {
		slots[v] = i
	}
	for i, h := range d.Hoisted {
		fn, err := h.Compile(lay.slots)
		if err != nil {
			return nil, err
		}
		k.hoists = append(k.hoists, hoist{lay.nslots + i, fn})
		slots[expr.HoistVar(i)] = lay.nslots + i
	}
	k.edge, err = d.Residual.Compile(slots)
	return k, err
}

// Row is one key's propagation, opened: the CSR row it walks and what
// was evaluated once for it.
type Row struct {
	Targets []int32
	Weights []float64 // nil on an unweighted graph: every weight is 1
	// Hi is OR-ed into each target to form the emitted key: the
	// pass-through key of a pair-keyed plan, shifted into place, else 0.
	Hi int64
	s  float64
}

// Row opens key's row for a value arriving there: it loads the source
// attributes and evaluates everything that holds still along the row.
// An empty row (no out-edges, or a key outside the graph) evaluates
// nothing — a zero out-degree never reaches a divide.
func (k *Kernel) Row(scratch []float64, key int64, value float64) Row {
	var r Row
	src := key
	if k.pair {
		var hi int64
		hi, src = DecodePair(key)
		r.Hi = hi << 32
	}
	if src < 0 || src >= int64(k.g.NumVertices()) {
		return Row{}
	}
	r.Targets, r.Weights = k.g.Neighbors(int32(src))
	if len(r.Targets) == 0 {
		return r
	}
	scratch[0] = value
	for _, c := range k.lay.srcCols {
		scratch[c.slot] = c.col[src]
	}
	if k.s != nil {
		r.s = k.s(scratch)
	}
	for _, h := range k.hoists {
		scratch[h.slot] = h.fn(scratch)
	}
	return r
}

// FillChunk is how many edges of a row Fill evaluates at a time: the
// values of one chunk sit in the caller's scratch between Fill and the
// consumer's own loop, so a row of any degree costs no allocation.
const FillChunk = 128

// scratchLen is the scratch a caller of k must bring.
func (k *Kernel) scratchLen() int { return k.nvars + FillChunk }

// Fill computes what the expression yields along r's edges lo, lo+1, …
// — at most FillChunk of them — and returns the values, which live in
// scratch until the next call. This is the only place an expression
// meets an edge: one loop per class.
func (k *Kernel) Fill(scratch []float64, r Row, lo int) []float64 {
	n := min(FillChunk, len(r.Targets)-lo)
	out := scratch[k.nvars : k.nvars+n]
	weights := r.Weights
	if weights != nil {
		weights = weights[lo : lo+n]
	}
	switch k.desc.Class {
	case RowConst:
		fillConst(out, r.s)
	case AddW:
		if weights == nil {
			fillConst(out, r.s+1)
			break
		}
		for i, w := range weights {
			out[i] = r.s + w
		}
	case MulW:
		if weights == nil {
			fillConst(out, r.s) // s · 1 is s, bit for bit
			break
		}
		for i, w := range weights {
			out[i] = r.s * w
		}
	default:
		ws := k.lay.weightSlot
		if ws >= 0 {
			scratch[ws] = 1
		}
		for i, t := range r.Targets[lo : lo+n] {
			if ws >= 0 && weights != nil {
				scratch[ws] = weights[i]
			}
			for _, c := range k.lay.dstCols {
				scratch[c.slot] = c.col[t]
			}
			out[i] = k.edge(scratch)
		}
	}
	return out
}

func fillConst(out []float64, v float64) {
	for i := range out {
		out[i] = v
	}
}

// Propagate is the per-edge adapter over Row and Fill: it emits every
// dependent contribution of value arriving at key, in CSR order.
func (k *Kernel) Propagate(scratch []float64, key int64, value float64, emit func(dst int64, v float64)) {
	r := k.Row(scratch, key, value)
	for lo := 0; lo < len(r.Targets); lo += FillChunk {
		for i, v := range k.Fill(scratch, r, lo) {
			emit(r.Hi|int64(r.Targets[lo+i]), v)
		}
	}
}
