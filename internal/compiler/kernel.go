package compiler

import (
	"fmt"

	"powerlog/internal/analyzer"
	"powerlog/internal/expr"
	"powerlog/internal/graph"
	"powerlog/internal/monotable"
)

// Kernel evaluates one propagation expression (F' or F) along the rows
// of the plan's graph. It reads the live CSR and the live attribute
// columns at call time — a session mutation moves both — so nothing is
// precomputed per vertex. A Kernel is immutable and safe for concurrent
// use; callers bring one scratch (Plan.NewScratch) per goroutine.
type Kernel struct {
	desc analyzer.KernelDesc
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
	form  monotable.Form // the class's, on a weighted row

	// step, stepSign and stepWhy: see Step. Written when the plan is
	// compiled and by a session's mutation, which runs while no pass does.
	step, stepSign float64
	stepWhy        string
	named          *graph.Graph // the graph as the program names it: g, or what g transposes
}

type hoist struct {
	slot int
	fn   func([]float64) float64
}

// Desc reports the kernel's class, residual and hoisted subtrees.
func (k *Kernel) Desc() analyzer.KernelDesc { return k.desc }

// Step is the bucket width of the runtime's delta-stepping schedule
// (DESIGN.md §5b) for the plan's F' kernel, or 0 when the program has no
// bucket licence (analyzer.Facts.Schedule) or the graph as it stands
// fails the licence's premise: no edge improves on the value it carries —
// every w ≥ 0 under min, every w ≤ 0 under max. StepWhy then names the
// edge.
//
// The width is the mean |w| — how far a value moves along a typical edge
// — summed when the plan is compiled. A session's mutations do not move
// it while it is positive, except that an improving insert ends the
// premise; while it is 0 each mutation reads the weights again (noteMutation).
func (k *Kernel) Step() float64 { return k.step }

// StepWhy says which part of the bucket licence's premise the data
// failed, while Step is 0 for a program that holds the licence.
func (k *Kernel) StepWhy() string { return k.stepWhy }

// bindStep takes up the program's bucket licence and reads Step from the
// graph as it stands. stepSign is the sign no weight may contradict: +1,
// every w ≥ 0, under min; −1 under max.
func (k *Kernel) bindStep(max bool, named *graph.Graph) {
	k.stepSign, k.named = 1, named
	if max {
		k.stepSign = -1
	}
	k.readStep()
}

// improves reports whether an edge of weight w breaks the premise.
func (k *Kernel) improves(w float64) bool { return !(k.stepSign*w >= 0) }

// check ends the premise on the first of edges that breaks it.
func (k *Kernel) check(edges []graph.Edge) {
	for _, e := range edges {
		if k.improves(e.W) {
			k.step, k.stepWhy = 0, fmt.Sprintf("edge %d→%d weighs %v, which improves on the value it carries", e.Src, e.Dst, e.W)
			return
		}
	}
}

// readStep is one pass over the graph's weights, and another, to name
// the edge, when they fail the premise.
func (k *Kernel) readStep() {
	lo, hi, mean := k.named.WeightStats()
	k.step, k.stepWhy = mean, ""
	switch {
	case mean == 0:
		k.stepWhy = "no edge has a non-zero weight, so there is no bucket width"
	case k.improves(lo) || k.improves(hi):
		if e, ok := k.named.FindEdge(k.improves); ok {
			k.check([]graph.Edge{e})
		}
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
	case k.named.Weighted():
		k.check(inserts)
	}
}

// forms is the form of a typed class's rows.
var forms = [...]monotable.Form{analyzer.RowConst: monotable.Const, analyzer.AddW: monotable.AddW, analyzer.MulW: monotable.MulW}

// newKernel compiles an expression, evaluated as d describes it, over
// the layout; hoisted subtrees take the scratch slots from lay.nslots on.
func newKernel(d analyzer.KernelDesc, g *graph.Graph, lay propLayout, pair bool) (*Kernel, error) {
	k := &Kernel{desc: d, g: g, lay: lay, pair: pair, nvars: lay.nslots + len(d.Hoisted)}
	var err error
	if d.Class != analyzer.Generic {
		k.form = forms[d.Class]
		k.s, err = d.Scalar.Compile(lay.slots)
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
// was evaluated once for it. Along a row of any form but Given, edge i
// carries what Form makes of S and Weights[i]; on an unweighted graph
// that is the same value on every edge, so the form is Const.
type Row struct {
	Targets []int32
	Weights []float64 // nil on an unweighted graph: every weight is 1
	// Hi is OR-ed into each target to form the emitted key: the
	// pass-through key of a pair-keyed plan, shifted into place, else 0.
	Hi   int64
	Form monotable.Form // Given: the values are Fill's
	S    float64        // the row scalar
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
		r.Form, r.S = k.form, k.s(scratch)
	}
	switch {
	case r.Weights != nil:
	case r.Form == monotable.AddW:
		r.Form, r.S = monotable.Const, r.S+1
	case r.Form == monotable.MulW:
		r.Form = monotable.Const // s · 1 is s, bit for bit
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
// meets an edge: one loop per form. A direct pass folds a typed row
// without it (monotable.Sink), from r.S and the weights.
func (k *Kernel) Fill(scratch []float64, r Row, lo int) []float64 {
	n := min(FillChunk, len(r.Targets)-lo)
	out := scratch[k.nvars : k.nvars+n]
	weights := r.Weights
	if weights != nil {
		weights = weights[lo : lo+n]
	}
	switch r.Form {
	case monotable.Const:
		for i := range out {
			out[i] = r.S
		}
	case monotable.AddW:
		for i, w := range weights {
			out[i] = r.S + w
		}
	case monotable.MulW:
		for i, w := range weights {
			out[i] = r.S * w
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
