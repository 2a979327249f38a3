package analyzer

import (
	"fmt"

	"powerlog/internal/agg"
	"powerlog/internal/ast"
	"powerlog/internal/expr"
	"powerlog/internal/smt"
)

// Facts is everything the system decides about F' from the program text
// alone, decided once at the end of Analyze (DESIGN.md "Program facts").
// The analyzer's C split, the checker's monotone-distribution lemma, the
// compiler's kernels and delete guard and the runtime's schedule all read
// this value; none of them looks at F' again. What a licence still owes
// to the data (Premise) is checked where the data is: compiler.Plan and
// compiler.Kernel.
type Facts struct {
	Selective bool
	Value     string // v, the variable bound to the recursive value

	// F' = A·v + B in the recursive value v, A and B simplified and free
	// of v, with their signs under the asserted variable domains. Affine
	// is false when F' uses v any other way; A and B are then nil.
	Affine       bool
	A, B         *expr.Expr
	SignA, SignB smt.Sign
	// Split: under a combining aggregate B left F' for the constant part
	// C (RecInfo.CRec), so B is 0 here.
	Split bool

	// Shape is the propagation structure of the recursive body, nil when
	// the body has none the engine can run; ShapeErr then says why, and
	// there are no kernels.
	Shape    *Shape
	ShapeErr string
	// Kernel is how F' is evaluated along a CSR row (Shape.Describe).
	Kernel KernelDesc

	Deletes, Schedule Licence
}

// Licence is one thing the program is allowed, or why it is not.
type Licence struct {
	Kind    string // one of the constants below
	Premise string // what the data must still satisfy; "" when nothing is owed
	Reason  string
}

// Delete licences (DESIGN.md §10) and schedule licences (§5b).
const (
	DeleteStrict   = "strict"   // F' strictly increasing in v: the support closure is exact
	DeleteDiscount = "discount" // max over a·v, 0 <= a <= 1: values only fall along a derivation
	DeleteLinear   = "linear"   // combining, affine: a batch is (A_new − A_old)·x and Δb
	DeleteRefused  = "refused"
	SchedBucket    = "bucket" // delta-stepping over v + w
	SchedFIFO      = "fifo"
)

// String renders "kind [if premise] — reason".
func (l Licence) String() string {
	if l.Premise != "" {
		return l.Kind + " if " + l.Premise + " — " + l.Reason
	}
	return l.Kind + " — " + l.Reason
}

// String renders the facts block plcheck prints.
func (f *Facts) String() string {
	affine := fmt.Sprintf("no: F' does not use %s as a·%s + b", f.Value, f.Value)
	if f.Affine {
		affine = fmt.Sprintf("F' = (%s)·%s + (%s); coefficient %s, offset %s", f.A, f.Value, f.B, f.SignA, f.SignB)
	}
	kernel := "none: " + f.ShapeErr
	if f.Shape != nil {
		kernel = fmt.Sprintf("%s, per edge: %s", f.Kernel.Class, f.Kernel)
	}
	return fmt.Sprintf("  affine    %s\n  aggregate %s\n  C split   %v\n  kernel    %s\n  deletes   %s\n  schedule  %s\n",
		affine, map[bool]string{true: "selective", false: "combining"}[f.Selective], f.Split, kernel, f.Deletes, f.Schedule)
}

// decide computes info.Facts and performs the C split it licenses. It
// runs last in Analyze: the signs need the harvested constraints.
func decide(info *Info) {
	rec := info.Rec
	f := &Facts{Selective: agg.ByKind(info.Agg).Selective(), Value: rec.ValueVar}
	info.Facts = f

	a, b, ok := expr.AffineIn(rec.F, rec.ValueVar)
	if ok {
		f.Affine, f.A, f.B = true, expr.Simplify(a), expr.Simplify(b)
		// A combining aggregate's F = F' + C with F' linear in v.
		if zero := f.B.Kind == expr.KNum && f.B.Val == 0; !f.Selective && !zero {
			rec.FPrime = expr.Simplify(expr.Mul(a, expr.Var(rec.ValueVar)))
			rec.CRec, f.Split, f.B = f.B, true, expr.Num(0)
		}
		f.SignA, f.SignB = smt.SignOf(f.A, info.Constraints), smt.SignOf(f.B, info.Constraints)
	}
	f.Deletes = deleteLicence(info, f)

	shape, err := resolveShape(info)
	if err != nil {
		f.ShapeErr, f.Schedule = err.Error(), Licence{Kind: SchedFIFO, Reason: "the body has no propagation structure"}
		return
	}
	f.Shape, f.Kernel = shape, shape.Describe(rec.FPrime)
	f.Schedule = scheduleLicence(info, f)
}

// deleteLicence says whether a session may take inputs away (DESIGN.md
// §10). The support closure of a selective delete judges a key by the
// value it ended with, so every best derivation has to run through best
// values. F' = min(v,w) breaks that: a key can owe its value to a worse
// value of its own that went round a cycle, and the deleted edge that
// fed the worse value no longer looks like a supporter.
func deleteLicence(info *Info, f *Facts) Licence {
	fp, v, one := info.Rec.FPrime, info.Rec.ValueVar, expr.Num(1)
	switch {
	case !f.Selective && f.Affine:
		return Licence{Kind: DeleteLinear, Reason: fmt.Sprintf("F' = %s is linear in %s, so a batch is corrected by the difference of its old and new contributions", fp, v)}
	case !f.Selective:
		return Licence{Kind: DeleteRefused, Reason: fmt.Sprintf("F' = %s is not linear in %s, so a contribution cannot be taken back", fp, v)}
	case f.SignA == smt.SignPos:
		return Licence{Kind: DeleteStrict, Reason: fmt.Sprintf("F' is strictly increasing in %s: its coefficient %s is %s", v, f.A, f.SignA)}
	case f.Affine && info.Agg == agg.Max && f.SignB == smt.SignZero && f.SignA.NonNegative() &&
		smt.ProveEq(expr.Call("max", f.A, one), one, info.Constraints).Verdict == smt.Valid:
		// Values only fall along a derivation (Viterbi, zero-probability
		// transitions included) while they start >= 0.
		return Licence{Kind: DeleteDiscount, Premise: "every ΔX¹ value is >= 0",
			Reason: fmt.Sprintf("max over %s·%s with 0 <= %s <= 1 never improves on a value >= 0", f.A, v, f.A)}
	}
	return Licence{Kind: DeleteRefused, Reason: fmt.Sprintf(
		"F' = %s is neither strictly increasing in %s nor a discount (max over a·%s, 0 <= a <= 1)", fp, v, v)}
}

// scheduleLicence says whether the runtime may drain near keys first
// (DESIGN.md §5b). The premise is Dijkstra's: F' is v + w with v the
// recursive value itself, under a selective aggregate, and no edge
// improves on the value it carries. Then a key can only be beaten through
// a key that is already better, so the near end of a frontier is nearly
// final and the far end a guess. With an improving edge the best key is
// the one most likely to improve again, and draining best-first
// re-relaxes everything behind it: longest path on a 1 500-vertex DAG
// went from 238 supersteps to over 10 000.
func scheduleLicence(info *Info, f *Facts) Licence {
	w := f.Shape.WeightVar
	switch {
	case !f.Selective:
		return Licence{Kind: SchedFIFO, Reason: fmt.Sprintf("%s combines: no value is final before the fixpoint", info.Agg)}
	case !f.Affine || w == "" || f.A.Kind != expr.KNum || f.A.Val != 1 || f.B.Kind != expr.KVar || f.B.Name != w:
		return Licence{Kind: SchedFIFO, Reason: fmt.Sprintf("F' = %s is not the recursive value plus the edge weight", info.Rec.FPrime)}
	}
	rel := map[bool]string{true: "<=", false: ">="}[info.Agg == agg.Max]
	return Licence{Kind: SchedBucket, Premise: fmt.Sprintf("no %s improves on the value it carries (every %s %s 0)", w, w, rel),
		Reason: fmt.Sprintf("F' = %s is the recursive value plus the edge weight", info.Rec.FPrime)}
}

// Attr is an attribute predicate of the recursive body: Pred(key, Var).
type Attr struct{ Var, Pred string }

// Shape is the propagation structure of the recursive body, resolved
// from the program text alone: the join (edge) predicate, its
// orientation, the weight variable, and which side each attribute
// predicate is keyed by.
type Shape struct {
	Join *ast.Pred // the join predicate occurrence
	// Reversed: the body is an in-neighbor formulation, join(dst, src).
	Reversed bool

	WeightVar string // edge-weight variable, "" if none

	SrcAttrs, DstAttrs []Attr // read at the propagation source / destination

	edgeVars map[string]bool
}

// EdgeVar reports whether name changes from edge to edge along a row:
// the weight and the destination attributes do.
func (s *Shape) EdgeVar(name string) bool { return s.edgeVars[name] }

func resolveShape(info *Info) (*Shape, error) {
	rec := info.Rec
	shape := &Shape{}

	// The propagated head key var: the head key not present in rec keys.
	recKeySet := map[string]bool{}
	for _, v := range rec.RecKeyVars {
		recKeySet[v] = true
	}
	var propagated string
	for _, v := range info.KeyVars {
		if !recKeySet[v] {
			if propagated != "" {
				return nil, fmt.Errorf("more than one propagated key (%s and %s)", propagated, v)
			}
			propagated = v
		}
	}
	if propagated == "" {
		return nil, fmt.Errorf("head keys %v all pass through; no propagation structure", info.KeyVars)
	}
	if len(info.KeyVars) == 2 && info.KeyVars[1] != propagated {
		return nil, fmt.Errorf("pair-keyed plans must propagate on the second key; head keys %v propagate %s", info.KeyVars, propagated)
	}

	// Find the join predicate: mentions the propagated var and a rec key.
	var join *ast.Pred
	srcVar := "" // the rec key var that joins the edge's source side; propagated the destination's
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
				return nil, fmt.Errorf("ambiguous join: both %s and %s connect the keys", join.Name, p.Name)
			}
			join = p
			srcVar = recVar
		}
	}
	if join == nil {
		return nil, fmt.Errorf("no predicate joins a recursive key to head key %s", propagated)
	}

	// Orientation: arg positions of src and dst vars.
	srcPos, dstPos := -1, -1
	for i, t := range join.Args {
		if t.Kind != ast.TermVar {
			continue
		}
		switch t.Var {
		case srcVar:
			srcPos = i
		case propagated:
			dstPos = i
		default:
			if i >= 2 && shape.WeightVar == "" {
				shape.WeightVar = t.Var
			}
		}
	}
	switch {
	case srcPos == 0 && dstPos == 1:
	case srcPos == 1 && dstPos == 0:
		shape.Reversed = true
	default:
		return nil, fmt.Errorf("join predicate %s must bind keys in its first two arguments", join.Name)
	}
	shape.Join, shape.edgeVars = join, map[string]bool{}
	if shape.WeightVar != "" {
		shape.edgeVars[shape.WeightVar] = true
	}

	// The remaining aux predicates are attributes: binary-style preds
	// keyed by the propagation source or destination.
	for _, p := range rec.Aux {
		if p == join {
			continue
		}
		if len(p.Args) < 2 {
			return nil, fmt.Errorf("attribute predicate %s needs (key, value) arguments", p.Name)
		}
		keyT, valT := p.Args[0], p.Args[1]
		if keyT.Kind != ast.TermVar || valT.Kind != ast.TermVar {
			return nil, fmt.Errorf("attribute predicate %s must bind plain variables", p.Name)
		}
		a := Attr{Var: valT.Var, Pred: p.Name}
		switch keyT.Var {
		case srcVar:
			shape.SrcAttrs = append(shape.SrcAttrs, a)
		case propagated:
			shape.DstAttrs = append(shape.DstAttrs, a)
			shape.edgeVars[a.Var] = true
		default:
			return nil, fmt.Errorf("attribute predicate %s keyed by %s, which is neither the propagation source %s nor destination %s",
				p.Name, keyT.Var, srcVar, propagated)
		}
	}
	return shape, nil
}

// The unit of propagation is a CSR row, not an edge (DESIGN.md §9).
// Draining key k with delta δ applies F' along k's out-edges; of F's
// inputs only the edge weight and destination-keyed attributes change
// from edge to edge, so everything else is evaluated once per drained
// row and the rest — the residual — is classified by shape.

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

// KernelDesc says how a propagation expression is evaluated along a row:
// the residual computed per edge, over the hoisted subtrees computed once
// per drained row.
type KernelDesc struct {
	Class    Class
	Residual *expr.Expr
	Hoisted  []*expr.Expr // Hoisted[i] is the value of expr.HoistVar(i)

	Scalar *expr.Expr // typed classes: the row scalar's own subtree
}

// String renders the residual and, after "with", each hoisted binding.
func (d KernelDesc) String() string {
	s, sep := d.Residual.String(), " with "
	for i, h := range d.Hoisted {
		s += sep + expr.HoistVar(i) + " = " + h.String()
		sep = ", "
	}
	return s
}

// Describe hoists the subtrees of f that hold still along a row — they
// mention none of the shape's edge variables — and classifies what is
// left.
func (shape *Shape) Describe(f *expr.Expr) KernelDesc {
	var d KernelDesc
	d.Residual, d.Hoisted = f.Hoist(shape.EdgeVar)
	scalar := func(e *expr.Expr) bool { // a leaf that holds still along the row
		return e.Kind == expr.KNum || e.Kind == expr.KVar && !shape.EdgeVar(e.Name)
	}
	switch r := d.Residual; {
	case scalar(r):
		d.Class, d.Scalar = RowConst, r
	case r.Kind == expr.KAdd || r.Kind == expr.KMul:
		s, w := r.Args[0], r.Args[1]
		if scalar(w) {
			s, w = w, s // IEEE + and · commute: either order is the same loop
		}
		if !scalar(s) || w.Kind != expr.KVar || w.Name != shape.WeightVar {
			break
		}
		d.Class, d.Scalar = AddW, s
		if r.Kind == expr.KMul {
			d.Class = MulW
		}
	}
	for i, h := range d.Hoisted {
		if d.Scalar != nil && d.Scalar.Kind == expr.KVar && d.Scalar.Name == expr.HoistVar(i) {
			d.Scalar = h // one closure call per row, not a slot read behind a hoist
		}
	}
	return d
}
