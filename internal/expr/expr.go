// Package expr defines the arithmetic expression IR shared by the Datalog
// analyzer, the MRA condition checker, and the execution engine.
//
// Expressions are built over real-valued variables and a small set of
// operators (+, -, *, /, unary minus) plus a handful of builtin functions
// (relu, abs, tanh, sigmoid) that recursive aggregate programs in the
// paper's catalogue use. An expression can be evaluated against an
// environment, compiled to a closure for the engine hot path, or handed to
// the symbolic prover in internal/smt.
package expr

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates expression nodes.
type Kind int

// Expression node kinds.
const (
	KNum  Kind = iota // numeric literal
	KVar              // variable reference
	KAdd              // binary +
	KSub              // binary -
	KMul              // binary *
	KDiv              // binary /
	KNeg              // unary -
	KCall             // builtin function call
)

// Expr is an immutable arithmetic expression tree.
type Expr struct {
	Kind Kind
	Val  float64 // KNum
	Name string  // KVar: variable name; KCall: function name
	Args []*Expr // operands (1 for KNeg, 2 for binary ops, n for KCall)
}

// Num returns a numeric literal node.
func Num(v float64) *Expr { return &Expr{Kind: KNum, Val: v} }

// Var returns a variable reference node.
func Var(name string) *Expr { return &Expr{Kind: KVar, Name: name} }

// Add returns a+b.
func Add(a, b *Expr) *Expr { return &Expr{Kind: KAdd, Args: []*Expr{a, b}} }

// Sub returns a-b.
func Sub(a, b *Expr) *Expr { return &Expr{Kind: KSub, Args: []*Expr{a, b}} }

// Mul returns a*b.
func Mul(a, b *Expr) *Expr { return &Expr{Kind: KMul, Args: []*Expr{a, b}} }

// Div returns a/b.
func Div(a, b *Expr) *Expr { return &Expr{Kind: KDiv, Args: []*Expr{a, b}} }

// Neg returns -a.
func Neg(a *Expr) *Expr { return &Expr{Kind: KNeg, Args: []*Expr{a}} }

// Call returns fn(args...). Supported builtins: relu, abs, tanh, sigmoid,
// min, max, exp, log, sqrt.
func Call(fn string, args ...*Expr) *Expr {
	return &Expr{Kind: KCall, Name: fn, Args: args}
}

// Builtin is one builtin function: Fn1 is set for arity 1, Fn2 for
// arity 2. Fixed-arity signatures keep a compiled call free of the
// argument slice a variadic shape would allocate per evaluation.
type Builtin struct {
	Arity int
	Fn1   func(x float64) float64
	Fn2   func(x, y float64) float64
}

// Builtins maps builtin function names to their arity and implementation.
var Builtins = map[string]Builtin{
	"relu":    {Arity: 1, Fn1: func(x float64) float64 { return math.Max(x, 0) }},
	"abs":     {Arity: 1, Fn1: math.Abs},
	"tanh":    {Arity: 1, Fn1: math.Tanh},
	"sigmoid": {Arity: 1, Fn1: func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }},
	"exp":     {Arity: 1, Fn1: math.Exp},
	"log":     {Arity: 1, Fn1: math.Log},
	"sqrt":    {Arity: 1, Fn1: math.Sqrt},
	"min":     {Arity: 2, Fn2: math.Min},
	"max":     {Arity: 2, Fn2: math.Max},
}

// Env binds variable names to values during evaluation.
type Env map[string]float64

// Eval evaluates e under env. Unknown variables evaluate to 0 and unknown
// functions panic; use Check before evaluating untrusted expressions.
func (e *Expr) Eval(env Env) float64 {
	switch e.Kind {
	case KNum:
		return e.Val
	case KVar:
		return env[e.Name]
	case KAdd:
		return e.Args[0].Eval(env) + e.Args[1].Eval(env)
	case KSub:
		return e.Args[0].Eval(env) - e.Args[1].Eval(env)
	case KMul:
		return e.Args[0].Eval(env) * e.Args[1].Eval(env)
	case KDiv:
		return e.Args[0].Eval(env) / e.Args[1].Eval(env)
	case KNeg:
		return -e.Args[0].Eval(env)
	case KCall:
		b, ok := Builtins[e.Name]
		if !ok {
			panic(fmt.Sprintf("expr: unknown builtin %q", e.Name))
		}
		if b.Arity == 1 {
			return b.Fn1(e.Args[0].Eval(env))
		}
		return b.Fn2(e.Args[0].Eval(env), e.Args[1].Eval(env))
	default:
		panic(fmt.Sprintf("expr: bad kind %d", e.Kind))
	}
}

// Check verifies that every builtin call in e is known and has the right
// arity, returning a descriptive error for the first violation.
func (e *Expr) Check() error {
	if e.Kind == KCall {
		b, ok := Builtins[e.Name]
		if !ok {
			return fmt.Errorf("expr: unknown builtin %q", e.Name)
		}
		if len(e.Args) != b.Arity {
			return fmt.Errorf("expr: builtin %q wants %d args, got %d", e.Name, b.Arity, len(e.Args))
		}
	}
	for _, a := range e.Args {
		if err := a.Check(); err != nil {
			return err
		}
	}
	return nil
}

// Vars returns the sorted set of free variable names in e.
func (e *Expr) Vars() []string {
	set := map[string]bool{}
	e.collectVars(set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func (e *Expr) collectVars(set map[string]bool) {
	if e.Kind == KVar {
		set[e.Name] = true
	}
	for _, a := range e.Args {
		a.collectVars(set)
	}
}

// HasVar reports whether variable name occurs free in e.
func (e *Expr) HasVar(name string) bool {
	if e.Kind == KVar && e.Name == name {
		return true
	}
	for _, a := range e.Args {
		if a.HasVar(name) {
			return true
		}
	}
	return false
}

// Subst returns a copy of e with every occurrence of variable name replaced
// by repl. Nodes that do not contain the variable are shared, not copied.
func (e *Expr) Subst(name string, repl *Expr) *Expr {
	if !e.HasVar(name) {
		return e
	}
	if e.Kind == KVar && e.Name == name {
		return repl
	}
	args := make([]*Expr, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.Subst(name, repl)
	}
	return &Expr{Kind: e.Kind, Val: e.Val, Name: e.Name, Args: args}
}

// Clone returns a deep copy of e.
func (e *Expr) Clone() *Expr {
	args := make([]*Expr, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.Clone()
	}
	return &Expr{Kind: e.Kind, Val: e.Val, Name: e.Name, Args: args}
}

// Compile lowers e to a closure over a flat variable slot layout: slots maps
// variable name to index into the argument slice. Compiling once and calling
// the closure per edge avoids tree-walking in the engine hot path.
func (e *Expr) Compile(slots map[string]int) (func(vals []float64) float64, error) {
	if err := e.Check(); err != nil {
		return nil, err
	}
	for _, v := range e.Vars() {
		if _, ok := slots[v]; !ok {
			return nil, fmt.Errorf("expr: variable %q has no slot", v)
		}
	}
	return e.compile(slots), nil
}

func (e *Expr) compile(slots map[string]int) func([]float64) float64 {
	switch e.Kind {
	case KNum:
		v := e.Val
		return func([]float64) float64 { return v }
	case KVar:
		i := slots[e.Name]
		return func(vals []float64) float64 { return vals[i] }
	case KAdd:
		a, b := e.Args[0].compile(slots), e.Args[1].compile(slots)
		return func(v []float64) float64 { return a(v) + b(v) }
	case KSub:
		a, b := e.Args[0].compile(slots), e.Args[1].compile(slots)
		return func(v []float64) float64 { return a(v) - b(v) }
	case KMul:
		a, b := e.Args[0].compile(slots), e.Args[1].compile(slots)
		return func(v []float64) float64 { return a(v) * b(v) }
	case KDiv:
		a, b := e.Args[0].compile(slots), e.Args[1].compile(slots)
		return func(v []float64) float64 { return a(v) / b(v) }
	case KNeg:
		a := e.Args[0].compile(slots)
		return func(v []float64) float64 { return -a(v) }
	case KCall:
		// Check has verified the arity, so the two fixed shapes cover
		// every builtin.
		b := Builtins[e.Name]
		x := e.Args[0].compile(slots)
		if b.Arity == 1 {
			fn := b.Fn1
			return func(v []float64) float64 { return fn(x(v)) }
		}
		y, fn := e.Args[1].compile(slots), b.Fn2
		return func(v []float64) float64 { return fn(x(v), y(v)) }
	default:
		panic("expr: bad kind")
	}
}

// String renders e in conventional infix notation with minimal parentheses.
func (e *Expr) String() string {
	var b strings.Builder
	e.write(&b, 0)
	return b.String()
}

// precedence levels: 1 add/sub, 2 mul/div, 3 unary.
func (e *Expr) write(b *strings.Builder, parent int) {
	prec := 0
	switch e.Kind {
	case KAdd, KSub:
		prec = 1
	case KMul, KDiv:
		prec = 2
	case KNeg:
		prec = 3
	default:
		// KNum, KVar, KCall render atomically and never need parens.
	}
	open := prec != 0 && prec < parent
	if open {
		b.WriteByte('(')
	}
	switch e.Kind {
	case KNum:
		b.WriteString(strconv.FormatFloat(e.Val, 'g', -1, 64))
	case KVar:
		b.WriteString(e.Name)
	case KAdd:
		e.Args[0].write(b, 1)
		b.WriteString(" + ")
		e.Args[1].write(b, 2)
	case KSub:
		e.Args[0].write(b, 1)
		b.WriteString(" - ")
		e.Args[1].write(b, 2)
	case KMul:
		e.Args[0].write(b, 2)
		b.WriteString(" * ")
		e.Args[1].write(b, 3)
	case KDiv:
		e.Args[0].write(b, 2)
		b.WriteString(" / ")
		e.Args[1].write(b, 3)
	case KNeg:
		b.WriteString("-")
		e.Args[0].write(b, 3)
	case KCall:
		b.WriteString(e.Name)
		b.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			a.write(b, 0)
		}
		b.WriteByte(')')
	}
	if open {
		b.WriteByte(')')
	}
}

// HoistVar names the i-th subtree Hoist cut out of an expression.
func HoistVar(i int) string { return "ǂh" + strconv.Itoa(i) }

// Hoist splits e for evaluation along a run of inputs on which only some
// variables change: varies reports those. Every maximal operator subtree
// that mentions no varying variable is cut out, appended to hoisted and
// replaced in the residual by the variable HoistVar(i), so a caller can
// evaluate hoisted[i] once per run and the residual once per input.
// Leaves stay where they are (a slot read or a constant is already as
// cheap as a hoisted variable), and no operator is moved or
// reassociated: residual, with each HoistVar(i) bound to hoisted[i]'s
// value, performs exactly the floating-point operations e performs.
func (e *Expr) Hoist(varies func(name string) bool) (residual *Expr, hoisted []*Expr) {
	var cut func(e *Expr) *Expr
	cut = func(e *Expr) *Expr {
		if len(e.Args) == 0 {
			return e
		}
		invariant := true
		for _, v := range e.Vars() {
			if varies(v) {
				invariant = false
				break
			}
		}
		if invariant {
			hoisted = append(hoisted, e)
			return Var(HoistVar(len(hoisted) - 1))
		}
		args := make([]*Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = cut(a)
		}
		return &Expr{Kind: e.Kind, Val: e.Val, Name: e.Name, Args: args}
	}
	return cut(e), hoisted
}
