// Package agg implements the aggregate operators that may appear in the
// head of a recursive aggregate Datalog rule: min, max, sum, count, and
// mean (paper §5.1). Each operator carries its identity element, binary
// fold, inverse G⁻ used to derive the initial delta ΔX¹ (paper §3.3), and
// lock-free atomic fold used by the MonoTable update protocol (paper §5.2).
package agg

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Kind identifies an aggregate operator.
type Kind int

// Aggregate operator kinds.
const (
	Min Kind = iota
	Max
	Sum
	Count
	Mean
)

var kindNames = [...]string{"min", "max", "sum", "count", "mean"}

// String returns the Datalog surface name of the operator.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("agg.Kind(%d)", int(k))
}

// Parse maps a Datalog aggregate name to its Kind. It also accepts the
// DeALS-style monotonic spellings mmin/mmax/msum/mcount.
func Parse(name string) (Kind, error) {
	switch name {
	case "min", "mmin":
		return Min, nil
	case "max", "mmax":
		return Max, nil
	case "sum", "msum":
		return Sum, nil
	case "count", "mcount":
		return Count, nil
	case "mean", "avg":
		return Mean, nil
	default:
		return 0, fmt.Errorf("agg: unknown aggregate %q", name)
	}
}

// Op is a concrete aggregate operator. All Ops are stateless and safe for
// concurrent use.
type Op struct {
	kind     Kind
	identity float64
}

// ops is indexed by Kind. Mean has no well-defined binary fold without
// cardinality bookkeeping; it exists so the checker can reject it (it is
// not associative).
var ops = [...]*Op{
	Min:   {Min, math.Inf(1)},
	Max:   {Max, math.Inf(-1)},
	Sum:   {Sum, 0},
	Count: {Count, 0},
	Mean:  {Mean, math.NaN()},
}

// ByKind returns the operator for k.
func ByKind(k Kind) *Op { return ops[k] }

// Kind returns the operator's kind.
func (o *Op) Kind() Kind { return o.kind }

// String returns the operator's Datalog name.
func (o *Op) String() string { return o.kind.String() }

// Identity returns the fold identity: +inf for min, -inf for max, 0 for
// sum/count.
func (o *Op) Identity() float64 { return o.identity }

// Fold combines two values. It switches on the kind — no call through a
// pointer — so it inlines into the fold loops (MonoTable, the
// combiner). The min and max builtins agree with math.Min and math.Max,
// signed zeros included, except when an operand is NaN, where the library
// still lets an infinity win; the extra test keeps that. Count folds like
// Sum because the engine materialises count inputs as 1-valued deltas
// (paper §2.3: the runtime semantics of count is "return sum(r,
// count[d])").
func (o *Op) Fold(a, b float64) float64 { return o.kind.Fold(a, b) }

// Fold is Op.Fold by kind, for a loop that reads the kind once rather
// than through the Op per value.
func (k Kind) Fold(a, b float64) float64 {
	switch k {
	case Min:
		m := min(a, b)
		if m != m && (a == -inf || b == -inf) {
			return -inf
		}
		return m
	case Max:
		m := max(a, b)
		if m != m && (a == inf || b == inf) {
			return inf
		}
		return m
	case Sum, Count:
		return a + b
	default:
		return (a + b) / 2
	}
}

var inf = math.Inf(1)

// Inverse computes the initial delta entry G⁻(x1, x0) of paper §3.3: the
// value d such that G(x0, d) == x1 under this aggregate. For min/max the
// inverse is the operator itself; for sum/count it is pairwise subtraction.
func (o *Op) Inverse(x1, x0 float64) float64 {
	switch o.kind {
	case Min:
		return math.Min(x1, x0)
	case Max:
		return math.Max(x1, x0)
	case Sum, Count:
		return x1 - x0
	default:
		return math.NaN()
	}
}

// Selective reports whether the aggregate keeps one winning input (min,
// max) rather than combining all inputs (sum, count). Selective aggregates
// converge by value domination; combining aggregates converge by delta
// magnitude.
func (o *Op) Selective() bool { return o.kind == Min || o.kind == Max }

// AtomicFold folds v into *addr with a compare-and-swap loop on the raw
// float64 bits. It reports whether the stored value changed. This is the
// atomic aggregation of step (3) of the MonoTable update protocol.
func (o *Op) AtomicFold(addr *uint64, v float64) bool {
	for {
		oldBits := atomic.LoadUint64(addr)
		old := math.Float64frombits(oldBits)
		next := o.Fold(old, v)
		if next == old || next != next && old != old {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, oldBits, math.Float64bits(next)) {
			return true
		}
	}
}

// AtomicExchangeIdentity atomically swaps *addr to the identity element and
// returns the previous value. This is steps (1)+(2) of the MonoTable update
// protocol: fetch the intermediate into a local and reset it so a delta is
// never aggregated twice.
func (o *Op) AtomicExchangeIdentity(addr *uint64) float64 {
	old := atomic.SwapUint64(addr, math.Float64bits(o.identity))
	return math.Float64frombits(old)
}

// Abs returns |x|. It is the shared absolute-value helper for the hot
// paths (magnitude and threshold tests); a plain branch, so it inlines
// and avoids math.Abs's bit dance in the few places that fold millions
// of deltas per second.
func Abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Load atomically reads the float64 stored at addr.
func Load(addr *uint64) float64 {
	return math.Float64frombits(atomic.LoadUint64(addr))
}

// Store atomically writes v to addr.
func Store(addr *uint64, v float64) {
	atomic.StoreUint64(addr, math.Float64bits(v))
}
