// Package compiler lowers an analysed recursive aggregate program to an
// executable Plan: a compiled propagation closure over a CSR graph plus
// materialised initial deltas, ready for any of the evaluation engines
// (naive, MRA sync, MRA async, unified sync-async).
package compiler

import (
	"fmt"

	"powerlog/internal/agg"
	"powerlog/internal/analyzer"
	"powerlog/internal/edb"
	"powerlog/internal/graph"
)

// KV is a key/value contribution.
type KV struct {
	K int64
	V float64
}

// TermSpec describes when evaluation stops.
type TermSpec struct {
	// Epsilon is the user-level convergence threshold: stop when the
	// aggregate change between consecutive global results drops below it.
	// Zero means run to fixpoint.
	Epsilon float64
	// MaxIters is the paper's system-level termination: a hard cap on
	// (synchronous) iterations or asynchronous termination-check rounds.
	MaxIters int
}

// Plan is an executable program.
type Plan struct {
	Info *analyzer.Info
	Op   *agg.Op
	DB   *edb.DB

	// PairKeys is true when the program groups by two key variables
	// (APSP, SimRank): keys are encoded hi<<32|lo and tables are sparse.
	PairKeys bool
	// N is the dense key-space size (vertex count) for single-key plans.
	N int
	// Graph is the propagation structure joined in the recursive body.
	Graph *graph.Graph

	// Kernel evaluates the incremental F' row by row; FullKernel the
	// original, un-split F (naive evaluation). See kernel.go.
	Kernel, FullKernel *Kernel

	// PropagateInto applies F' to a drained delta and emits each
	// dependent contribution; PropagateFullInto applies F to a full
	// value. They are the kernels' per-edge adapters (Kernel.Propagate).
	// Both are reentrant: the caller supplies the expression-evaluation
	// scratch (one NewScratch slice per goroutine), so a steady-state
	// scan pass allocates nothing. Scratch must not be shared between
	// concurrent callers.
	PropagateInto     func(scratch []float64, key int64, delta float64, emit func(dst int64, v float64))
	PropagateFullInto func(scratch []float64, key int64, value float64, emit func(dst int64, v float64))
	// NewScratch sizes a scratch buffer for either kernel: one slot per
	// variable and hoisted subtree the compiled expressions read, then
	// the chunk of row values Fill hands its consumer.
	NewScratch func() []float64

	// InitMRA is ΔX¹ of MRA evaluation (§3.3): initialisation tuples,
	// constant bodies, and per-edge constants, folded per key.
	InitMRA []KV
	// BaseNaive holds the tuples naive evaluation re-derives every
	// iteration (initialisation rules and constant bodies).
	BaseNaive []KV

	Termination TermSpec

	// shape is the resolved propagation structure, retained so a session
	// can re-derive supporting relations, attribute columns, and ΔX¹
	// after a base-fact mutation (delta.go).
	shape *bodyShape
	// delta is ApplyMutation's retained scratch and in its candidate
	// in-edge index over Graph, both made by the first batch that needs them.
	delta *deltaScratch
	in    *inIndex
}

// JoinPredicate names the base relation the recursive body joins — the
// graph predicate Session mutations address.
func (p *Plan) JoinPredicate() string { return p.shape.Join.Name }

// EncodePair packs two 31-bit keys into one table key.
func EncodePair(hi, lo int64) int64 { return hi<<32 | lo }

// DecodePair unpacks a pair key.
func DecodePair(k int64) (hi, lo int64) { return k >> 32, k & 0xffffffff }

// Error is a compilation error.
type Error struct{ Msg string }

func (e *Error) Error() string { return "compiler: " + e.Msg }

func errf(format string, args ...any) error {
	return &Error{Msg: fmt.Sprintf(format, args...)}
}
