// Package powerlog is a Go implementation of PowerLog (Wang et al.,
// SIGMOD 2020): a Datalog system for recursive aggregate programs that
//
//   - automatically checks, with a built-in symbolic solver standing in
//     for Z3, whether a program satisfies the MRA conditions (Theorem 1)
//     that make incremental and asynchronous evaluation correct — even
//     for non-monotonic programs such as the original PageRank;
//   - executes satisfying programs with MRA (semi-naive) evaluation on a
//     unified sync-async engine whose adaptive message buffers tune the
//     level of asynchrony per worker pair (§5.3), falling back to naive
//     synchronous evaluation otherwise;
//   - reproduces the paper's evaluation (Tables 1–2, Figures 1 and 9–11)
//     with the bundled bench harness.
//
// Quick start:
//
//	prog, err := powerlog.Parse(powerlog.Programs.SSSP)
//	db := powerlog.NewDatabase()
//	db.SetGraph("edge", g) // a *powerlog.Graph
//	plan, err := prog.Compile(db)
//	res, err := powerlog.Run(plan, powerlog.Options{Mode: powerlog.ModeSyncAsync})
package powerlog

import (
	"fmt"
	"io"

	"powerlog/internal/analyzer"
	"powerlog/internal/checker"
	"powerlog/internal/compiler"
	"powerlog/internal/edb"
	"powerlog/internal/graph"
	"powerlog/internal/parser"
	"powerlog/internal/progs"
	"powerlog/internal/rewrite"
	"powerlog/internal/runtime"
	"powerlog/internal/transport"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Graph is the CSR propagation graph.
	Graph = graph.Graph
	// Edge is one directed, optionally weighted edge.
	Edge = graph.Edge
	// Database holds the extensional relations and registered graphs.
	Database = edb.DB
	// Relation is a named float64 table.
	Relation = edb.Relation
	// Plan is an executable compiled program.
	Plan = compiler.Plan
	// Options tunes an execution (workers, mode, buffers, timeouts).
	Options = runtime.Config
	// Result is a completed run.
	Result = runtime.Result
	// Mode selects the evaluation strategy.
	Mode = runtime.Mode
	// CheckReport is the MRA condition checker's verdict for a program.
	CheckReport = checker.Report
	// NetworkProfile emulates cluster link costs on the in-process
	// transport (see Options.Network).
	NetworkProfile = runtime.NetworkProfile
)

// Evaluation modes (see the paper's Figure 10 series).
const (
	// ModeNaiveSync is naive evaluation under synchronous execution
	// (what SociaLite does for non-monotonic programs).
	ModeNaiveSync = runtime.NaiveSync
	// ModeSync is MRA (semi-naive) evaluation under BSP barriers.
	ModeSync = runtime.MRASync
	// ModeAsync is MRA evaluation with eager asynchronous messaging.
	ModeAsync = runtime.MRAAsync
	// ModeSyncAsync is PowerLog's unified sync-async engine with
	// adaptive per-destination message buffers. This is the default.
	ModeSyncAsync = runtime.MRASyncAsync
	// ModeAAP is the Grape+-style adaptive asynchronous parallel model
	// re-implemented for the paper's §6.5 comparison.
	ModeAAP = runtime.MRAAAP
	// ModeSSP is stale synchronous parallel evaluation: BSP-style
	// supersteps with the barrier relaxed to Options.Staleness steps.
	ModeSSP = runtime.MRASSP
)

// Programs exposes the paper's fourteen catalogue programs (Table 1).
var Programs = struct {
	SSSP, CC, PageRank, Adsorption, Katz, BP    string
	PathsDAG, Cost, Viterbi, SimRank, LCA, APSP string
	CommNet, GCNForward                         string
}{
	SSSP: progs.SSSP, CC: progs.CC, PageRank: progs.PageRank,
	Adsorption: progs.Adsorption, Katz: progs.Katz, BP: progs.BP,
	PathsDAG: progs.PathsDAG, Cost: progs.Cost, Viterbi: progs.Viterbi,
	SimRank: progs.SimRank, LCA: progs.LCA, APSP: progs.APSP,
	CommNet: progs.CommNet, GCNForward: progs.GCNForward,
}

// Program is a parsed and semantically analysed recursive aggregate
// Datalog program.
type Program struct {
	info   *analyzer.Info
	report *checker.Report // memoised condition check
}

// Parse parses and analyses Datalog source. The program must contain
// exactly one (linear, direct) recursive aggregate rule.
func Parse(source string) (*Program, error) {
	ast, err := parser.Parse(source)
	if err != nil {
		return nil, err
	}
	info, err := analyzer.Analyze(ast)
	if err != nil {
		return nil, err
	}
	return &Program{info: info}, nil
}

// Name returns the recursive predicate's name.
func (p *Program) Name() string { return p.info.HeadName }

// Aggregate returns the head aggregate's surface name (min, max, sum, …).
func (p *Program) Aggregate() string { return p.info.Agg.String() }

// Check runs the automatic MRA condition checker (§3.3) and memoises the
// report. A satisfied report licenses incremental and asynchronous
// evaluation; otherwise Compile falls back to naive synchronous mode.
func (p *Program) Check() *CheckReport {
	if p.report == nil {
		p.report = checker.Check(p.info)
	}
	return p.report
}

// Rewrite returns the program's equivalent incremental (monotonic) form —
// the transformation that turns the original PageRank into the
// delta-based Program 2.b. It fails for programs that do not satisfy the
// MRA conditions.
func (p *Program) Rewrite() (string, error) {
	out, err := rewrite.ToIncremental(p.info, p.Check())
	if err != nil {
		return "", err
	}
	return out.String(), nil
}

// Facts renders what the program text alone decides about F': its
// affine form in the recursive value with the signs of coefficient and
// offset, the kernel class and per-edge residual (rowconst, addw, mulw or
// generic), and the licences — may a session delete, may the runtime
// drain near keys first — each with its reason and the premise it still
// owes to the data. Refusals and Result.Sched quote the same sentences.
func (p *Program) Facts() string { return p.info.Facts.String() }

// SMTLIB renders the program's Property-2 verification condition in the
// paper's Figure-4 Z3 encoding (SMT-LIB 2). Feeding it to a real Z3
// returns "unsat" exactly when Check reports the property valid, keeping
// the built-in solver externally auditable.
func (p *Program) SMTLIB() (string, error) {
	return checker.EmitSMTLIB(p.info)
}

// Compile lowers the program against a database into an executable plan.
// The database must register the graph joined by the recursive rule
// under its predicate name (e.g. "edge") plus any attribute relations.
func (p *Program) Compile(db *Database) (*Plan, error) {
	return compiler.Compile(p.info, db, compiler.Options{})
}

// NewDatabase returns an empty database.
func NewDatabase() *Database { return edb.NewDB() }

// NewRelation creates an empty named relation with the given arity.
func NewRelation(name string, arity int) *Relation { return edb.NewRelation(name, arity) }

// NewGraph builds a CSR graph over vertices [0,n).
func NewGraph(n int, edges []Edge, weighted bool) (*Graph, error) {
	return graph.FromEdges(n, edges, weighted)
}

// LoadGraphTSV reads a whitespace-separated edge list ("src dst [w]").
func LoadGraphTSV(r io.Reader, weighted bool) (*Graph, error) {
	return graph.LoadTSV(r, 0, weighted)
}

// Run executes a compiled plan. The zero Options run the unified
// sync-async engine on four workers. Programs that fail the MRA check
// are forced onto naive synchronous evaluation, mirroring the system
// diagram in the paper's Figure 2.
func Run(plan *Plan, opts Options) (*Result, error) {
	rep := checker.Check(plan.Info)
	if !rep.Satisfied && opts.Mode != ModeNaiveSync {
		opts.Mode = ModeNaiveSync
	}
	return runtime.Run(plan, opts)
}

// RunUnchecked executes a plan without consulting the condition checker.
// Use only when the caller has verified correctness by other means (the
// bench harness uses it to time individual engine modes).
func RunUnchecked(plan *Plan, opts Options) (*Result, error) {
	return runtime.Run(plan, opts)
}

// Session is a long-lived engine instance: the fleet stays warm between
// fixpoints, and base-fact mutations re-converge incrementally instead
// of re-running from scratch.
type Session = runtime.Session

// Mutation is a batch of base-fact edge inserts and deletes for
// Session.Apply. A delete removes every parallel edge with the named
// endpoints; deleting an absent edge is a no-op.
type Mutation = runtime.Mutation

// Typed session-state errors for callers driving one Session from
// concurrent goroutines (as the serving front end does): branch with
// errors.Is — Busy means an exclusive operation (a fixpoint, a
// membership fence) is in flight and the call was shed rather than
// queued; Closed means Close has run (or is running) and the rejection
// is permanent.
var (
	ErrSessionBusy   = runtime.ErrSessionBusy
	ErrSessionClosed = runtime.ErrSessionClosed
)

// Open starts a long-lived session: it computes the plan's initial
// fixpoint and parks the worker fleet, ready for incremental
// re-fixpoints under Session.Apply:
//
//	sess, err := powerlog.Open(plan, powerlog.Options{Mode: powerlog.ModeSyncAsync})
//	res := sess.Result() // the initial fixpoint
//	res, err = sess.Apply(powerlog.Mutation{Inserts: []powerlog.Edge{{Src: 3, Dst: 7, W: 1}}})
//	res, err = sess.Apply(powerlog.Mutation{Deletes: []powerlog.Edge{{Src: 0, Dst: 4}}})
//	defer sess.Close()
//
// Like Run, programs that fail the MRA check are forced onto naive
// synchronous evaluation — which cannot re-fixpoint incrementally, so
// Apply is rejected for them (the session is still useful for Result).
func Open(plan *Plan, opts Options) (*Session, error) {
	rep := checker.Check(plan.Info)
	if !rep.Satisfied && opts.Mode != ModeNaiveSync {
		opts.Mode = ModeNaiveSync
	}
	return runtime.Open(plan, opts)
}

// OpenUnchecked starts a session without consulting the condition
// checker (see RunUnchecked).
func OpenUnchecked(plan *Plan, opts Options) (*Session, error) {
	return runtime.Open(plan, opts)
}

// CheckSource is a convenience: parse, analyse, and condition-check in
// one call, returning the Table-1-style report.
func CheckSource(source string) (*CheckReport, error) {
	rep, _, err := checker.CheckSource(source)
	return rep, err
}

// Transport is one endpoint's connection to a worker/master network.
type Transport = transport.Conn

// TCPEndpoint is a TCP-backed Transport for multi-process clusters.
type TCPEndpoint = transport.TCPConn

// NewTCPEndpoint starts endpoint id of a TCP network: workers are
// endpoints 0..n-1, the master is endpoint n. addrs lists every
// endpoint's listen address.
func NewTCPEndpoint(id, workers int, addrs []string) (*TCPEndpoint, error) {
	return transport.NewTCPEndpoint(id, workers, addrs)
}

// RunWorker participates as one worker of a distributed run over an
// external transport (each process compiles the same plan from the same
// deterministic data) and returns the local shard of the result.
func RunWorker(plan *Plan, opts Options, conn Transport) (map[int64]float64, error) {
	return runtime.RunWorker(plan, opts, conn)
}

// RunMaster coordinates termination of a distributed run.
func RunMaster(plan *Plan, opts Options, conn Transport) (rounds int, converged bool, err error) {
	return runtime.RunMaster(plan, opts, conn)
}

// Version identifies this implementation.
const Version = "1.0.0"

// String renders a one-line summary of a result.
func Summary(r *Result) string {
	return fmt.Sprintf("keys=%d rounds=%d msgs=%d flushes=%d elapsed=%v converged=%v kernel=%s sched=%s",
		len(r.Values), r.Rounds, r.MessagesSent, r.Flushes, r.Elapsed, r.Converged, r.Kernel, r.Sched)
}
