package runtime

import (
	"fmt"

	"powerlog/internal/compiler"
	"powerlog/internal/transport"
)

// Run executes a compiled plan on an in-process worker fleet and returns
// the final result. The same worker/master code drives every mode; only
// the flush policy and barrier behaviour differ. Run is the one-shot
// form of the session lifecycle (session.go): it opens a Session,
// takes the initial fixpoint's result, and closes the fleet.
func Run(plan *compiler.Plan, cfg Config) (*Result, error) {
	s, err := Open(plan, cfg)
	if err != nil {
		return nil, err
	}
	res := s.Result()
	if cerr := s.Close(); cerr != nil {
		return nil, cerr
	}
	return res, nil
}

// stats snapshots a worker's observability after the run has stopped
// (the worker goroutine has exited, so reads are race-free).
func (w *worker) stats() WorkerStats {
	ws := WorkerStats{
		Sent:          w.sent,
		Recv:          w.recv,
		Flushes:       w.flushes,
		Folds:         w.win.routed,
		Passes:        w.passes,
		StragglerWait: w.stragglerWait,
		Metrics:       w.met.reg.Snapshot(),
	}
	for j, n := range w.win.counts {
		if j != w.id { // a Dense shard's sink counts its own folds too
			ws.Folds += n
		}
	}
	if r, ok := w.pol.flush.(betaReporter); ok {
		ws.Beta = r.betaTrajectory()
	}
	return ws
}

// applyPriorityDefault normalises the §5.4 priority knob: the feature is
// opt-in (benchmarks showed the hold/release cycle can thrash on large
// combining-aggregate runs, so no default threshold is imposed), and a
// negative value explicitly disables it.
func applyPriorityDefault(cfg Config, plan *compiler.Plan) Config {
	if cfg.PriorityThreshold < 0 || (plan.Op != nil && plan.Op.Selective()) {
		cfg.PriorityThreshold = 0
	}
	return cfg
}

// setUp is what Open and RunWorker do before any worker runs: validate
// cfg, fill in its defaults — Workers is the network's size when
// workers > 0 — refuse a plan the mode cannot run, so a bad request
// fails before a goroutine starts, and lay out the rows the plan's
// kernels walk (compiler.Plan.Layout, once per plan).
func setUp(plan *compiler.Plan, cfg Config, workers int) (Config, error) {
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	cfg = cfg.withDefaults()
	if workers > 0 {
		cfg.Workers = workers
	}
	if plan.PropagateInto == nil || plan.Op == nil {
		return cfg, fmt.Errorf("runtime: plan is not compiled")
	}
	if !cfg.Mode.MRA() && len(plan.BaseNaive) == 0 {
		return cfg, fmt.Errorf("runtime: naive evaluation has no base tuples to derive from")
	}
	plan.Layout()
	return applyPriorityDefault(cfg, plan), nil
}

// seedShard prepares this worker's share of its first fixpoint: under
// naive evaluation the base tuples it owns, re-derived every superstep;
// otherwise its share of ΔX¹.
func (w *worker) seedShard() {
	if w.cfg.Mode.MRA() {
		w.seed(w.plan.InitMRA)
		return
	}
	for _, kv := range w.plan.BaseNaive {
		if w.owner(kv.K) == w.id {
			w.ownBase = append(w.ownBase, kv)
		}
	}
}

// RunWorker participates as one worker in an externally provided network
// (e.g. a transport.TCPConn spanning several processes). Every process
// must compile the same plan against the same deterministic data; the
// worker seeds only its own shard of ΔX¹ and returns its local share of
// the result when the master stops the run.
func RunWorker(plan *compiler.Plan, cfg Config, conn transport.Conn) (map[int64]float64, error) {
	cfg, err := setUp(plan, cfg, conn.Workers())
	if err != nil {
		return nil, err
	}
	w := newWorker(conn.ID(), cfg, plan, cfg.Fault.Wrap(conn))
	w.seedShard()
	w.run()
	if err := w.err(); err != nil {
		return nil, err
	}
	return values([]*worker{w}, w.table.Len()), nil
}

// values is the rows of ws's shards in one map, made at size rows (the
// caller's count or estimate of them): a map grown from empty rehashes
// at every doubling on the way.
func values(ws []*worker, size int) map[int64]float64 {
	m := make(map[int64]float64, size)
	for _, w := range ws {
		w.table.Range(func(k int64, v float64) bool {
			m[k] = v
			return true
		})
	}
	return m
}

// RunMaster runs the termination controller on an external network and
// reports the rounds executed and whether the run converged (as opposed
// to hitting the iteration or wall-clock cap).
func RunMaster(plan *compiler.Plan, cfg Config, conn transport.Conn) (rounds int, converged bool, err error) {
	m, err := runMaster(plan, cfg, conn)
	if err != nil {
		return 0, false, err
	}
	return m.rounds, m.converged, m.err
}

// runMaster is RunMaster returning the finished master, whose stop cause
// in-package tests print.
func runMaster(plan *compiler.Plan, cfg Config, conn transport.Conn) (*master, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	cfg.Workers = conn.Workers()
	m := newMaster(cfg, plan, conn)
	m.run()
	return m, nil
}
