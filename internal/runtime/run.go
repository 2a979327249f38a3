package runtime

import (
	"fmt"

	"powerlog/internal/ckpt"
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
		Passes:        w.passes,
		StragglerWait: w.stragglerWait,
		Metrics:       w.met.reg.Snapshot(),
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
// workers > 0 — refuse a plan the mode cannot run, and read the cut to
// resume from (meta nil: none), so a bad request or a corrupt checkpoint fails
// before a goroutine starts.
func setUp(plan *compiler.Plan, cfg Config, workers int) (_ Config, rows []ckpt.Row, meta *ckpt.Meta, err error) {
	if err := cfg.Validate(); err != nil {
		return cfg, nil, nil, err
	}
	cfg = cfg.withDefaults()
	if workers > 0 {
		cfg.Workers = workers
	}
	if plan.PropagateInto == nil || plan.Op == nil {
		return cfg, nil, nil, fmt.Errorf("runtime: plan is not compiled")
	}
	if !cfg.Mode.MRA() && len(plan.BaseNaive) == 0 {
		return cfg, nil, nil, fmt.Errorf("runtime: naive evaluation has no base tuples to derive from")
	}
	cfg = applyPriorityDefault(cfg, plan)
	if !cfg.Mode.MRA() || cfg.RestoreDir == "" {
		return cfg, nil, nil, nil
	}
	rows, cut, err := ckpt.LoadAll(cfg.RestoreDir)
	return cfg, rows, &cut, err
}

// seedShard prepares this worker's share of its first fixpoint: under
// naive evaluation the base tuples it owns, re-derived every superstep;
// otherwise its share of ΔX¹, or of the cut it resumes from, restored
// exactly (meta non-nil).
func (w *worker) seedShard(rows []ckpt.Row, meta *ckpt.Meta) {
	switch {
	case !w.cfg.Mode.MRA():
		for _, kv := range w.plan.BaseNaive {
			if w.owner(kv.K) == w.id {
				w.ownBase = append(w.ownBase, kv)
			}
		}
	case meta == nil:
		w.seed(w.plan.InitMRA)
	default:
		w.restore(rows)
		w.mutEpoch = meta.MutEpoch
	}
}

// RunWorker participates as one worker in an externally provided network
// (e.g. a transport.TCPConn spanning several processes). Every process
// must compile the same plan against the same deterministic data; the
// worker seeds only its own shard of ΔX¹ and returns its local share of
// the result when the master stops the run.
func RunWorker(plan *compiler.Plan, cfg Config, conn transport.Conn) (map[int64]float64, error) {
	cfg, rows, meta, err := setUp(plan, cfg, conn.Workers())
	if err != nil {
		return nil, err
	}
	w := newWorker(conn.ID(), cfg, plan, cfg.Fault.Wrap(conn))
	w.seedShard(rows, meta)
	w.run()
	if err := w.err(); err != nil {
		return nil, err
	}
	local := map[int64]float64{}
	w.table.Range(func(k int64, v float64) bool {
		local[k] = v
		return true
	})
	return local, nil
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
