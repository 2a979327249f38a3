package runtime

import (
	"fmt"

	"powerlog/internal/ckpt"
	"powerlog/internal/compiler"
	"powerlog/internal/graph"
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

// loadRestore reads the checkpoint an MRA run is to resume from. ok is
// false when cfg names none. A stale (uncoordinated) snapshot is refused
// for a combining program.
func loadRestore(plan *compiler.Plan, cfg Config) (rows []ckpt.Row, meta ckpt.Meta, ok bool, err error) {
	if !cfg.Mode.MRA() || cfg.RestoreDir == "" {
		return nil, meta, false, nil
	}
	if rows, meta, err = ckpt.LoadAll(cfg.RestoreDir); err != nil {
		return nil, meta, false, err
	}
	if !meta.Cut && !plan.Op.Selective() {
		return nil, meta, false, fmt.Errorf("runtime: %s has only stale snapshots, which are safe to restore "+
			"only for selective aggregates (Theorem 3); combining aggregates need a consistent cut", cfg.RestoreDir)
	}
	return rows, meta, true, nil
}

// seedShard prepares this worker's shard for its first fixpoint: its
// share of ΔX¹, or of the checkpoint loadRestore returned — a consistent
// cut restores exactly, a stale snapshot warm-starts over the seed.
func (w *worker) seedShard(rows []ckpt.Row, meta ckpt.Meta, restoring bool) {
	switch {
	case !restoring:
		w.seed(w.plan.InitMRA)
	case meta.Cut:
		w.restore(rows)
	default:
		w.seed(w.plan.InitMRA)
		w.restoreStale(rows)
	}
	if restoring {
		w.mutEpoch = meta.MutEpoch
	}
}

// RunWorker participates as one worker in an externally provided network
// (e.g. a transport.TCPConn spanning several processes). Every process
// must compile the same plan against the same deterministic data; the
// worker seeds only its own shard of ΔX¹ and returns its local share of
// the result when the master stops the run.
func RunWorker(plan *compiler.Plan, cfg Config, conn transport.Conn) (map[int64]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	cfg = applyPriorityDefault(cfg, plan)
	cfg.Workers = conn.Workers()
	if plan.PropagateInto == nil || plan.Op == nil {
		return nil, fmt.Errorf("runtime: plan is not compiled")
	}
	rows, meta, restoring, err := loadRestore(plan, cfg)
	if err != nil {
		return nil, err
	}
	w := newWorker(conn.ID(), cfg, plan, cfg.Fault.Wrap(conn))
	if cfg.Mode.MRA() {
		w.seedShard(rows, meta, restoring)
	} else {
		for _, kv := range plan.BaseNaive {
			if graph.Partition(kv.K, cfg.Workers) == w.id {
				w.ownBase = append(w.ownBase, kv)
			}
		}
	}
	w.run()
	if w.sendErr != nil {
		return nil, fmt.Errorf("runtime: worker %d send failed: %w", w.id, w.sendErr)
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
