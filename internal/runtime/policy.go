package runtime

import (
	"time"

	"powerlog/internal/agg"
	"powerlog/internal/analyzer"
	"powerlog/internal/compiler"
	"powerlog/internal/metrics"
)

// This file defines the runtime's policy layers. The paper's central
// engineering claim (§5.2–5.3) is a *unified* sync-async engine where the
// synchronous and asynchronous extremes are just points on the
// message-buffer dial. The worker therefore runs ONE compute loop
// (worker.computeLoop) and delegates every mode-specific decision to
// three narrow interfaces:
//
//   - FlushPolicy  (§5.3): when does a per-destination buffer go on the
//     wire? Implementations: barrier (flush only at superstep end),
//     eager small batches (Myria-style async), fixed-β with an AAP
//     delay switch (§6.5), and the paper's adaptive-β rule.
//   - Scheduler    (§5.4): in what order is a pass's dirty set drained,
//     and which deltas are held back for a later pass? Implementations:
//     FIFO, delta-stepping buckets, priority holding.
//   - BarrierPolicy (§5.2): what synchronisation brackets a compute
//     pass? Implementations: the BSP superstep fence, free running (no
//     barrier, master polls for termination), and the SSP staleness gate
//     (ssp.go).
//
// A mode is just a registered (FlushPolicy, Scheduler, BarrierPolicy,
// compute pass) quadruple; adding a consistency model is a one-file
// addition (see ssp.go for the proof).

// window is the per-worker traffic window ΔT that drives flush-policy
// adaptation: per-destination buffered-update counts |B(i,j)| for the
// β rule, and gross in/out message volume for the AAP mode switch. The
// worker owns the counters; policies read and reset them in onTick.
type window struct {
	start  time.Time
	counts []int64 // |B(i,j)| accumulated this window, per destination
	in     int64   // KVs received this window (AAP)
	out    int64   // KVs sent this window (AAP)
}

// FlushPolicy decides when per-destination buffers are sent (§5.3). It
// replaces the former mode switches in emitAsync/timedFlush. The decision
// on an emit is published, not asked per update: destination dst's buffer
// flushes once it holds limit(dst) entries, or when a delta of magnitude
// urgent() or more is folded in. Both hold between two onTick calls, so
// the worker reads them after each (worker.readLimits).
type FlushPolicy interface {
	// limit is the buffered-entry count at which destination dst's buffer
	// flushes (noLimit: not on a count). The batchMax hard cap is the
	// worker's, not the policy's.
	limit(dst int) int
	// urgent is the delta magnitude that flushes a buffer at once (NaN:
	// none does).
	urgent() float64
	// onTick runs the policy's timer work on the τ interval: window
	// adaptation (the β(i,j) update rule, the AAP delay switch). The
	// shared "flush buffers older than τ" sweep lives in the worker.
	onTick(now time.Time, win *window)
}

// Scheduler owns a pass's drain order and the §5.4 low-priority holding
// decision. It replaces the former inline priority-threshold branches in
// the compute loops.
type Scheduler interface {
	// arrange orders the drained batch in place and returns how many of
	// its leading entries this pass processes. The caller refolds the
	// rest into the intermediate, where they wait, dirty, for a later
	// pass: §5.4's unimportant deltas, or a bucket schedule's far keys.
	arrange(batch []drained) int
	// release is asked when a pass propagated nothing and the worker
	// would otherwise idle; it reports whether a new pass may find work
	// the schedule held back (and, for §5.4's hold, lets it through).
	release() bool
	// rearm re-enables holding after the worker made progress.
	rearm()
	// holding reports whether held deltas are pending (keeps the idle
	// detector honest: held work is still work).
	holding() bool
	// String names the schedule (Result.Sched).
	String() string
}

// BarrierPolicy brackets the unified compute loop with the mode's
// synchronisation protocol.
type BarrierPolicy interface {
	// setup runs once before the first pass.
	setup(w *worker)
	// beginPass runs before a compute pass; it reports whether it made
	// progress (e.g. by applying queued messages).
	beginPass(w *worker) bool
	// endPass runs after a compute pass; progressed aggregates
	// beginPass's and the pass's own progress. Returning false stops
	// the worker.
	endPass(w *worker, progressed bool) bool
}

// policySet binds one evaluation mode's strategies. pass is the compute
// body (scanPass for MRA modes, naivePass for naive re-evaluation).
type policySet struct {
	flush   FlushPolicy
	sched   Scheduler
	barrier BarrierPolicy
	pass    func(*worker) int
}

// policyFactory builds a mode's policySet for one worker. reg is the
// worker's metrics registry; policies register their per-decision
// counters into it (DESIGN.md §8) and the worker surfaces a snapshot
// through Result.Workers.
type policyFactory func(cfg Config, plan *compiler.Plan, self int, reg *metrics.Registry) policySet

var (
	modeFactories = map[Mode]policyFactory{}
	// modeBarriered records which modes end each superstep in a step
	// fence the master collects and releases (runBSP); all others use
	// the polling master.
	modeBarriered = map[Mode]bool{}
)

// registerMode installs a mode's policy factory. barriered selects the
// master-side protocol (BSP step fences vs. async polling).
func registerMode(m Mode, barriered bool, f policyFactory) {
	modeFactories[m] = f
	modeBarriered[m] = barriered
}

// modeRegistered reports whether a mode has a policy factory
// (Config.Validate rejects unknown modes up front).
func modeRegistered(m Mode) bool { _, ok := modeFactories[m]; return ok }

// policiesFor builds the worker's policy set. The caller must have
// validated the config (Config.Validate checks the mode).
func policiesFor(cfg Config, plan *compiler.Plan, self int, reg *metrics.Registry) policySet {
	return modeFactories[cfg.Mode](cfg, plan, self, reg)
}

func init() {
	registerMode(NaiveSync, true, newNaiveSyncPolicies)
	registerMode(MRASync, true, newMRASyncPolicies)
	registerMode(MRAAsync, false, newMRAAsyncPolicies)
	registerMode(MRASyncAsync, false, newUnifiedPolicies)
	registerMode(MRAAAP, false, newAAPPolicies)
}

// newNaiveSyncPolicies: SociaLite-style naive evaluation — re-derive the
// full result each superstep under BSP barriers, flushing only at
// superstep end.
func newNaiveSyncPolicies(cfg Config, plan *compiler.Plan, self int, reg *metrics.Registry) policySet {
	return policySet{
		flush:   barrierFlush{},
		sched:   fifoSched{why: "naive evaluation re-derives: there is no dirty set to order"},
		barrier: bspBarrier{},
		pass:    (*worker).naivePass,
	}
}

// newMRASyncPolicies: BigDatalog-style semi-naive evaluation under BSP
// barriers.
func newMRASyncPolicies(cfg Config, plan *compiler.Plan, self int, reg *metrics.Registry) policySet {
	return policySet{
		flush:   barrierFlush{},
		sched:   baseScheduler(plan, reg),
		barrier: bspBarrier{},
		pass:    (*worker).scanPass,
	}
}

// newMRAAsyncPolicies: Myria-style maximum asynchrony — eager small
// batches, no barrier.
func newMRAAsyncPolicies(cfg Config, plan *compiler.Plan, self int, reg *metrics.Registry) policySet {
	return policySet{
		flush:   eagerFlush{threshold: cfg.PriorityThreshold},
		sched:   withPriorityHold(baseScheduler(plan, reg), cfg, plan, reg),
		barrier: freeRun{},
		pass:    (*worker).scanPass,
	}
}

// newUnifiedPolicies: the paper's unified sync-async engine. Selective
// aggregates stay on the eager end of the dial (a stale bound must be
// corrected later, so freshness beats batching); combining aggregates
// run the adaptive-β buffer rule of §5.3.
func newUnifiedPolicies(cfg Config, plan *compiler.Plan, self int, reg *metrics.Registry) policySet {
	var flush FlushPolicy
	if plan.Op.Selective() {
		flush = eagerFlush{threshold: cfg.PriorityThreshold}
	} else {
		flush = newAdaptiveBetaFlush(cfg, self, reg)
	}
	return policySet{
		flush:   flush,
		sched:   withPriorityHold(baseScheduler(plan, reg), cfg, plan, reg),
		barrier: freeRun{},
		pass:    (*worker).scanPass,
	}
}

// newAAPPolicies: Grape+-style adaptive asynchronous parallel (§6.5) —
// fixed β with a per-worker delay switch driven by in-message volume.
func newAAPPolicies(cfg Config, plan *compiler.Plan, self int, reg *metrics.Registry) policySet {
	return policySet{
		flush:   &fixedBetaFlush{beta: betaInit, tau: cfg.Tau, threshold: cfg.PriorityThreshold},
		sched:   withPriorityHold(baseScheduler(plan, reg), cfg, plan, reg),
		barrier: freeRun{},
		pass:    (*worker).scanPass,
	}
}

// baseScheduler picks the schedule the program's facts license: the
// bucket scheduler, or FIFO with the licence's reason for a name.
func baseScheduler(plan *compiler.Plan, reg *metrics.Registry) Scheduler {
	lic := plan.Info.Facts.Schedule
	if lic.Kind == analyzer.SchedBucket {
		return &bucketSched{
			asc:      plan.Op.Kind() == agg.Min,
			kernel:   plan.Kernel,
			passes:   reg.Counter("sched.bucket.passes"),
			heldKeys: reg.Counter("sched.bucket.held"),
		}
	}
	return fifoSched{why: lic.Reason}
}

// withPriorityHold layers §5.4's low-priority holding over a drain
// order. It applies only to combining aggregates with a positive
// threshold (selective aggregates must forward improvements promptly,
// and applyPriorityDefault zeroes their threshold anyway).
func withPriorityHold(inner Scheduler, cfg Config, plan *compiler.Plan, reg *metrics.Registry) Scheduler {
	if cfg.PriorityThreshold > 0 && !plan.Op.Selective() {
		return &priorityHold{
			inner:     inner,
			threshold: cfg.PriorityThreshold,
			holds:     reg.Counter("sched.hold"),
			releases:  reg.Counter("sched.release"),
		}
	}
	return inner
}
