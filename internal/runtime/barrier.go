package runtime

import (
	stdruntime "runtime"
	"time"

	"powerlog/internal/fault"
	"powerlog/internal/transport"
)

// BarrierPolicy implementations (§5.2): the synchronisation protocol
// bracketing each pass of the unified compute loop.

// bspBarrier runs bulk-synchronous supersteps. A superstep ends in a
// fence of class FenceStep (fence.go) that the worker opens itself:
// flush everything, mark, fold until every peer's mark for the superstep
// is in, report the superstep at the cut (endStep), and wait for the
// master's release — or for a Stop, or a park request, which ends the
// fixpoint instead. In naive mode each superstep recomputes the full
// result from the previous one (Equation 2); otherwise it is MRA
// semi-naive evaluation (Equation 4) under a barrier.
type bspBarrier struct{}

func (bspBarrier) setup(w *worker) {
	if !w.cfg.Mode.MRA() {
		// The table being built this round; incoming Data always lands
		// in the freshest next (created *before* acking the superstep so
		// that faster peers' next-round data cannot be stranded).
		w.next = w.newTable()
		w.apply = w.next
	}
}

func (bspBarrier) beginPass(w *worker) bool {
	w.rounds++
	return false
}

// endPass opens the superstep's fence. Both sides count supersteps (the
// worker's rounds, the master's gRound), so unlike every other class it
// needs no request: one would cost a message per superstep.
func (bspBarrier) endPass(w *worker, _ bool) bool {
	w.fences[transport.FenceStep].req = transition{class: transport.FenceStep, epoch: w.rounds}
	return w.fence(transport.FenceStep)
}

// endStep is the step fence's action at the cut: every peer's data for
// the superstep has been folded, so this is the superstep's report. A
// BSP cut is a consistent one, which is also where MRA runs write their
// periodic checkpoint.
func (w *worker) endStep(t transition) transport.Stats {
	var stats transport.Stats
	if !w.cfg.Mode.MRA() {
		stats.AccDelta, stats.Dirty = w.naiveFinish()
		w.next = w.newTable()
		w.apply = w.next
	} else {
		if w.accFolds >= accResyncFolds {
			// A barrier is an epoch boundary: replace the drifting
			// running Σacc with the exact table sum (worker.resyncAccSum)
			// before it feeds another million folds.
			w.resyncAccSum()
		}
		stats.AccDelta = w.accDelta
		w.accDelta = 0
		stats.Dirty = w.table.HasDirty()
		if w.cfg.SnapshotDir != "" && w.cfg.SnapshotEvery > 0 && t.epoch%w.cfg.SnapshotEvery == 0 {
			// Fault tolerance is best-effort; the run itself must not fail.
			_ = w.snapshot(t.epoch, true)
		}
	}
	stats.Sent, stats.Recv = w.sent, w.recv
	return stats
}

// freeRun is the barrier-free policy shared by MRAAsync, MRASyncAsync,
// and MRAAAP: drain the inbox before each pass, flush per the mode's
// policy after it, and idle briefly when nothing moved — telling the
// master so (worker.reportIdle). Termination comes from the master
// (paper §5.3: async workers have no global view, so the master gathers
// stats and decides).
type freeRun struct{}

func (freeRun) setup(*worker) {}

func (freeRun) beginPass(w *worker) bool { return w.drainInbox() }

func (freeRun) endPass(w *worker, progressed bool) bool {
	// A pass boundary is the async family's safe point for fences: join
	// a pending snapshot episode (combining aggregates) or membership
	// fence — or, further down, write a local stale snapshot (selective
	// aggregates, Theorem 3).
	w.joinFences()
	if progressed {
		// Only productive passes count as effective iterations (the
		// ε gating and the system-level cap both key off them).
		w.passes++
		// Yield between passes so the master's termination check (and
		// the comm goroutines) are never starved by spinning compute.
		stdruntime.Gosched()
	}
	w.maybeStaleSnapshot(int(w.passes))
	w.timedFlush()
	if progressed {
		w.pol.sched.rearm()
		return true
	}
	if w.pol.sched.release() {
		// Nothing urgent left: release the low-priority cache (§5.4 —
		// less important deltas are used when the worker would idle).
		return true
	}
	w.idleWait()
	return true
}

// markerResend is how long a worker blocks on its inbox before
// retransmitting its own marker. Markers ride the data lane and can be
// lost to faults; because the receiver keeps the max of announced
// stamps, a retransmission is always safe.
const markerResend = 3 * time.Millisecond

// maybeStaleSnapshot writes a local, uncoordinated snapshot at every
// SnapshotEvery-th pass boundary — selective aggregates only, where
// Theorem 3 licenses restoring stale state. epoch is the worker's own
// pass/step count; workers drift apart, and LoadAll reassembles the
// newest shard per worker.
func (w *worker) maybeStaleSnapshot(epoch int) {
	if w.cfg.SnapshotDir == "" || w.cfg.SnapshotEvery <= 0 || !w.plan.Op.Selective() {
		return
	}
	if epoch <= w.staleEpoch || epoch%w.cfg.SnapshotEvery != 0 {
		return
	}
	w.staleEpoch = epoch
	_ = w.snapshot(epoch, false) // best-effort, like the BSP checkpoint
}

// stallBarrier decorates a mode's BarrierPolicy with deterministic
// straggler injection: before every injector-selected compute pass the
// worker sleeps, exercising BSP barrier waits, the SSP staleness gate,
// and the async master's idle detection. Living outside the policy
// implementations, it costs nothing when no injector is configured and
// needs no mode-specific code.
type stallBarrier struct {
	inner BarrierPolicy
	inj   *fault.Injector
	pass  int
}

func (s *stallBarrier) setup(w *worker) { s.inner.setup(w) }

func (s *stallBarrier) beginPass(w *worker) bool {
	s.pass++
	if p := s.inj.WorkerCrashPass(w.id); p > 0 && s.pass == p && !w.reborn {
		// Silent worker death: no Stop handshake, no final flush — the
		// buffered updates and the unflushed shard die with the goroutine,
		// which is exactly what the membership layer's live re-join
		// (membership.go) must recover from.
		w.stop()
		return false
	}
	if d := s.inj.StallFor(w.id, s.pass); d > 0 {
		time.Sleep(d)
	}
	return s.inner.beginPass(w)
}

func (s *stallBarrier) endPass(w *worker, progressed bool) bool {
	return s.inner.endPass(w, progressed)
}
