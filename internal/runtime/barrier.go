package runtime

import (
	stdruntime "runtime"
	"slices"
	"time"

	"powerlog/internal/fault"
	"powerlog/internal/term"
	"powerlog/internal/transport"
)

// BarrierPolicy implementations (§5.2): the synchronisation protocol
// bracketing each pass of the unified compute loop.

// bspBarrier runs bulk-synchronous supersteps: the SSP gate (ssp.go) at
// staleness 0, where every worker judges each superstep itself. At its
// pass end a worker flushes, marks superstep s to every peer (the step
// fence, class FenceStep) and sends its report for s to the master. The
// peers get the report too: on the mark when the pass end has it, on a
// FenceAck sent at the cut when the report or a checkpoint needs every
// peer's data (reportsAtCut). Once it holds all W reports for s the
// worker asks its term.Barrier for the verdict the master reaches from
// the same reports: on None it starts the next superstep at once; on a
// stop it waits for the master's Stop or park request. Nobody releases a
// superstep. A membership fence joined at the gate or in that wait
// rebases the fleet (worker.rebase): the worker leaves the superstep for
// the one after the master's base. In naive mode each superstep
// recomputes the full result from the previous one (Equation 2);
// otherwise it is MRA semi-naive evaluation (Equation 4) under a barrier.
type bspBarrier struct {
	sentAt int64 // w.sent when the superstep began
}

func (*bspBarrier) setup(w *worker) {
	w.early = []transport.Message{} // non-nil: hold early peer data (worker.handle)
	if !w.cfg.Mode.MRA() {
		// The table being built this round; incoming Data always lands
		// in the freshest next (created *before* reporting the superstep
		// so that faster peers' next-round data cannot be stranded).
		w.next = w.newTable()
		w.apply = w.next
	}
}

func (b *bspBarrier) beginPass(w *worker) bool {
	w.rounds++
	b.sentAt = w.sent
	return false
}

// endPass ends superstep s = w.rounds. Both sides count supersteps (the
// worker's rounds, the master's gRound), so nobody requests the fence.
func (b *bspBarrier) endPass(w *worker, _ bool) bool {
	s := w.rounds
	joins := w.fences[transport.FenceMember].done
	rebased := func() bool { return w.fences[transport.FenceMember].done != joins }
	// The pass has drained: what peers sent in superstep s may fold now.
	w.receive(w.early...)
	w.early = w.early[:0]
	w.flushAll()
	// An MRA report is whole at the pass end: accDelta moves only in the
	// pass's FoldAcc, and what a peer sends from here on only dirties
	// Intermediate — and made the peer's own report dirty. A naive report
	// is made at the cut.
	rep := transport.Stats{AccDelta: w.accDelta, Dirty: w.table.HasDirty() || w.sent > b.sentAt}
	w.accDelta = 0
	w.steps.observe(w.id, s, rep)
	w.stepMark(s)
	resend := func() { w.stepMark(s - 1); w.stepMark(s) }
	ack := transport.Message{Kind: transport.FenceAck, Fence: transport.FenceStep, Round: s, Stats: rep}
	if w.reportsAtCut(s) {
		w.awaitPeers(func() bool { return rebased() || w.fences[transport.FenceStep].marks.min(w.peerSkip) >= s }, resend)
		if w.halted() || rebased() {
			return !w.halted()
		}
		// The cut: every peer's data for s has been folded.
		if w.cfg.Mode.MRA() {
			_ = w.snapshot(s, true) // best-effort: the run itself must not fail
		} else {
			ack.Stats.AccDelta, ack.Stats.Dirty = w.naiveFinish()
			w.next = w.newTable()
			w.apply = w.next
			w.steps.observe(w.id, s, ack.Stats)
		}
		w.eachPeer(func(j int) { w.enqueue(j, ack) })
	}
	w.enqueue(w.master, ack)
	// The gate: every slot's report for s, not merely its mark.
	w.awaitPeers(func() bool {
		return rebased() || !slices.ContainsFunc(w.steps[s&1], func(r stepReport) bool { return r.s != s })
	}, resend)
	if w.halted() || rebased() || w.fencePending(transport.FencePark) {
		return !w.halted()
	}
	if w.accFolds >= accResyncFolds {
		// A barrier is an epoch boundary: replace the drifting running
		// Σacc with the exact table sum (worker.resyncAccSum) before it
		// feeds another million folds.
		w.resyncAccSum()
	}
	fleet := fleetReport(w.steps[s&1])
	c := w.bar.Round(s-w.barFrom, fleet.AccDelta, fleet.Dirty)
	onVerdict(w.id, s-w.barFrom, fleet, c)
	// On a stop the master, judging the same reports, stops or parks the
	// fleet — or, having missed a lost worker's ack, re-joins it. Keep
	// re-marking meanwhile: a peer whose view of this mark was lost is
	// still at the gate.
	return c == term.None || w.foldUntil(func() bool {
		w.joinFences()
		return rebased() || w.fencePending(transport.FencePark)
	}, resend)
}

// reportsAtCut reports whether superstep s's report travels to the peers
// on a FenceAck sent at the cut instead of on the mark: naive mode's
// report (naiveFinish) needs every peer's data, and a checkpoint's cut
// must come before any peer starts superstep s+1 — at staleness 0 a peer
// holding every mark may otherwise send s+1's data ahead of a lost mark.
// Sender and receivers decide alike, from the fleet's Config.
func (w *worker) reportsAtCut(s int) bool {
	return !w.cfg.Mode.MRA() || w.cfg.SnapshotDir != "" && w.cfg.SnapshotEvery > 0 && s%w.cfg.SnapshotEvery == 0
}

// stepMark sends the peers this worker's mark for superstep s, with its
// report for s: a BSP worker records its own before it marks (SSP, which
// records none, sends zeros).
func (w *worker) stepMark(s int) {
	m := transport.Message{Kind: transport.FenceMark, Fence: transport.FenceStep, Round: s, Stats: w.steps[s&1][w.id].st}
	w.eachPeer(func(j int) { w.enqueue(j, m) })
}

// stepReports holds every slot's superstep report for the last two
// supersteps, by parity. A worker at gate s reads s's reports, and a peer
// that passed gate s first may already have sent s+1's — never s+2's,
// which waits for this worker's mark for s+1. A mark for s+1 that
// overtakes a lost one for s moves the marker clock past s, but only s's
// own (re-sent) mark carries s's report, so the sender re-sends both
// (bspBarrier.endPass). The master collects one superstep at a time:
// acks that run ahead of it wait in master.later.
type stepReports [2][]stepReport

// stepReport is one slot's report for superstep s.
type stepReport struct {
	s  int
	st transport.Stats
}

// observe keeps slot's report for superstep s unless it holds a later one: a
// BSP worker's naive report, made at its cut, replaces the one it marked.
func (r stepReports) observe(slot, s int, st transport.Stats) {
	if rs := r[s&1]; slot >= 0 && slot < len(rs) && s >= rs[slot].s {
		rs[slot] = stepReport{s, st}
	}
}

// fleetReport sums a superstep's W reports in slot order: the master and
// every worker add the same floats in the same order, so each judges the
// same bits.
func fleetReport(reps []stepReport) (sum transport.Stats) {
	for _, rep := range reps {
		sum.AccDelta, sum.Dirty = sum.AccDelta+rep.st.AccDelta, sum.Dirty || rep.st.Dirty
	}
	return sum
}

// onVerdict sees every superstep verdict — who judged (a worker's slot,
// or the master's transport id), the superstep within the fixpoint, the
// fleet report judged, and the cause — for tests.
var onVerdict = func(who, round int, fleet transport.Stats, c term.Cause) {}

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
	// a pending snapshot episode or membership fence.
	w.joinFences()
	if progressed {
		// Only productive passes count as effective iterations (the
		// ε gating and the system-level cap both key off them).
		w.passes++
		// Yield between passes so the master's termination check (and
		// the comm goroutines) are never starved by spinning compute.
		stdruntime.Gosched()
	}
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
