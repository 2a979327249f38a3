package runtime

import (
	"time"

	"powerlog/internal/compiler"
	"powerlog/internal/metrics"
	"powerlog/internal/transport"
)

// MRASSP — stale synchronous parallel evaluation — is the point between
// BSP and AP that Das & Zaniolo argue often beats both: workers run
// supersteps like BSP (buffer a whole pass, flush at superstep end),
// but the barrier is relaxed — a worker may run up to Staleness
// supersteps ahead of the slowest peer before blocking on stragglers.
// Staleness = 0 degenerates to lockstep; Staleness = ∞ would be AP.
//
// This file is the whole mode: a FlushPolicy (barrier-style superstep
// batching), a BarrierPolicy (the staleness gate over the peers'
// step-fence marks), and a registration — the policy-layer seams make a new
// consistency model a one-file addition.
//
// Termination uses the polling master (like the async family): workers
// keep answering StatsRequest while blocked at the gate, so quiescence
// and ε detection work unchanged. Correctness rests on Theorem 3, which
// licenses any interleaving of fold/propagate for MRA programs — SSP
// merely constrains the schedule the theorem already covers.

func init() {
	registerMode(MRASSP, false, newSSPPolicies)
}

func newSSPPolicies(cfg Config, plan *compiler.Plan, self int, reg *metrics.Registry) policySet {
	return policySet{
		// Superstep batching: buffers flush only when the step ends
		// (barrier semantics), never on emit or the τ timer.
		flush:   barrierFlush{},
		sched:   withPriorityHold(baseScheduler(plan, reg), cfg, plan, reg),
		barrier: &sspBarrier{staleness: cfg.Staleness},
		pass:    (*worker).scanPass,
	}
}

// sspBarrier implements the staleness gate. steps counts the supersteps
// this worker has completed; each completion sends the peers a step-class
// FenceMark, and handle() merges the marks per sender into the step
// fence's clock — the one the gate reads. Unlike BSP, nobody acks: the
// gate is the fence's cut, relaxed by the staleness bound.
type sspBarrier struct {
	staleness int
	steps     int
	// announceBy is when an idle worker next repeats its marker. A peer
	// blocked at the gate on a marker of ours that was lost cannot ask for
	// it; an idle worker has no later marker coming that would cover the
	// loss, so it says where its clock stands every markerResend.
	announceBy time.Time
}

func (b *sspBarrier) setup(*worker) {}

func (b *sspBarrier) beginPass(w *worker) bool { return w.drainInbox() }

func (b *sspBarrier) endPass(w *worker, progressed bool) bool {
	// A superstep boundary is SSP's safe point for fences: join a pending
	// snapshot episode (combining aggregates) or membership fence;
	// selective aggregates write their local stale snapshot (Theorem 3)
	// in advance().
	w.joinFences()
	if !progressed {
		if w.pol.sched.release() {
			// §5.4: held low-priority deltas are used when the worker
			// would otherwise idle.
			return true
		}
		// An idle worker's clock ticks freely toward the frontier, so a
		// fast peer blocked at the gate can never deadlock on a peer
		// that simply has no work: the straggler catches up one marker
		// per idle pass until the gap closes.
		if b.steps < w.stepFrontier() {
			b.advance(w)
			return true
		}
		if time.Now().After(b.announceBy) {
			b.announce(w)
		}
		w.idleWait()
		return true
	}
	w.passes++
	w.pol.sched.rearm()
	b.advance(w)
	// The gate: before starting superstep steps+1, every peer must have
	// completed at least steps − Staleness.
	b.awaitPeerSteps(w, b.steps-b.staleness)
	return true
}

// advance completes one superstep: flush the pass's buffered updates,
// then fence them with this worker's step mark.
func (b *sspBarrier) advance(w *worker) {
	w.flushAll()
	b.steps++
	w.rounds++
	b.announce(w)
	w.maybeStaleSnapshot(b.steps)
}

// announce sends the peers the worker's step mark: the 1-based
// completed-step count, on the data lane, so per-pair ordering lands the
// data first. Receivers keep the max, so duplicates are no-ops and a
// dropped mark is covered by any later one.
func (b *sspBarrier) announce(w *worker) {
	m := transport.Message{Kind: transport.FenceMark, Fence: transport.FenceStep, Round: b.steps}
	w.eachPeer(func(j int) { w.enqueue(j, m) })
	b.announceBy = time.Now().Add(markerResend)
}

// stepFrontier is the highest stamp on the step clock, skipping lost
// slots like the gate's minimum does — the skip is what unwedges a gated
// worker blocked on a dead peer's frozen clock once the membership
// request naming it lost lands.
func (w *worker) stepFrontier() int {
	most := 0
	for j, s := range w.fences[transport.FenceStep].marks {
		if !w.peerSkip(j) && s > most {
			most = s
		}
	}
	return most
}

// awaitPeerSteps blocks until every peer has completed at least need
// supersteps, handling all control traffic (stats polls, Stop) while
// blocked. The blocked time is accounted as straggler wait — the SSP
// cost surfaced through Result.Workers. A stalled wait retransmits this
// worker's own marker (a lost one may be what blocks a peer), and a
// fence requested while blocked is joined inline — a gated worker that
// ignored the request would deadlock the fence against peers already
// waiting for its mark.
func (b *sspBarrier) awaitPeerSteps(w *worker, need int) {
	// A parked peer stops advancing its superstep clock, so the gate must
	// also yield to a pending park — the park fence (not the gate) is the
	// epoch's final synchronisation point.
	open := func() bool {
		w.joinFences()
		return w.fencePending(transport.FencePark) ||
			w.fences[transport.FenceStep].marks.min(w.peerSkip) >= need
	}
	if need <= 0 || open() {
		return
	}
	start := time.Now()
	w.foldUntil(open, func() {
		w.met.markerResends.Inc()
		b.announce(w)
	})
	blocked := time.Since(start)
	w.stragglerWait += blocked
	w.met.stragglerUS.Observe(uint64(blocked.Microseconds()))
}
