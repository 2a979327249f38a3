package runtime

import (
	"time"

	"powerlog/internal/transport"
)

// The fence is the runtime's one coordination primitive beyond data
// exchange: a master-driven consistent cut (Chandy–Lamport on the FIFO
// data lanes) at which the master may look at, or change, the fleet.
// DESIGN.md "The fence" has the message table; the worker's half is
//
//	flush every buffer
//	→ FenceMark(class, epoch, phase 1) to the cohort on the data lane
//	→ fold the inbox until the cohort's marker clock reaches the epoch,
//	  re-sending the mark every markerResend (per-pair FIFO: everything
//	  folded was sent before the sender's mark — the cut is consistent)
//	→ run the class's action at the cut
//	→ optionally a second marker round, fencing what the action sent
//	→ FenceAck to the master
//	→ fold until FenceRelease, then commit.
//
// Snapshot episodes, session parking and membership changes are three
// fenceSpecs of that loop. They differ in who must mark (cohort), what
// runs at the cut, and what the master waits for before it releases.

// maxSteps is the "nothing to wait for" value a marker-clock minimum
// returns when no peer remains to wait on.
const maxSteps = int(^uint(0) >> 1)

// markClock is a per-peer marker clock: slot j holds the highest stamp
// peer j has announced. Stamps only merge by max, so a duplicated or
// retransmitted marker is a no-op and a dropped one is healed by any
// later (or re-sent) marker from the same peer. The BSP barrier and the
// SSP gate keep their EndPhase superstep counts in one, every fence
// class keeps its FenceMark stamps in one.
type markClock []int

// observe merges one announced stamp (a peer outside the clock, e.g. a
// misrouted frame, is ignored).
func (c markClock) observe(peer, stamp int) {
	if peer >= 0 && peer < len(c) && stamp > c[peer] {
		c[peer] = stamp
	}
}

// min is the cohort minimum every wait in the runtime gates on: the
// least stamp over the slots in cohort (nil = every slot) that skip
// does not exclude, or maxSteps when no slot remains.
func (c markClock) min(cohort []bool, skip func(j int) bool) int {
	least := maxSteps
	for j, s := range c {
		if (cohort != nil && !cohort[j]) || (skip != nil && skip(j)) {
			continue
		}
		if s < least {
			least = s
		}
	}
	return least
}

// resetUpTo forgets what slot peer announced, up to and including stamp:
// the slot was replaced, admitted or retired, and those stamps belong to
// its previous incarnation. A higher stamp stays — it can only have come
// from the new incarnation racing ahead, e.g. a successor fence's first
// marker overtaking this fence's FenceRelease (the master moves on the
// moment it sends a release). Wiping that marker would wedge the
// successor fence: a participant that has advanced to its second marker
// round never re-sends the first.
func (c markClock) resetUpTo(peer, stamp int) {
	if c[peer] <= stamp {
		c[peer] = 0
	}
}

// markStamp orders a fence's marker rounds on one clock: both rounds of
// fence e sort above every round of fence e-1, and round 2 above round 1
// — so a second-round marker also satisfies a first-round wait. That is
// sound (per-pair FIFO: the sender's pre-fence data was folded before
// its second marker arrived) and heals a lost first-round marker.
func markStamp(epoch int, phase uint8) int { return 2*epoch + int(phase) - 1 }

// fenceReq is one FenceRequest's content.
type fenceReq struct {
	epoch    int
	rollback int // repair directive (membership fences; see repairState)
	admit    int // admitted slot, -1 for none (membership fences)
}

// fenceState is a worker's view of one fence class.
type fenceState struct {
	req      fenceReq  // the highest-epoch request the master has sent
	done     int       // highest epoch this worker has finished
	released int       // highest epoch the master has released
	marks    markClock // per-peer FenceMark stamps
}

// fenceSpec is what tells the fence classes apart.
type fenceSpec struct {
	// frozen fixes the cohort at entry: the members plus the admitted
	// slot, crash-orphaned slots included (their replacement marks like
	// any survivor). The route changes between the two marker rounds,
	// and a leaver dropped from it still has Handoffs in flight that its
	// second marker must fence. Unfrozen cohorts are the live peers: a
	// slot orphaned or retired mid-wait drops out of the minimum, which
	// is what unwedges a fence blocked on a dead worker's marker.
	frozen bool
	// atCut runs once the cut is complete: every cohort member's
	// pre-fence data has been folded and none sends more until released.
	atCut func(w *worker, r fenceReq)
	// second adds a marker round after atCut, so that what the action
	// sent (Handoffs) is also folded everywhere before anyone acks.
	second bool
	// nested joins snapshot and membership fences while this one waits
	// for its release (a parked fleet is still resizable).
	nested bool
	// commit runs after the release, before the worker resumes.
	commit func(w *worker, r fenceReq)
}

var fenceSpecs = [transport.NumFenceClasses]fenceSpec{
	// A consistent-cut checkpoint for combining aggregates, where a
	// stale snapshot is not safe to restore (re-delivered deltas would be
	// double-counted). Workers send nothing between their mark and the
	// release, so the union of the shards is the state on one cut line.
	// Best-effort: a failed shard write must not kill the run, and the
	// master releases on a timeout too (LoadAll refuses the incomplete
	// epoch and falls back to the last complete one).
	transport.FenceSnapshot: {
		atCut: func(w *worker, r fenceReq) { _ = w.snapshot(r.epoch, true) },
	},
	// The session epoch boundary. Once every worker has acked, no peer
	// sends Data again this epoch, so the session goroutine — which saw
	// the acks through the master's inbox, a happens-before edge — may
	// read and mutate the tables until it releases the fence at the next
	// Apply.
	transport.FencePark: {
		nested: true,
		commit: func(w *worker, _ fenceReq) {
			w.verdictSet = false
			w.resetFrontier() // the session reseeded the shard
			w.idle = newIdleReports()
		},
	},
	// A membership change or crash repair (membership.go). Because every
	// participant acks only after the second marker round, the release
	// certifies that no migrated row is in flight.
	transport.FenceMember: {
		frozen: true,
		second: true,
		atCut: func(w *worker, r fenceReq) {
			w.applyMembership(r.admit)
			w.repairState(r.rollback)
			// No cohort member sends or counts Data between its cut and
			// its release, so zeroing here on every participant gives the
			// master's Σsent == Σrecv test an exact fresh baseline.
			w.sent, w.recv, w.flushes = 0, 0, 0
			w.idle = newIdleReports()
		},
		commit: func(w *worker, r fenceReq) { w.finishFence(r.admit) },
	},
}

// foldUntil folds the inbox until done reports true, calling onIdle
// every markerResend the wait lasts. It is the body of every blocking
// wait in the worker and reports false if the worker halted. The resend
// clock runs on the wait, not on silence: the master polls more often
// than markerResend, and a clock that restarted on every message would
// never let a waiter whose marker was dropped send it again.
func (w *worker) foldUntil(done func() bool, onIdle func()) bool {
	resend := time.Now().Add(markerResend)
	for !w.halted() && !done() {
		if w.await(time.Until(resend)) {
			onIdle()
			resend = time.Now().Add(markerResend)
		}
	}
	return !w.halted()
}

func (w *worker) fencePending(c transport.FenceClass) bool {
	return w.fences[c].req.epoch > w.fences[c].done
}

// joinFences joins a requested snapshot or membership fence. It is
// called only where no pass is half-scanned and the buffers are
// flushable: pass boundaries, the SSP gate, and the parked wait.
func (w *worker) joinFences() {
	for _, c := range [...]transport.FenceClass{transport.FenceSnapshot, transport.FenceMember} {
		if w.fencePending(c) && !w.halted() {
			w.fence(c)
		}
	}
}

// fence takes part in the requested fence of class c and reports false
// if the worker halted inside it (or retired at its commit).
func (w *worker) fence(c transport.FenceClass) bool {
	s, f := &fenceSpecs[c], &w.fences[c]
	// The request is copied: a successor's FenceRequest may overwrite
	// f.req before this fence commits (the master moves on at the release).
	req := f.req
	e := req.epoch
	var cohort []bool
	skip := w.peerSkip
	if s.frozen {
		cohort, skip = w.fenceCohort(req.admit), nil
	}
	phase := uint8(1)
	mark := func() {
		m := transport.Message{Kind: transport.FenceMark, Fence: c, Round: e, Phase: phase}
		if cohort == nil {
			w.eachPeer(func(j int) { w.enqueue(j, m) })
			return
		}
		for j, in := range cohort {
			if in {
				w.enqueue(j, m)
			}
		}
	}
	// A release that overtakes the cut means the master gave the fence up
	// (an abandoned snapshot episode): skip the action and the ack.
	cut := func() bool {
		return f.released >= e || f.marks.min(cohort, skip) >= markStamp(e, phase)
	}
	stalled := func() {
		w.met.markerResends.Inc()
		mark()
	}
	w.flushAll()
	mark()
	if !w.foldUntil(cut, stalled) {
		return false
	}
	if f.released < e {
		if s.atCut != nil {
			s.atCut(w, req)
		}
		if s.second {
			phase = 2
			mark()
			if !w.foldUntil(cut, stalled) {
				return false
			}
		}
		w.enqueue(w.master, transport.Message{Kind: transport.FenceAck, Fence: c, Round: e})
	}
	// Keep re-marking while held: a peer whose view of our mark was lost
	// is still blocked before its ack.
	released := func() bool {
		if s.nested {
			w.joinFences()
		}
		return f.released >= e
	}
	if !w.foldUntil(released, mark) {
		return false
	}
	f.done = e
	if s.commit != nil {
		s.commit(w, req)
	}
	return !w.halted()
}

// collectAcks folds the master's inbox until need FenceAcks for fence
// (c, epoch) have arrived or the deadline passes, and returns how many
// did; open is false if the network closed underneath. Anything else
// that arrives (late stats replies) describes the world before the cut
// and is dropped — the poll loop starts afresh after the release.
func (m *master) collectAcks(c transport.FenceClass, epoch, need int, deadline time.Time) (got int, open bool) {
	for got < need {
		msg, ok, timedOut := m.recvWithin(time.Until(deadline))
		if !ok {
			return got, false
		}
		if timedOut {
			break
		}
		if msg.Kind == transport.FenceAck && msg.Fence == c && msg.Round == epoch {
			got++
		}
	}
	return got, true
}
