package runtime

import (
	"fmt"
	"slices"
	"time"

	"powerlog/internal/transport"
)

// The fence is the runtime's one coordination primitive beyond data
// exchange: a consistent cut (Chandy–Lamport on the FIFO data lanes) at
// which the master may look at, or change, the fleet. DESIGN.md "The
// fence" has the message table; the worker's half is
//
//	flush every buffer
//	→ FenceMark(class, epoch) to every other slot on the data lane
//	→ fold the inbox until the cohort's marker clock reaches the epoch,
//	  re-sending the mark every markerResend (per-pair FIFO: everything
//	  folded was sent before the sender's mark — the cut is consistent)
//	→ run the class's action at the cut
//	→ FenceAck to the master, carrying what the action reported
//	→ fold until FenceRelease, then commit.
//
// Snapshot episodes, session parking and crash re-join are three
// fenceSpecs of that loop. They differ in whose marks the cut waits for,
// what runs at the cut, and what the master does when a collect falls
// short and after it releases. The master's half is one function, drive:
// it sends a transition's FenceRequest, collects the acks and releases.
// The fourth class, the end of a BSP superstep, is the same cut with no
// request and no release (barrier.go): each worker opens it itself, its
// marks carry the superstep's report, every worker judges the superstep
// once it holds the fleet's reports, and runBSP only collects the acks.

// maxSteps is the "nothing to wait for" value a marker-clock minimum
// returns when no peer remains to wait on.
const maxSteps = int(^uint(0) >> 1)

// markClock is a per-peer marker clock: slot j holds the highest fence
// epoch peer j has marked. Stamps only merge by max, so a duplicated or
// retransmitted marker is a no-op and a dropped one is healed by any
// later (or re-sent) marker from the same peer. Every fence class keeps
// its FenceMark stamps in one; the step class's stamp supersteps, and the
// SSP staleness gate reads that clock too.
type markClock []int

// observe merges one announced stamp (a peer outside the clock, e.g. a
// misrouted frame, is ignored).
func (c markClock) observe(peer, stamp int) {
	if peer >= 0 && peer < len(c) && stamp > c[peer] {
		c[peer] = stamp
	}
}

// min is the cohort minimum every wait in the runtime gates on: the
// least stamp over the slots skip does not exclude, or maxSteps when no
// slot remains.
func (c markClock) min(skip func(j int) bool) int {
	least := maxSteps
	for j, s := range c {
		if skip(j) {
			continue
		}
		if s < least {
			least = s
		}
	}
	return least
}

// resetUpTo forgets what slot peer announced, up to and including stamp:
// the slot was replaced, and those stamps belong to its previous
// incarnation. A higher stamp stays — it can only have come from the new
// incarnation, whose mark for the very fence that renews the link
// arrives before this worker's own cut.
func (c markClock) resetUpTo(peer, stamp int) {
	if c[peer] <= stamp {
		c[peer] = 0
	}
}

// transition is one epoch transition: a fence of one class and what the
// fleet does inside it. The master builds it and drive runs it; a worker
// keeps the newest one of each class the master has requested
// (fenceState.req) and runs its half in fence.
type transition struct {
	class transport.FenceClass
	epoch int // the fence's number within its class: its Round
	// A membership fence's lost slots, each replaced in place; the repair
	// follows the aggregate class (worker.repairState).
	down []int
}

// request is the transition's FenceRequest, the one message that opens a
// fence; transitionOf is a worker's reading of it.
func (t transition) request() transport.Message {
	m := transport.Message{Kind: transport.FenceRequest, Fence: t.class, Round: t.epoch}
	if t.class == transport.FenceMember {
		mb := &transport.Membership{}
		for _, j := range t.down {
			mb.Down = append(mb.Down, int32(j))
		}
		m.Member = mb
	}
	return m
}

func transitionOf(m transport.Message) transition {
	t := transition{class: m.Fence, epoch: m.Round}
	if mb := m.Member; mb != nil {
		for _, j := range mb.Down {
			t.down = append(t.down, int(j))
		}
	}
	return t
}

// renews reports whether the transition replaces slot j: an incarnation
// of j ends and the next begins at its cut.
func (t transition) renews(j int) bool { return slices.Contains(t.down, j) }

// fenceState is a worker's view of one fence class.
type fenceState struct {
	req      transition // the highest-epoch request the master has sent
	done     int        // highest epoch this worker has finished
	released int        // highest epoch the master has released
	marks    markClock  // per-peer FenceMark stamps
}

// fenceSpec is what tells the fence classes apart, on both sides: the
// worker's cohort, action and commit, and the master's reading of a
// collect. Every slot acks, and every class collects within fenceTimeout
// — a failure deadline, never a pace.
type fenceSpec struct {
	name string
	// replaced makes the cut wait for the lost slots' marks too: their
	// replacements mark like any survivor. Every other class skips a slot
	// a pending membership request names lost, which is what unwedges a
	// fence blocked on a dead worker's marker.
	replaced bool
	// atCut runs once the cut is complete: every cohort member's
	// pre-fence data has been folded and none sends more until released.
	// What it returns rides in the ack.
	atCut func(w *worker, t transition) transport.Stats
	// nested joins snapshot and membership fences while this one waits
	// for its release.
	nested bool
	// commit runs after the release, before the worker resumes.
	commit func(w *worker, t transition)

	// abandon releases a fence whose collect fell short; otherwise the
	// run stops with StopFenceAborted.
	abandon bool
	// held leaves the release to the session (drive returns at the acks).
	held bool
	// settle is the master's bookkeeping after the release.
	settle func(m *master, t transition)
}

var fenceSpecs = [transport.NumFenceClasses]fenceSpec{
	// The async family's and SSP's checkpoint, for every aggregate.
	// Workers send nothing between their mark and the release, so the
	// union of the shards is the state on one cut line. Best-effort: a
	// failed shard write must not kill the run, and the master releases a
	// short collect too (LoadAll passes over the incomplete cut and falls
	// back to the last complete one).
	transport.FenceSnapshot: {
		name: "snapshot",
		atCut: func(w *worker, t transition) transport.Stats {
			_ = w.snapshot(t.epoch)
			return transport.Stats{}
		},
		abandon: true,
	},
	// The session epoch boundary. Once every worker has acked, no peer
	// sends Data again this epoch, so the session goroutine — which saw
	// the acks through the master's inbox, a happens-before edge — may
	// read and mutate the tables until it releases the fence at the next
	// Apply.
	transport.FencePark: {
		name:   "park",
		nested: true,
		commit: func(w *worker, _ transition) { w.idle = newIdleReports() },
		held:   true,
	},
	// A crash repair (membership.go). The action sends nothing: survivor
	// replay stays buffered toward the lost slots until the commit (down),
	// and a reseed discards every buffer.
	transport.FenceMember: {
		name:     "membership",
		replaced: true,
		atCut: func(w *worker, t transition) transport.Stats {
			w.repairState(t)
			w.renewLinks(t)
			// No worker sends or counts Data between its cut and its
			// release, so zeroing here on every participant gives the
			// master's Σsent == Σrecv test an exact fresh baseline.
			w.sent, w.recv, w.flushes = 0, 0, 0
			w.idle = newIdleReports()
			return transport.Stats{}
		},
		commit: func(w *worker, _ transition) {
			w.joinGate = false
		},
		settle: (*master).settleMember,
	},
	// The end of a BSP superstep never runs through fence: its gate and its
	// work at the cut are bspBarrier's.
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
// flushable: pass boundaries, the step gate, and the parked wait.
func (w *worker) joinFences() {
	for _, c := range [...]transport.FenceClass{transport.FenceSnapshot, transport.FenceMember} {
		if w.fencePending(c) && !w.halted() {
			w.fence(c)
		}
	}
}

// fence takes part in the requested fence of class c and reports false
// if the worker halted inside it.
func (w *worker) fence(c transport.FenceClass) bool {
	s, f := &fenceSpecs[c], &w.fences[c]
	// The request is copied: a successor's FenceRequest may overwrite
	// f.req before this fence commits (the master moves on at the release).
	t := f.req
	e := t.epoch
	skip := w.peerSkip
	if s.replaced {
		skip = func(j int) bool { return j == w.id }
	}
	mark := func() {
		m := transport.Message{Kind: transport.FenceMark, Fence: c, Round: e}
		w.eachPeer(func(j int) { w.enqueue(j, m) })
	}
	// A release that overtakes the cut means the master gave the fence up
	// (an abandoned snapshot episode): skip the action and the ack.
	cut := func() bool { return f.released >= e || f.marks.min(skip) >= e }
	w.flushAll()
	mark()
	if !w.foldUntil(cut, func() {
		w.met.markerResends.Inc()
		mark()
	}) {
		return false
	}
	if f.released < e {
		var report transport.Stats
		if s.atCut != nil {
			report = s.atCut(w, t)
		}
		w.enqueue(w.master, transport.Message{Kind: transport.FenceAck, Fence: c, Round: e, Stats: report})
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
		s.commit(w, t)
	}
	return !w.halted()
}

// drive runs one transition's master half: it sends the FenceRequest to
// the fleet, collects one ack from each worker within fenceTimeout and
// releases the fence — except a park, which the session holds until the
// next Apply — then does the class's bookkeeping. decided is when the
// master decided on the transition (before any worker was spawned for
// it); the fence's duration from there goes into master.fence.<class>_us.
// drive reports false when the run cannot go on: the network closed, or
// a collect the class cannot abandon fell short, in which case m.err says
// what was missing and the fleet is stopped (StopFenceAborted).
func (m *master) drive(t transition, decided time.Time) bool {
	s := &fenceSpecs[t.class]
	m.bcast(t.request())
	need := m.nw
	got, open := m.collectAcks(t.class, t.epoch, need, m.fenceTimeout(), false)
	if !open {
		return false
	}
	if got < need && !s.abandon {
		m.met.collectTimeouts.Inc()
		m.err = fmt.Errorf("runtime: %s fence %d got %d/%d acks within %v: %w",
			s.name, t.epoch, got, need, m.fenceTimeout(), ErrWorkerLost)
		m.halt(StopFenceAborted)
		return false
	}
	if !s.held {
		m.bcast(transport.Message{Kind: transport.FenceRelease, Fence: t.class, Round: t.epoch})
	}
	if s.settle != nil {
		s.settle(m, t)
	}
	m.met.fenceUS[t.class].Observe(uint64(time.Since(decided).Microseconds()))
	return true
}

// fenceTimeout bounds one fence: quiesce + (possibly) a checkpoint
// write per worker. Far looser than a collect's deadline —
// disk is involved, and a park or membership fence is not one report but
// the slowest participant's whole cut — but still bounded, so a worker
// dying mid-fence surfaces as an error, not a hang.
func (m *master) fenceTimeout() time.Duration {
	d := 20 * m.collectTimeout()
	if d < 2*time.Second {
		d = 2 * time.Second
	}
	if m.cfg.MaxWall > 0 && d > m.cfg.MaxWall {
		d = m.cfg.MaxWall
	}
	return d
}

// collectAcks folds the master's inbox until need FenceAcks for fence
// (c, epoch) have arrived or the wait runs out — wait from now, or, with
// perAck, from the last ack — and returns how many did, each ack's report
// in m.acks; open is false if the network closed underneath. An
// ack for a later fence of the class is kept for the collect it belongs
// to: a BSP worker starts superstep s+1 as soon as it holds its peers'
// reports for s, and nothing bounds how far its acks may overtake a slow
// peer's. Anything else that arrives (late stats replies) describes the
// world before the cut and is dropped — the poll loop starts afresh after
// the release.
func (m *master) collectAcks(c transport.FenceClass, epoch, need int, wait time.Duration, perAck bool) (got int, open bool) {
	deadline := time.Now().Add(wait)
	// Kept acks are filtered in place: one lands at or below the one read.
	held := m.later
	m.later = m.later[:0]
	for got < need {
		msg, ok, timedOut := transport.Message{}, true, false
		if len(held) > 0 {
			msg, held = held[0], held[1:]
		} else if msg, ok, timedOut = m.recvWithin(time.Until(deadline)); !ok {
			return got, false
		} else if timedOut {
			break
		}
		switch {
		case msg.Kind != transport.FenceAck || msg.Fence != c || msg.Round < epoch:
		case msg.Round > epoch:
			m.later = append(m.later, msg)
		default:
			got++
			m.acks.observe(msg.From, msg.Round, msg.Stats)
			if perAck {
				deadline = time.Now().Add(wait)
			}
		}
	}
	m.later = append(m.later, held...)
	return got, true
}
