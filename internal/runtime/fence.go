package runtime

import (
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
// Session parking and crash re-join are two fenceSpecs of that loop.
// They differ in what runs at the cut and in whether the master releases
// the fence itself. The master's half is one function, drive: it sends a
// transition's FenceRequest, gathers the acks and releases; a gather that
// falls short goes to the liveness rule (master.rejoin), as every collect
// does. The third class, the end of a BSP superstep, is the same cut with
// no request and no release (barrier.go): each worker opens it itself,
// its marks carry the superstep's report, every worker judges the
// superstep once it holds the fleet's reports, and runBSP only collects
// the acks.

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
	// follows the aggregate class (worker.repairState). A barriered fleet
	// resumes at superstep base+1 (worker.rebase).
	down []int
	base int
}

// request is the transition's FenceRequest, the one message that opens a
// fence; transitionOf is a worker's reading of it.
func (t transition) request() transport.Message {
	m := transport.Message{Kind: transport.FenceRequest, Fence: t.class, Round: t.epoch}
	if t.class == transport.FenceMember {
		mb := &transport.Membership{Base: int32(t.base)}
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
		t.base = int(mb.Base)
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
// worker's action and commit, and the master's bookkeeping. Every
// slot acks, and a collect that falls short goes to the master's one
// liveness rule (master.rejoin), whatever the class.
type fenceSpec struct {
	// atCut runs once the cut is complete: every cohort member's
	// pre-fence data has been folded and none sends more until released.
	// What it returns rides in the ack.
	atCut func(w *worker, t transition) transport.Stats
	// nested joins membership fences while this one waits for its
	// release.
	nested bool
	// commit runs after the release, before the worker resumes.
	commit func(w *worker, t transition)

	// held leaves the release to the session (drive returns at the acks).
	held bool
	// settle is the master's bookkeeping after the release.
	settle func(m *master, t transition)
}

var fenceSpecs = [transport.NumFenceClasses]fenceSpec{
	// The session epoch boundary. Once every worker has acked, no peer
	// sends Data again this epoch, so the session goroutine — which saw
	// the acks through the master's inbox, a happens-before edge — may
	// read and mutate the tables until it releases the fence at the next
	// Apply.
	transport.FencePark: {
		nested: true,
		commit: func(w *worker, _ transition) { w.idle = newIdleReports() },
		held:   true,
	},
	// A crash repair (membership.go). The action sends nothing: survivor
	// replay stays buffered toward the lost slots until the commit (down),
	// and a reseed discards every buffer.
	transport.FenceMember: {
		atCut: func(w *worker, t transition) transport.Stats {
			// A BSP worker's held next-superstep data was sent before the
			// cut: it folds now, into the state the repair keeps or resets.
			w.receive(w.early...)
			w.early = w.early[:0]
			w.repairState(t)
			w.renewLinks(t)
			// No worker sends or counts Data between its cut and its
			// release, so zeroing here on every participant gives the
			// master's Σsent == Σrecv test an exact fresh baseline.
			w.sent, w.recv, w.flushes = 0, 0, 0
			w.idle = newIdleReports()
			if modeBarriered[w.cfg.Mode] {
				w.rebase(t.base)
			}
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

// joinFences joins a requested membership fence. It is called only
// where no pass is half-scanned and the buffers are flushable: pass
// boundaries, the step gate, and the parked wait.
func (w *worker) joinFences() {
	if w.fencePending(transport.FenceMember) && !w.halted() {
		w.fence(transport.FenceMember)
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
	mark := func() {
		m := transport.Message{Kind: transport.FenceMark, Fence: c, Round: e}
		w.eachPeer(func(j int) { w.enqueue(j, m) })
	}
	// A release that overtakes the cut means the liveness rule gave the
	// fence up on a lost peer: skip the action and the ack.
	cut := func() bool { return f.released >= e || f.marks.min(w.peerSkip) >= e }
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
// the fleet, gathers every worker's ack and releases the fence — except a
// park, which the session holds until the next Apply — then does the
// class's bookkeeping. decided is when the master decided on the
// transition (before any worker was spawned for it); the fence's duration
// from there goes into master.fence.<class>_us. drive reports whether the
// fence completed. If it did not, the network closed or the liveness rule
// found a slot lost, released the fence and repaired the fleet — or ended
// the run: m.cause says which.
func (m *master) drive(t transition, decided time.Time) bool {
	s := &fenceSpecs[t.class]
	m.bcast(t.request())
	if !m.gather(t.class, t.epoch, &t) {
		return false
	}
	if !s.held {
		m.release(t)
	}
	if s.settle != nil {
		s.settle(m, t)
	}
	m.met.fenceUS[t.class].Observe(uint64(time.Since(decided).Microseconds()))
	return true
}

func (m *master) release(t transition) {
	m.bcast(transport.Message{Kind: transport.FenceRelease, Fence: t.class, Round: t.epoch})
}

// gather collects every slot's ack for fence (c, epoch), running the
// liveness rule each time a collect deadline passes with slots missing;
// short is the driven fence the acks belong to (nil for a superstep's).
// It reports whether every ack arrived. If not, the network closed or
// the rule found slots lost.
func (m *master) gather(c transport.FenceClass, epoch int, short *transition) bool {
	for got := 0; ; {
		n, open := m.collectAcks(c, epoch, m.nw-got, m.collectTimeout())
		if got += n; got == m.nw {
			return true
		}
		if !open || !m.rejoin(func(j int) bool { return m.acks[c][j].s != epoch }, short) {
			return false
		}
	}
}

// collectAcks folds the master's inbox until need FenceAcks for fence
// (c, epoch) have arrived or wait passes with none — the deadline is per
// ack — and returns how many did, each ack's report in m.acks[c]; open is
// false if the network closed underneath. An ack for a later fence of the
// class is kept for the collect it belongs to: a BSP worker starts
// superstep s+1 as soon as it holds its peers' reports for s, and nothing
// bounds how far its acks may overtake a slow peer's. Anything else that
// arrives (late stats replies) describes the world before the cut and is
// dropped — the poll loop starts afresh after the release.
func (m *master) collectAcks(c transport.FenceClass, epoch, need int, wait time.Duration) (got int, open bool) {
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
		case msg.From < 0 || msg.From >= m.nw:
		default:
			got++
			m.acks[c][msg.From] = stepReport{msg.Round, msg.Stats}
			deadline = time.Now().Add(wait)
		}
	}
	m.later = append(m.later, held...)
	return got, true
}
