package runtime

import (
	"slices"
	"time"

	"powerlog/internal/ckpt"
	"powerlog/internal/transport"
)

// Crash re-join (DESIGN.md §11): a lost worker is replaced in place
// without restarting the fixpoint. A fleet keeps the Workers slots it was
// opened with; a slot's incarnation may change, its ownership never does.
//
// The master's liveness probe declares a worker lost, the session
// respawns its slot on a fresh transport endpoint, and a fence of class
// FenceMember (fence.go) whose request names the slot lost repairs
// state inside one cut: survivors replay their accumulations toward the
// replacement's keys (selective aggregates, sound by Theorem 3's replay
// tolerance) or the whole fleet rolls back to the newest consistent-cut
// checkpoint (combining aggregates, which tolerate neither loss nor
// replay). At the cut every worker renews the links the replacement
// begins and zeroes the termination-protocol counters, so the master's
// counting quiescence restarts from an exact zero.
//
// Every slot takes part — survivors and the replacement send markers to
// and require markers from every other slot — so the cut needs no
// knowledge of who is a replacement; the transport fences a reset
// endpoint's stale connection off the network, so no pre-fence
// straggler can leak past the cut.

// ---------------------------------------------------------------------
// Worker side: the actions inside the membership fence.
// ---------------------------------------------------------------------

// down reports whether the pending membership fence names slot j lost:
// from the request's arrival until the fence commits, flushes toward j
// are held and live-cohort minima skip it.
func (w *worker) down(j int) bool {
	f := &w.fences[transport.FenceMember]
	return f.req.epoch > f.done && slices.Contains(f.req.down, j)
}

// peerSkip reports whether slot j is excluded from live-cohort minima:
// self, and lost peers (their replacement restarts every clock at the
// fence).
func (w *worker) peerSkip(j int) bool { return j == w.id || w.down(j) }

// eachPeer calls f for every other slot. Lost peers are included —
// broadcasts to a lost slot reach its replacement, or die harmlessly with
// the reset inbox.
func (w *worker) eachPeer(f func(j int)) {
	for j := range w.bufs {
		if j != w.id {
			f(j)
		}
	}
}

// repairState applies the master's rollback directive inside the cut.
//
//	rollback > 0: reload this shard from consistent-cut epoch `rollback`
//	              (combining aggregates after a crash — the whole fleet
//	              rewinds to the same cut);
//	rollback < 0: reset to the ΔX¹ seed (combining aggregates with no
//	              usable cut — only issued when the seed is still the
//	              true initial state, i.e. no mutations applied);
//	rollback = 0: keep state; survivors of a crash replay their
//	              accumulations toward the lost shard's keys (selective
//	              aggregates — Theorem 3 makes the replay idempotent).
func (w *worker) repairState(t transition) {
	switch {
	case t.rollback > 0:
		w.reloadCut(t.rollback)
	case t.rollback < 0:
		w.resetToSeed()
	case w.plan.Op.Selective() && slices.ContainsFunc(t.down, func(j int) bool { return j != w.id }):
		w.replayForDown()
	}
}

// resetTable empties the shard and discards every buffered outbound
// update (rollback paths: the reloaded or reseeded state re-derives
// them).
func (w *worker) resetTable() {
	for _, b := range w.bufs {
		b.reset()
	}
	w.table = w.newTable()
	w.apply = w.table
	w.accSum, w.accDelta, w.accFolds = 0, 0, 0
}

// reloadCut rewinds this shard to the given consistent-cut epoch. The
// session holds a checkpoint read lease across the fence, so the epoch
// the master chose cannot be pruned between its decision and this read;
// a missing shard therefore only happens under external damage, in
// which case the seed fallback at least keeps selective programs
// correct (monotone re-derivation) rather than wedging the fence.
func (w *worker) reloadCut(epoch int) {
	w.resetTable()
	rows, _, err := ckpt.LoadShard(w.cfg.SnapshotDir, epoch, w.id)
	if err != nil {
		w.seed(w.plan.InitMRA)
		return
	}
	w.restore(rows)
}

func (w *worker) resetToSeed() {
	w.resetTable()
	w.seed(w.plan.InitMRA)
}

// replayForDown re-propagates every accumulated value whose
// contributions reach keys owned by a lost slot, buffering them for the
// replacement (flushes toward lost slots stay held until the fence
// commits). Together with the replacement's own warm-start or
// seed, this re-derives the lost shard: boundary contributions arrive
// by replay, interior chains re-derive locally from them. Selective
// aggregates only — replayed deltas are idempotent under min/max
// (Theorem 3), so values the replacement already has simply re-fold.
func (w *worker) replayForDown() {
	w.table.Range(func(k int64, acc float64) bool {
		w.plan.PropagateInto(w.scratch, k, acc, func(dst int64, v float64) {
			if o := w.owner(dst); o != w.id && w.down(o) {
				w.bufs[o].add(dst, v)
			}
		})
		return true
	})
}

// renewLinks restarts per-link protocol state at a membership cut, on
// both ends of every link whose incarnation the transition ends or
// begins — a replaced slot — while survivor↔survivor links keep their
// continuity. A renewed worker also forgets the Data windows of its own
// links: a survivor not yet told of the fence may have flushed into the
// replacement's fresh inbox under its old sequence. Nothing is in flight
// to mix the generations up: no worker sends Data between its cut and its
// release, so whichever end commits first, the other already counts from
// the new sequence.
//
// A renewed link restarts its Data sequence and dedup window, and its
// step clock outright (a new incarnation counts supersteps from zero);
// every other fence clock is cleared only up to the last fence of its
// class this worker finished (markClock.resetUpTo says why), which keeps
// this fence's own marks.
func (w *worker) renewLinks(t transition) {
	self := t.renews(w.id)
	for j := range w.dataSeen {
		switch {
		case j == w.id:
		case t.renews(j):
			w.dataSeq[j] = 0
			w.dataSeen[j] = dedupWindow{}
			for c := range w.fences {
				f := &w.fences[c]
				upTo := f.done
				if transport.FenceClass(c) == transport.FenceStep {
					upTo = maxSteps
				}
				f.marks.resetUpTo(j, upTo)
			}
		case self:
			w.dataSeen[j] = dedupWindow{}
		}
	}
}

// awaitAdmission is the gated prologue of a crash replacement: it sits
// on its inbox until the master's fence request arrives, participates in
// that fence like any survivor, and returns once released — at which
// point its table and link state are consistent with the fleet and the
// normal compute loop may start.
func (w *worker) awaitAdmission() {
	requested := func() bool { return w.fencePending(transport.FenceMember) }
	for w.joinGate && w.foldUntil(requested, func() {}) {
		w.fence(transport.FenceMember)
	}
}

// ---------------------------------------------------------------------
// Master side: liveness recovery.
// ---------------------------------------------------------------------

// recoverLost attempts live re-join for lost, the workers that stayed
// silent through a wave and its second-chance probe. It returns true
// when the fleet has been repaired and the poll loop should continue
// (with its detector state reset); false sends the caller to the
// abort path.
func (m *master) recoverLost(lost []int) bool {
	if m.s == nil || len(lost) == 0 || len(lost) >= m.nw {
		// No session to respawn into, nothing identifiably dead, or no
		// survivors to re-join against.
		return false
	}
	decided := time.Now()
	t := m.transition(transport.FenceMember, m.fence+1)
	t.down = lost
	// Respawn first, request after: the reset endpoint is the fresh inbox
	// the request lands in, and a send to the dead one could only wait on
	// an inbox nobody drains.
	for _, id := range lost {
		rb, ok := m.s.respawnWorker(id)
		if !ok {
			return false
		}
		if rb != 0 {
			t.rollback = rb
		}
	}
	m.fence++
	return m.drive(t, decided)
}

// settleMember is the membership fence's bookkeeping after the release:
// the counters, and the session rebasing its per-epoch counters — the
// fence zeroed the fleet's.
func (m *master) settleMember(t transition) {
	m.met.memberOrphans.Add(uint64(len(t.down)))
	m.met.memberJoins.Add(uint64(len(t.down)))
	m.s.fenceReleased()
}
