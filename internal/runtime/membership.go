package runtime

import (
	"fmt"
	"slices"
	"time"

	"powerlog/internal/term"
	"powerlog/internal/transport"
)

// Crash re-join (DESIGN.md §11): a lost worker is replaced in place
// without restarting the fixpoint. A fleet keeps the Workers slots it was
// opened with; a slot's incarnation may change, its ownership never does.
//
// The master's one liveness rule (rejoin) declares a worker lost, the
// session respawns its slot on a fresh transport endpoint, and a fence of
// class FenceMember (fence.go) whose request names the slot lost repairs
// state inside one cut. The repair is a function of the aggregate class,
// which every worker knows from its plan: survivors of a selective
// (min/max) fleet replay their accumulations toward the replacement's
// keys (sound by Theorem 3's replay tolerance), while a combining
// (sum/count) fleet, which tolerates neither loss nor replay, resets
// every shard to the current ΔX¹ seed, and a naive fleet, which
// re-derives from its base tuples every superstep anyway, starts over
// from them. At the cut every worker renews the links the replacement
// begins and zeroes the termination-protocol counters, so the master's
// counting quiescence restarts from an exact zero; a barriered fleet also
// restarts its supersteps from the master's base (rebase).
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
// are held.
func (w *worker) down(j int) bool {
	f := &w.fences[transport.FenceMember]
	return f.req.epoch > f.done && slices.Contains(f.req.down, j)
}

// peerSkip reports whether slot j is excluded from cohort minima: self.
// A lost peer stays in: a cut or gate blocked on its mark ends when the
// liveness rule releases the fence, or at the membership fence its wait
// joins first (awaitPeers).
func (w *worker) peerSkip(j int) bool { return j == w.id }

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

// repairState repairs this shard inside the cut. A naive fleet empties
// every shard: its next superstep re-derives from the base tuples alone.
// A combining fleet resets every shard, the replacement's too, to the ΔX¹
// seed: Plan.ApplyMutation rebuilds the seed on every batch, so this
// recomputes the current mutation epoch's fixpoint from scratch (DESIGN.md
// §11). A selective fleet keeps its state, and survivors replay their
// accumulations toward the lost slots (the replacement seeded its share
// of ΔX¹ at spawn; Theorem 3 makes the replay idempotent).
func (w *worker) repairState(t transition) {
	switch {
	case !w.cfg.Mode.MRA():
		w.resetTable()
		w.next = w.newTable()
		w.apply = w.next
	case !w.plan.Op.Selective():
		w.resetTable()
		w.seed(w.plan.InitMRA)
	case slices.ContainsFunc(t.down, func(j int) bool { return j != w.id }):
		w.replayForDown()
	}
}

// resetTable empties the shard and discards every buffered outbound
// update (the reseeded state re-derives them).
func (w *worker) resetTable() {
	for _, b := range w.bufs {
		b.reset()
	}
	w.table = w.newTable()
	w.apply = w.table
	w.accSum, w.accDelta, w.accFolds = 0, 0, 0
}

// replayForDown re-propagates every accumulated value whose
// contributions reach keys owned by a lost slot, buffering them for the
// replacement (flushes toward lost slots stay held until the fence
// commits). Together with the replacement's own seed, this re-derives
// the lost shard: boundary contributions arrive by replay, interior
// chains re-derive locally from them. Selective
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

// rebase restarts a barriered worker's supersteps at a membership cut:
// the fleet resumes at superstep base+1, past every superstep a worker may
// have cut before (master.stepBase), judged by a fresh barrier. What the
// worker knew of supersteps past the last one collected whole — its
// peers' marks and reports, its own count — belongs to the old numbering;
// bspBarrier.endPass sees the member fence commit and leaves its gate for
// the next superstep.
func (w *worker) rebase(base int) {
	w.rounds = base
	w.bar, w.barFrom = term.NewBarrier(termConfig(w.plan, w.cfg)), base
	clear(w.steps[0])
	clear(w.steps[1])
	for j := range w.fences[transport.FenceStep].marks {
		w.fences[transport.FenceStep].marks[j] = base
	}
}

// ---------------------------------------------------------------------
// Master side: the liveness rule.
// ---------------------------------------------------------------------

// rejoin is the master's one liveness rule (DESIGN.md §11), run by every
// collect that passes its deadline with slots missing — an async wave, a
// superstep's step acks, a driven fence (short, which then fell short);
// silent says which slots it still awaits. It re-solicits them once:
// a live worker answers a StatsRequest wherever it blocks — at a gate,
// inside a fence, in a flush — so a slot silent through a second deadline
// is lost; whatever arrives meanwhile is left for the collect. It reports
// true when no slot is lost: the collect goes on, however slow. Otherwise
// it releases the short fence, so no survivor waits on it, and runs a
// membership fence that replaces the lost slots — a member fence that
// fell short is re-driven with its own lost slots too, whose replacements
// it may have released unrepaired — if a Session owns the fleet and
// some slot survives; else the run ends with ErrWorkerLost. It then
// reports false, and m.cause says whether the fixpoint resumes (StopNone)
// or the run ended. A short park is driven again only once the stop
// decision is taken again, under a fresh number: a worker skips any fence
// it has seen released.
func (m *master) rejoin(silent func(j int) bool, short *transition) bool {
	m.met.collectTimeouts.Inc()
	if time.Now().After(m.wall) {
		m.halt(StopWall)
		return false
	}
	m.met.collectProbes.Inc()
	var lost []int
	for j := range m.nw {
		if silent(j) {
			lost = append(lost, j)
			m.sendTo(j, transport.Message{Kind: transport.StatsRequest, Round: m.gRound})
		}
	}
	var kept []transport.Message
	for deadline := time.Now().Add(m.collectTimeout()); len(lost) > 0; {
		msg, ok, timedOut := m.recvWithin(time.Until(deadline))
		if !ok {
			return false
		} else if timedOut {
			break
		}
		kept = append(kept, msg)
		lost = slices.DeleteFunc(lost, func(j int) bool { return j == msg.From })
	}
	m.pending = append(kept, m.pending...)
	if len(lost) == 0 {
		return true
	}
	if short != nil && short.class == transport.FenceMember {
		lost = append(lost, short.down...)
		slices.Sort(lost)
		lost = slices.Compact(lost)
	}
	if short != nil {
		m.release(*short)
	}
	if m.s == nil || len(lost) >= m.nw {
		m.err = fmt.Errorf("runtime: %d of %d workers silent past the collect deadline and a probe (%v each): %w",
			len(lost), m.nw, m.collectTimeout(), ErrWorkerLost)
		m.halt(StopWorkerLost)
		return false
	}
	decided := time.Now()
	// Respawn first, request after: the reset endpoint is the fresh inbox
	// the request lands in, and a send to the dead one could only wait on
	// an inbox nobody drains.
	for _, id := range lost {
		m.s.respawnWorker(id)
	}
	if modeBarriered[m.cfg.Mode] {
		m.gRound = m.stepBase()
	}
	m.fence++
	m.drive(transition{class: transport.FenceMember, epoch: m.fence, down: lost, base: m.gRound}, decided)
	return false
}

// stepBase is the superstep a barriered fleet restarts from at a
// membership cut: past every superstep a worker may have cut under the
// old numbering, so that no checkpoint stamp (MutEpoch, s) is cut twice —
// a partial cut of the old run must never be completed by shards of the
// new. A worker acks superstep s after its cut, and before it marks s+1;
// a cut of s+1 needs every slot's mark for s+1. So no worker can have cut
// past the highest step ack the master holds, plus one for a slot that
// died between its cut and its ack.
func (m *master) stepBase() int {
	base := m.gRound
	for _, r := range m.acks[transport.FenceStep] {
		base = max(base, r.s)
	}
	for _, msg := range slices.Concat(m.later, m.pending) {
		if msg.Kind == transport.FenceAck && msg.Fence == transport.FenceStep {
			base = max(base, msg.Round)
		}
	}
	return base + 1
}

// settleMember is the membership fence's bookkeeping after the release:
// the counters, and the session rebasing its per-epoch traffic
// baselines — the fence zeroed the fleet's counters.
func (m *master) settleMember(t transition) {
	m.met.memberOrphans.Add(uint64(len(t.down)))
	m.met.memberJoins.Add(uint64(len(t.down)))
	m.s.prevSent, m.s.prevRecv, m.s.prevFlush = 0, 0, 0
}
