package runtime

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"powerlog/internal/ckpt"
	"powerlog/internal/graph"
	"powerlog/internal/transport"
)

// Elastic cluster membership (DESIGN.md §11): live worker re-join and
// shard rebalancing without restarting the fixpoint.
//
// Every change happens inside a membership fence — the FenceMember spec
// of the fence primitive (fence.go): a two-round cut over a frozen
// cohort that establishes a globally quiescent point, applies a
// membership or state change inside it, and resets the
// termination-protocol counters so the master's counting quiescence
// restarts from an exact zero. Three events drive one:
//
//   - crash re-join: the master's liveness probe declares a worker lost,
//     the session respawns its slot on a fresh transport endpoint, and a
//     fence whose request names the slot lost repairs state — survivors
//     replay their accumulations toward the replacement's keys (selective
//     aggregates, sound by Theorem 3's replay tolerance) or the whole
//     fleet rolls back to the newest consistent-cut checkpoint (combining
//     aggregates, which tolerate neither loss nor replay);
//   - scale-out (Session.AddWorker): a new worker is admitted, every
//     worker adds it to the consistent-hash ring at the cut, and rows
//     that re-hash to the newcomer migrate as keyed Handoff streams;
//   - scale-in (Session.RemoveWorker): the request names the slot
//     leaving; at the cut it migrates its whole shard out, acks, and
//     retires after the release.
//
// Every fence participant — survivors, the replacement, the newcomer,
// the leaver — sends markers to and requires markers from all other
// participants, so the cut needs no knowledge of who is a replacement;
// the transport fences a reset endpoint's stale connection off the
// network, so no pre-fence straggler can leak past the cut.

// vnodesPerMember is how many ring points each member contributes.
// 64 keeps the expected load imbalance under a few percent for the
// small fleets the in-process runtime targets while the ring stays tiny
// (cap × 64 points).
const vnodesPerMember = 64

// ringPoint is one vnode on the consistent-hash ring.
type ringPoint struct {
	hash uint64
	id   int32
}

// shardRoute maps keys to owning workers. Static fleets (members == nil)
// use the original modulo partitioning — bit-identical routing to the
// pre-membership engine. Elastic fleets route over a consistent-hash
// ring rebuilt from the current membership, so adding or removing a
// member moves only the key ranges owned by that member's vnodes.
type shardRoute struct {
	mod     int    // static: modulo over the fixed fleet size
	recip   uint64 // static: ⌊2⁶³/mod⌋+1, split's reciprocal
	members []bool // elastic: current membership by slot (nil = static)
	ring    []ringPoint
}

func newShardRoute(cfg Config) *shardRoute {
	r := &shardRoute{mod: cfg.Workers, recip: 1<<63/uint64(cfg.Workers) + 1}
	if cfg.Elastic {
		r.members = make([]bool, cfg.fleetCap())
		for j := 0; j < cfg.Workers; j++ {
			r.members[j] = true
		}
		r.rebuild()
	}
	return r
}

// pointHash places vnode replica rep of member id on the ring. Pure
// function of (id, rep), so every worker — including one admitted
// mid-run — derives the identical ring from the same membership.
func pointHash(id, rep int) uint64 {
	x := uint64(id+1)*0x9E3779B97F4A7C15 ^ uint64(rep+1)*0xBF58476D1CE4E5B9
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (r *shardRoute) rebuild() {
	r.ring = r.ring[:0]
	for id, in := range r.members {
		if !in {
			continue
		}
		for rep := 0; rep < vnodesPerMember; rep++ {
			r.ring = append(r.ring, ringPoint{hash: pointHash(id, rep), id: int32(id)})
		}
	}
	// Insertion sort territory would do, but keep it simple and exact:
	// sort by hash, tie-break by id so the ring is deterministic even in
	// the (astronomically unlikely) event of a hash collision.
	points := r.ring
	for i := 1; i < len(points); i++ {
		p := points[i]
		j := i - 1
		for j >= 0 && (points[j].hash > p.hash || (points[j].hash == p.hash && points[j].id > p.id)) {
			points[j+1] = points[j]
			j--
		}
		points[j+1] = p
	}
}

// split is the static route of a vertex key t without a hardware divide:
// t / mod — the key's slot in its owner's Dense shard — and t mod mod,
// the owner. The quotient is one multiply by a reciprocal, for every
// fleet size: with M = ⌊2⁶³/mod⌋+1 the high word of M·2t is ⌊t/mod⌋
// exactly for every t < 2³¹ and mod < 2³², since M·mod = 2⁶³+e with
// 0 < e ≤ mod and the product therefore overshoots t/mod by
// e·t/(mod·2⁶³) < 2⁻³² < 1/mod.
func (r *shardRoute) split(t int32) (slot, owner int) {
	hi, _ := bits.Mul64(r.recip, uint64(t)<<1)
	return int(hi), int(t) - int(hi)*r.mod
}

// owner returns the worker that owns key under the current membership.
func (r *shardRoute) owner(key int64) int {
	if r.members == nil {
		return graph.Partition(key, r.mod)
	}
	h := hashKey(key)
	// First ring point with hash >= h, wrapping to the start.
	lo, hi := 0, len(r.ring)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.ring[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.ring) {
		lo = 0
	}
	return int(r.ring[lo].id)
}

// participant reports whether slot j takes part in a fence under the
// current membership (the admitted newcomer is added by the caller).
func (r *shardRoute) participant(j int) bool {
	if r.members == nil {
		return j < r.mod
	}
	return r.members[j]
}

// set replaces the membership (elastic only) and rebuilds the ring.
func (r *shardRoute) set(members []bool) {
	if r.members == nil {
		return
	}
	copy(r.members, members)
	r.rebuild()
}

func (r *shardRoute) add(id int) {
	if r.members == nil || r.members[id] {
		return
	}
	r.members[id] = true
	r.rebuild()
}

func (r *shardRoute) remove(id int) {
	if r.members == nil || !r.members[id] {
		return
	}
	r.members[id] = false
	r.rebuild()
}

// ---------------------------------------------------------------------
// Worker side: cohorts and the actions inside the membership fence.
// ---------------------------------------------------------------------

// down reports whether the pending membership fence names slot j lost:
// from the request's arrival until the fence commits, flushes toward j
// are held and live-cohort minima skip it.
func (w *worker) down(j int) bool {
	f := &w.fences[transport.FenceMember]
	return f.req.epoch > f.done && slices.Contains(f.req.down, j)
}

// peerSkip reports whether slot j is excluded from live-cohort minima:
// self, lost peers (their replacement restarts every clock at the
// fence), and — on elastic fleets — slots outside the membership.
func (w *worker) peerSkip(j int) bool {
	if j == w.id || w.down(j) {
		return true
	}
	if w.route.members != nil {
		return !w.route.members[j]
	}
	return false
}

// eachPeer calls f for every current member except this worker (static
// fleets: every other slot). Lost peers are included — broadcasts to a
// lost slot reach its replacement, or die harmlessly with the reset
// inbox.
func (w *worker) eachPeer(f func(j int)) {
	for j := range w.bufs {
		if j != w.id && w.route.participant(j) {
			f(j)
		}
	}
}

// fenceCohort freezes a membership fence's marker set at entry: the
// pre-change membership plus the admitted newcomer, minus self.
func (w *worker) fenceCohort(admit int) []bool {
	set := make([]bool, len(w.bufs))
	w.eachPeer(func(j int) { set[j] = true })
	if admit >= 0 && admit != w.id {
		set[admit] = true
	}
	return set
}

// applyMembership commits a scale event to the local route and migrates
// the rows it re-homes. No-op for static fleets (crash re-join replaces
// a slot in place) and for crash fences on elastic fleets (membership
// unchanged).
func (w *worker) applyMembership(t transition) {
	if w.route.members == nil {
		return
	}
	changed := false
	if t.admit >= 0 && !w.route.members[t.admit] {
		w.route.add(t.admit)
		changed = true
	}
	if t.leaving >= 0 && w.route.members[t.leaving] {
		w.route.remove(t.leaving)
		changed = true
	}
	if changed {
		w.migrateRows()
	}
}

// migrateRows hands every row this worker no longer owns to its new
// owner: Accumulation values as Handoff(Round 0) batches installed via
// SetAcc, pending Intermediate deltas as Handoff(Round 1) batches folded
// via FoldDelta (which re-dirties them, so the new owner resumes their
// propagation). The consistent-hash ring guarantees each key moves from
// exactly one sender to exactly one receiver, and the fence guarantees
// the receiver folds the batches before its post-Release traffic — so
// migration neither loses nor double-counts state for either aggregate
// class.
func (w *worker) migrateRows() {
	ident := w.plan.Op.Identity()
	type movedRow struct {
		k          int64
		acc, inter float64
	}
	var moved []movedRow
	w.table.RangeRows(func(k int64, acc, inter float64) bool {
		if w.owner(k) != w.id {
			moved = append(moved, movedRow{k, acc, inter})
		}
		return true
	})
	if len(moved) == 0 {
		return
	}
	accOut := make([][]transport.KV, len(w.bufs))
	interOut := make([][]transport.KV, len(w.bufs))
	for _, r := range moved {
		o := w.owner(r.k)
		if r.acc != ident {
			accOut[o] = append(accOut[o], transport.KV{K: r.k, V: r.acc})
		}
		if r.inter != ident {
			interOut[o] = append(interOut[o], transport.KV{K: r.k, V: r.inter})
		}
		w.table.Invalidate(r.k)
	}
	for o := range accOut {
		w.sendHandoff(o, 0, accOut[o])
		w.sendHandoff(o, 1, interOut[o])
	}
	// Invalidate bypasses the monotone fold the running Σacc tracks.
	w.resyncAccSum()
}

func (w *worker) sendHandoff(dst, round int, kvs []transport.KV) {
	for len(kvs) > 0 {
		n := len(kvs)
		if n > batchMax {
			n = batchMax
		}
		batch := append(transport.GetBatch(n), kvs[:n]...)
		w.enqueue(dst, transport.Message{Kind: transport.Handoff, Round: round, KVs: batch})
		kvs = kvs[n:]
	}
}

// acceptHandoff folds one migration batch: Round 0 installs Accumulation
// values, Round 1 re-folds pending Intermediate deltas.
func (w *worker) acceptHandoff(m transport.Message) {
	if m.Round == 0 {
		for _, kv := range m.KVs {
			w.table.SetAcc(kv.K, kv.V)
			w.accSum += kv.V
		}
	} else {
		for _, kv := range m.KVs {
			w.table.FoldDelta(kv.K, kv.V)
		}
	}
	transport.PutBatch(m.KVs)
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
		w.plan.PropagateInto(w.scratch(), k, acc, func(dst int64, v float64) {
			if o := w.owner(dst); o != w.id && w.down(o) {
				w.bufs[o].add(dst, v)
			}
		})
		return true
	})
}

// renewLinks restarts per-link protocol state at a membership cut, on
// both ends of every link whose incarnation the transition ends or
// begins — a replaced, admitted or leaving slot — while survivor↔survivor
// links keep their continuity. A renewed worker also forgets the Data
// windows of its own links: a survivor not yet told of the fence may have
// flushed into the replacement's fresh inbox under its old sequence.
// Nothing is in flight to mix the generations up: no cohort member sends
// Data between its cut and its release, so whichever end commits first,
// the other already counts from the new sequence.
//
// A renewed link restarts its Data sequence and dedup window, and its
// step clock outright (a new incarnation counts supersteps from zero);
// every other fence clock is cleared only up to the last fence of its
// class this worker finished (markClock.resetUpTo says why), which keeps
// this fence's own second-round marks.
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
				upTo := markStamp(f.done, 2)
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

// awaitAdmission is the gated prologue of a worker spawned into a
// running fixpoint (crash replacement or scale-out newcomer): it sits on
// its inbox until the master's fence request arrives, participates in
// that fence like any survivor, and returns once released — at which
// point its table, route, and link state are consistent with the fleet
// and the normal compute loop may start.
func (w *worker) awaitAdmission() {
	requested := func() bool { return w.fencePending(transport.FenceMember) }
	for w.joinGate && w.foldUntil(requested, func() {}) {
		w.fence(transport.FenceMember)
	}
}

// ---------------------------------------------------------------------
// Master side: liveness recovery and scale coordination.
// ---------------------------------------------------------------------

// memberCmd is one Session.AddWorker / RemoveWorker request, processed
// by the master between poll rounds.
type memberCmd struct {
	add   bool
	id    int
	reply chan memberCmdResult
}

type memberCmdResult struct {
	id  int
	err error
}

func (m *master) activeCount() int {
	n := 0
	for _, l := range m.live {
		if l {
			n++
		}
	}
	return n
}

// recoverLost attempts live re-join for lost, the workers that stayed
// silent through a wave and its second-chance probe. It returns true
// when the fleet has been repaired and the poll loop should continue
// (with its detector state reset); false sends the caller to the
// abort path.
func (m *master) recoverLost(lost []int) bool {
	if m.s == nil || len(lost) == 0 || len(lost) >= m.activeCount() {
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
// the admitted slot goes live, the leaving one is dropped, and the
// session rebases its per-epoch counters — the fence zeroed the fleet's.
func (m *master) settleMember(t transition) {
	m.met.memberOrphans.Add(uint64(len(t.down)))
	m.met.memberJoins.Add(uint64(len(t.down)))
	if t.admit >= 0 {
		m.live[t.admit] = true
		m.met.memberJoins.Inc()
	}
	if t.leaving >= 0 {
		m.live[t.leaving] = false
		m.s.retireWorker(t.leaving)
		m.met.memberOrphans.Inc()
	}
	m.s.fenceReleased()
}

// pollMemberCmds applies queued AddWorker/RemoveWorker requests. It
// returns true when a fence ran (the caller resets its termination
// detector) and sets aborted when a fence failed unrecoverably.
func (m *master) pollMemberCmds() (changed, aborted bool) {
	for {
		select {
		case cmd := <-m.cmds:
			ok := m.applyMemberCmd(cmd)
			changed = true
			if !ok {
				return changed, true
			}
		default:
			return changed, false
		}
	}
}

// applyMemberCmd fences one AddWorker / RemoveWorker request and answers
// it. A newcomer admitted into a parked fleet parks right after the
// membership release, and the command is answered only once it has: the
// survivors, re-marking while they hold the park fence, are what answer
// its park marks, and until its ack the fleet is not quiescent for the
// next Apply's table reads and writes. It reports false when a fence
// failed unrecoverably (m.err set, the fleet stopped).
func (m *master) applyMemberCmd(cmd memberCmd) bool {
	decided := time.Now()
	t := m.transition(transport.FenceMember, m.fence+1)
	id := cmd.id
	if cmd.add {
		id = slices.Index(m.live, false)
		switch {
		case id < 0:
			cmd.reply <- memberCmdResult{id: -1,
				err: fmt.Errorf("runtime: fleet is at its capacity (%d workers)", len(m.live))}
			return true
		case !m.s.admitWorker(id):
			cmd.reply <- memberCmdResult{id: -1, err: fmt.Errorf("runtime: could not stand up worker %d", id)}
			return true
		}
		t.admit, t.cohort[id] = id, true
	} else {
		switch {
		case id < 0 || id >= len(m.live) || !m.live[id]:
			cmd.reply <- memberCmdResult{id: id, err: fmt.Errorf("runtime: worker %d is not a member", id)}
			return true
		case m.activeCount() <= 1:
			cmd.reply <- memberCmdResult{id: id, err: fmt.Errorf("runtime: cannot remove the last worker")}
			return true
		}
		t.leaving = id
	}
	m.fence++
	ok := m.drive(t, decided)
	if ok && cmd.add && m.parked {
		park := transition{class: transport.FencePark, epoch: m.epoch, cohort: make([]bool, len(m.live)), admit: -1, leaving: -1}
		park.cohort[id] = true
		ok = m.drive(park, time.Now())
	}
	if !ok {
		cmd.reply <- memberCmdResult{id: -1, err: m.err}
		return false
	}
	cmd.reply <- memberCmdResult{id: id}
	return true
}

// rejectMemberCmds answers whatever is still queued with err, so an
// AddWorker caller racing the master's exit (or the session's release of
// its claim) gets an error instead of a hang. A nil queue never yields.
func (m *master) rejectMemberCmds(err error) {
	for {
		select {
		case cmd := <-m.cmds:
			cmd.reply <- memberCmdResult{id: -1, err: err}
		default:
			return
		}
	}
}
