package runtime

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"powerlog/internal/agg"
	"powerlog/internal/compiler"
	"powerlog/internal/monotable"
	"powerlog/internal/term"
	"powerlog/internal/transport"
)

// worker owns one MonoTable shard — one block of the key space, by the
// fleet's static route (routeOf) — and runs the unified compute loop,
// parameterised by its mode's policy set (policy.go): a FlushPolicy for
// message buffering, a Scheduler for drain order and priority holding,
// and a BarrierPolicy for synchronisation. It has a dedicated
// communication goroutine (paper §5.3: "a dedicated thread for the
// communication among workers") fed through w.out.
type worker struct {
	id   int
	nw   int
	cfg  Config
	plan *compiler.Plan
	conn transport.Conn

	pol policySet // the mode's flush/scheduling/barrier strategies

	table monotable.Table // the shard (MRA modes: the only table)
	next  monotable.Table // naive mode: the table being built this round
	apply monotable.Table // where incoming Data folds land (next in naive mode)

	ownBase []compiler.KV            // naive mode: owned base tuples re-derived per round
	naive   *compiler.NaiveEvaluator // naive mode: per-worker relational join
	seen    *seenSet                 // naive mode: reused key-membership tracker

	out      chan outMsg
	outCtrl  chan outMsg // control lane: skips ahead of bulk data on the NIC
	commDone chan struct{}

	// Per-destination adaptive buffers (paper §5.3). Each buffer folds
	// updates per key with the program's aggregate before sending — the
	// sender-side combining that makes a buffered update "accumulate"
	// rather than queue (Figure 7's Intermediate, applied pre-wire).
	bufs      []*outBuf
	lastFlush []time.Time
	win       window // traffic window ΔT driving FlushPolicy adaptation

	// sink is where a pass over a Dense shard folds its rows
	// (sinkOwned): the static route, every destination's column, and the
	// FlushPolicy's limits and urgency as readLimits publishes them, which
	// worker.buffer reads too. Its Counts are win.counts.
	sink monotable.Sink

	met workerMetrics // per-policy observability (observe.go, DESIGN.md §8)

	// Per-link Data sequencing for dup-tolerant termination: dataSeq[j]
	// is the last sequence number stamped (in Message.Round) on a batch
	// to destination j; dataSeen[s] dedups deliveries from sender s. A
	// redelivered batch's KVs still fold (duplicates are only injected
	// for selective programs, where re-folding is idempotent by Theorem
	// 3), but it is excluded from the recv watermark — otherwise Σrecv
	// could overtake Σsent and falsify the master's counting-quiescence
	// and ε-confirm tests. The window is exact under reordering, not just
	// FIFO redelivery: an out-of-order first delivery must still count.
	dataSeq  []int64
	dataSeen []dedupWindow

	sent, recv int64
	flushes    int64
	accDelta   float64 // Σ|acc change| since last stats reply
	accSum     float64 // running Σacc over the shard (identity rows count 0)
	accFolds   int64   // FoldAcc count since the last exact Σacc resync
	passes     int64   // async compute-loop iterations
	inPass     bool    // the compute pass is running (it may pump the inbox)
	rounds     int

	idle idleReports // unsolicited-report state of this fixpoint (reportIdle)

	// The compute pass's reused working set (scan.go): the drained
	// snapshot, the kernel's scratch (expression slots and the chunk of
	// row values between Fill and the sink), and the callback that drains
	// one row into drainBuf as Table.DrainAdmitted hands it over.
	drainBuf []drained
	scratch  []float64
	takeFn   func(int64, float64)

	// stopping is the worker's one stop signal (stop, halted): the master
	// said Stop, the inbox closed, the send path died, the session is
	// joining the fleet, or the injector killed the worker. Every place
	// either goroutine of the worker can block — enqueue, the comm loop's
	// back-off and retry, await under foldUntil — reads it and gives up,
	// dropping what it was sending: peers that left their run loop no
	// longer drain their inboxes, and the run's outcome no longer depends
	// on the message.
	stopping atomic.Bool

	// fences is this worker's view of each fence class (fence.go): what
	// the master has requested and released, what this worker finished,
	// and the per-peer marker clock — the step class's is the superstep
	// clock the BSP barrier and the SSP gate wait on.
	fences [transport.NumFenceClasses]fenceState
	// steps holds the fleet's superstep reports, and bar judges them
	// (bspBarrier): one detector per fixpoint, whose first superstep is
	// barFrom+1. A BSP worker — early is non-nil — holds there a peer's
	// data for a later superstep than its own until its own pass of it
	// has drained.
	steps   stepReports
	bar     *term.Barrier
	barFrom int
	early   []transport.Message

	// sendErr records the first unrecoverable transport failure seen by
	// the comm goroutine, which then stops the worker instead of letting it
	// compute into a dead network. Run/RunWorker surface the error after
	// the worker exits (reading sendErr is safe then: commDone closes after
	// the final write).
	sendErr error
	// keyErr records the first key a peer sent that this worker does not
	// own (refuse), which stops the worker the same way.
	keyErr error

	stragglerWait time.Duration // total time blocked at the step gate (SSP, BSP)
	timer         *time.Timer   // reused by every timed inbox wait (await)

	// Re-join state (membership.go, DESIGN.md §11). master is this
	// fleet's master endpoint. The slots a membership fence replaces ride
	// in its request (fences[FenceMember].req, read by down).
	master   int
	joinGate bool // spawned mid-run: gate the compute loop on admission
	reborn   bool // replacement spawned by the session (immune to crashw=)
}

// outQueueLen is the capacity of a worker's data lane to its comm
// goroutine: enough that a pass rarely waits on the wire. A variable so a
// test can make the queue fill.
var outQueueLen = 256

type outMsg struct {
	to int
	m  transport.Message
}

// drop gives up on an undelivered message, recycling a Data batch.
func (om outMsg) drop() {
	if om.m.Kind == transport.Data {
		transport.PutBatch(om.m.KVs)
	}
}

func newWorker(id int, cfg Config, plan *compiler.Plan, conn transport.Conn) *worker {
	fleet := cfg.Workers
	w := &worker{
		id:   id,
		nw:   fleet,
		cfg:  cfg,
		plan: plan,
		conn: conn,

		out:      make(chan outMsg, outQueueLen),
		outCtrl:  make(chan outMsg, 64),
		commDone: make(chan struct{}),

		bufs:      make([]*outBuf, fleet),
		lastFlush: make([]time.Time, fleet),
		dataSeq:   make([]int64, fleet),
		dataSeen:  make([]dedupWindow, fleet),
		win: window{
			start:  time.Now(),
			counts: make([]int64, fleet),
		},

		idle:   newIdleReports(),
		master: transport.MasterID(fleet),
	}
	w.sink = monotable.Sink{
		Route:  routeOf(plan, fleet),
		Cols:   make([]*monotable.Column, fleet),
		Limits: make([]int, fleet),
		Counts: w.win.counts,
	}
	for c := range w.fences {
		w.fences[c].marks = make(markClock, fleet)
	}
	w.steps = stepReports{make([]stepReport, fleet), make([]stepReport, fleet)}
	w.met = newWorkerMetrics(fleet)
	w.pol = policiesFor(cfg, plan, id, w.met.reg)
	if cfg.Fault != nil {
		// Straggler injection decorates the mode's barrier from outside
		// (stallBarrier): the policy seams absorb the fault layer with no
		// new switches in the hot path.
		w.pol.barrier = &stallBarrier{inner: w.pol.barrier, inj: cfg.Fault}
	}
	w.table = w.newTable()
	w.apply = w.table
	now := time.Now()
	for j := range w.bufs {
		if w.denseShards() && j != id {
			w.bufs[j] = newMirrorBuf(plan.Op, w.sink.Route, j)
			w.sink.Cols[j] = w.bufs[j].col
		} else {
			w.bufs[j] = newMirrorBuf(plan.Op, monotable.Route{}, 0)
		}
		w.lastFlush[j] = now
	}
	w.readLimits()
	w.scratch = plan.NewScratch()
	w.takeFn = func(k int64, v float64) { w.drainBuf = append(w.drainBuf, drained{k, v}) }
	go w.commLoop()
	return w
}

// routeOf is the fleet's static route for plan: W blocks of its N
// vertices, a pure function of the two, so every process of a fleet
// builds the same one from its own plan. A pair key follows its first
// vertex.
func routeOf(plan *compiler.Plan, workers int) monotable.Route {
	r := monotable.NewRoute(plan.N, workers)
	if plan.PairKeys {
		return r.Pairs()
	}
	return r
}

// denseShards reports whether the fleet's shards are Dense tables, one
// block of vertex keys each (monotable.Route resolves their slots): every
// program keyed by vertex; pair keys shard into Sparse tables.
func (w *worker) denseShards() bool { return !w.plan.PairKeys }

func (w *worker) newTable() monotable.Table {
	if w.denseShards() {
		return monotable.NewDense(w.plan.Op, w.plan.N, int64(w.nw), int64(w.id))
	}
	return monotable.NewSparse(w.plan.Op)
}

// owner is the worker that owns key: the block the route puts it in.
func (w *worker) owner(key int64) int { return w.sink.Route.Owner(key) }

// err is why the worker stopped when the fleet did not stop it, or nil.
// Read it after the worker has exited.
func (w *worker) err() error {
	switch {
	case w.sendErr != nil:
		return fmt.Errorf("runtime: worker %d send failed: %w", w.id, w.sendErr)
	case w.keyErr != nil:
		return fmt.Errorf("runtime: worker %d: %w", w.id, w.keyErr)
	}
	return nil
}

// stop raises the worker's stop signal; halted reads it.
func (w *worker) stop()        { w.stopping.Store(true) }
func (w *worker) halted() bool { return w.stopping.Load() }

// sendAttempts bounds sendRetrying. No transport retries underneath
// (TCP makes one dial-and-write per Send; injected faults clear as the
// link's event counter advances, one step per attempt), so a message
// that still fails after this many attempts, ≈ 60 ms of sleeps, is on a
// dead link.
const sendAttempts = 6

// errHalted is sendRetrying's answer when the sender was stopped before
// its first attempt.
var errHalted = errors.New("runtime: sender halted")

// sendRetrying is the one retry loop of a failed blocking Send: up to
// sendAttempts attempts, sleeping 2 ms and doubling between them, and
// none once stopped reports true. It returns nil on delivery, else the
// last error; on error m was not consumed (transport.Conn contract), so
// a Data batch is still the caller's.
func sendRetrying(conn transport.Conn, to int, m transport.Message, stopped func() bool) error {
	err := errHalted
	for attempt := 0; attempt < sendAttempts && !stopped(); attempt++ {
		if attempt > 0 {
			time.Sleep(time.Millisecond << attempt) // 2 ms, doubling
		}
		if err = conn.Send(to, m); err == nil {
			return nil
		}
	}
	return err
}

func (w *worker) commLoop() {
	defer close(w.commDone)
	emu := w.cfg.Network
	try, canTry := w.conn.(transport.TrySender)
	// deliver pushes one message through sendRetrying. A persistent
	// failure stops the worker: the error is recorded for Run/RunWorker
	// to surface, and a stopped worker's messages are discarded
	// (recycling Data batches), whatever stopped it, so neither goroutine
	// can deadlock against a network that is dead or has gone home.
	deliver := func(om outMsg) {
		if err := sendRetrying(w.conn, om.to, om.m, w.halted); err != nil {
			if !w.halted() {
				w.sendErr = err
				w.stop()
			}
			om.drop()
		}
	}
	// The communication thread is the NIC: messages serialise through it
	// and each pays latency + volume/bandwidth.
	nic := func(om outMsg) {
		if emu.Enabled() {
			time.Sleep(emu.cost(len(om.m.KVs)))
		}
	}
	send := func(om outMsg) {
		nic(om)
		if !canTry {
			deliver(om)
			return
		}
		// Avoid head-of-line blocking: while the destination is
		// back-pressured, keep the control lane moving. The wait
		// escalates (spin → yield → sleep) so a long-stalled destination
		// doesn't pin this goroutine to a core.
		var bo transport.Backoff
		for {
			ok, err := try.TrySend(om.to, om.m)
			if ok {
				return
			}
			if w.halted() {
				om.drop() // the peer may have left its run loop for good
				return
			}
			if err != nil {
				// A hard TrySend error is not back-pressure; fall back to
				// the blocking path and its retry budget rather than
				// silently dropping the message.
				deliver(om)
				return
			}
			select {
			case ctl, chOk := <-w.outCtrl:
				if !chOk {
					w.outCtrl = nil // the compute loop has exited, halted
					continue
				}
				nic(ctl)
				deliver(ctl)
				bo.Reset() // control progress means the net is moving
			default:
				bo.Wait()
			}
		}
	}
	for {
		// Control traffic (stats replies, barrier markers) rides a
		// priority lane so bulk data cannot starve the termination check.
		select {
		case om, ok := <-w.outCtrl:
			if !ok {
				w.outCtrl = nil
				continue
			}
			send(om)
			continue
		default:
		}
		select {
		case om, ok := <-w.outCtrl:
			if !ok {
				w.outCtrl = nil
				continue
			}
			send(om)
		case om, ok := <-w.out:
			if !ok {
				// Drain any remaining control messages, then exit.
				for {
					select {
					case om, ok := <-w.outCtrl:
						if !ok {
							return
						}
						send(om)
					default:
						return
					}
				}
			}
			send(om)
		}
	}
}

// enqueue hands a message to the comm goroutine, draining the inbox while
// the queue is full so workers can never deadlock on mutual back-pressure;
// a stopping worker drops the message instead (worker.stopping).
// Reports and acks take the control lane; fence markers must NOT —
// they fence the data sent before them, so they ride the data lane to
// preserve per-destination ordering.
func (w *worker) enqueue(to int, m transport.Message) {
	lane := w.out
	if m.Kind == transport.StatsReply || m.Kind == transport.FenceAck {
		lane = w.outCtrl
	}
	om := outMsg{to, m}
	for !w.halted() {
		select {
		case lane <- om:
			return
		case in, ok := <-w.conn.Inbox():
			if !ok {
				w.stop()
			} else {
				w.handle(in)
			}
		}
	}
	om.drop()
}

// dedupWindow is an exact delivered-once filter over one link's Data
// sequence numbers (stamped from 1 in flush). next is the lowest
// sequence not yet contiguously delivered; pending holds delivered
// sequences at or above next that arrived out of order. On the fault-free
// FIFO path every arrival is exactly next, so the window is a single
// compare-and-increment and pending stays nil — no allocations. Under
// injected duplication or adversarial reordering the map grows only to
// the link's momentary out-of-orderness.
type dedupWindow struct {
	next    int64
	pending map[int64]struct{}
}

// fresh reports whether seq is a first delivery, recording it.
func (d *dedupWindow) fresh(seq int64) bool {
	if d.next == 0 {
		d.next = 1 // sequences are stamped from 1
	}
	if seq < d.next {
		return false
	}
	if _, dup := d.pending[seq]; dup {
		return false
	}
	if seq == d.next {
		d.next++
		for len(d.pending) > 0 {
			if _, ok := d.pending[d.next]; !ok {
				break
			}
			delete(d.pending, d.next)
			d.next++
		}
		return true
	}
	if d.pending == nil {
		d.pending = make(map[int64]struct{})
	}
	d.pending[seq] = struct{}{}
	return true
}

// handle processes one incoming message. It is called from every place
// the worker blocks, so it must only mutate worker-local state.
func (w *worker) handle(m transport.Message) {
	switch m.Kind {
	case transport.Data:
		// A BSP peer's data for a superstep past this worker's own waits
		// until this worker's pass of that superstep has drained its dirty
		// rows (bspBarrier.endPass): folded sooner, a pumped inbox would
		// have it drained a superstep early.
		if w.early != nil && m.From < w.nw && w.fences[transport.FenceStep].marks[m.From] >= w.rounds {
			w.early = append(w.early, m)
			return
		}
		w.receive(m)
	case transport.Stop:
		w.stop()
	case transport.StatsRequest:
		w.idle.polls++
		w.replyStats(m.Round)
	case transport.FenceRequest:
		if f := &w.fences[m.Fence]; m.Round > f.req.epoch {
			f.req = transitionOf(m)
		}
	case transport.FenceMark, transport.FenceAck:
		if m.Kind == transport.FenceMark {
			w.fences[m.Fence].marks.observe(m.From, m.Round)
		}
		// A peer's superstep report rides its mark, or its ack when the
		// report is made at the cut (bspBarrier). Other acks, like a
		// StatsReply, are the master's: a worker receiving one (misrouted
		// frame, chaos injection) ignores it rather than corrupting local
		// state.
		if m.Fence == transport.FenceStep && (m.Kind == transport.FenceAck) == w.reportsAtCut() {
			w.steps.observe(m.From, m.Round, m.Stats)
		}
	case transport.FenceRelease:
		if f := &w.fences[m.Fence]; m.Round > f.released {
			f.released = m.Round
		}
	}
}

// receive folds Data batches into the table incoming data lands in.
func (w *worker) receive(ms ...transport.Message) {
	for _, m := range ms {
		// Round carries the sender's per-link sequence number (stamped in
		// flush); the dedup window decides whether this is the sequence's
		// first delivery.
		fresh := true
		if m.From >= 0 && m.From < len(w.dataSeen) {
			fresh = w.dataSeen[m.From].fresh(int64(m.Round))
		}
		n := int64(len(m.KVs))
		if dense, ok := w.apply.(*monotable.Dense); ok {
			// This goroutine is the shard's only accessor (DESIGN.md §9):
			// the fold is the owner's, by slot.
			for _, kv := range m.KVs {
				slot, o := w.sink.Route.Split(int32(kv.K))
				if o != w.id || uint64(kv.K) >= uint64(w.plan.N) {
					w.refuse(m.From, kv.K)
					break
				}
				dense.FoldDeltaOwned(slot, kv.V)
			}
		} else {
			for _, kv := range m.KVs {
				if w.owner(kv.K) != w.id {
					w.refuse(m.From, kv.K)
					break
				}
				w.apply.FoldDelta(kv.K, kv.V)
			}
		}
		if fresh {
			w.recv += n
			w.win.in += n
			w.met.recvBatches.Inc()
		} else {
			// Duplicate: folded (idempotent for the selective programs
			// duplicates are injected on) but kept out of the recv
			// watermark so counting quiescence still balances.
			w.met.dupBatches.Inc()
		}
		// The batch is spent; recycle it (see the contract in transport).
		transport.PutBatch(m.KVs)
	}
}

// refuse stops the worker on a key that is not in its block: the sender
// routed it by another plan's N, and folding it would land in a wrong
// slot without an error.
func (w *worker) refuse(from int, key int64) {
	if w.keyErr == nil {
		w.keyErr = fmt.Errorf("key %d from worker %d is not in this worker's block of [0, %d): the fleet's plans disagree on the key space", key, from, w.plan.N)
	}
	w.stop()
}

// accResyncFolds is how many FoldAcc signed deltas the running accSum
// absorbs before the next epoch boundary recomputes it exactly. Each
// `accSum += signed` rounds once, and across millions of mixed-sign
// folds the rounding error drifts in one direction (a small delta added
// next to a large accumulated value loses its low bits every time); the
// periodic exact resync bounds the drift the master's ε check can see.
const accResyncFolds = 1 << 20

// resyncAccSum recomputes Σacc exactly from the table (Neumaier
// compensated summation, so the recomputation itself doesn't reintroduce
// rounding skew) and replaces the running sum with it.
func (w *worker) resyncAccSum() {
	var sum, comp float64
	w.table.Range(func(_ int64, acc float64) bool {
		t := sum + acc
		if agg.Abs(sum) >= agg.Abs(acc) {
			comp += (sum - t) + acc
		} else {
			comp += (acc - t) + sum
		}
		sum = t
		return true
	})
	w.accSum = sum + comp
	w.accFolds = 0
}

// pending reports whether local work remains: a pass in progress (a poll
// answered from inside a flush finds the dirty set drained into the
// pass's hands and the buffer just emptied), dirty rows, held deltas or
// an unflushed buffer. It is a report's Dirty flag.
func (w *worker) pending() bool {
	return w.inPass || w.table.HasDirty() || w.pol.sched.holding() || !w.buffersEmpty()
}

// idleReports is what a worker remembers, per fixpoint, about the idle
// reports it has sent: the (sent, recv) state of the last one, valid
// while told, and the poll counts that ration them. The zero value is
// not the start state — newIdleReports is.
type idleReports struct {
	told       bool
	sent, recv int64
	polls      int // StatsRequests answered this fixpoint
	at         int // polls at the last rationed report
}

// idleEvery rations idle reports once the master's grid is ticking: one
// per this many polls, so they add at most ~3 % to the master's inbound
// traffic however often a busy frontier runs dry.
const idleEvery = 32

// newIdleReports starts a fixpoint: nothing told, no poll seen, and one
// rationed report already earned.
func newIdleReports() idleReports { return idleReports{at: -idleEvery} }

// reportIdle tells the master, unasked, that this worker has fallen idle
// with nothing pending — an unsolicited StatsReply (Round 0), so the
// master's stop decision can wake on the event instead of waiting out a
// CheckInterval (internal/term has the soundness argument). One report
// per distinct (sent, recv) state: an idle wake that moved no data says
// nothing new. Until the master's first poll of the fixpoint every such
// state is reported — a fixpoint shorter than one CheckInterval is the
// case the reports exist for; after it they are rationed to the first
// idle state and then one per idleEvery polls, because a fixpoint that
// long loses at most an interval or two to the fallback wave, while a
// frontier that runs dry on every hop must not turn each hop into a
// master message.
func (w *worker) reportIdle() {
	r := &w.idle
	if r.told && w.sent == r.sent && w.recv == r.recv || w.pending() {
		return
	}
	if r.polls > 0 {
		if r.polls-r.at < idleEvery {
			return
		}
		r.at = r.polls
	}
	r.sent, r.recv, r.told = w.sent, w.recv, true
	w.replyStats(0)
}

func (w *worker) replyStats(round int) {
	if w.accFolds >= accResyncFolds {
		// A stats poll is the async family's epoch boundary: fold the
		// exact Σacc back in before the master reads it.
		w.resyncAccSum()
	}
	// The paper's termination thread evaluates the aggregation of the
	// Accumulation column; the master diffs consecutive global values.
	// accSum is maintained incrementally from FoldAcc's signed deltas,
	// so answering a poll is O(1) instead of an O(n) shard scan (the
	// amortised resync above keeps that honest against FP drift).
	st := transport.Stats{
		Sent:     w.sent,
		Recv:     w.recv,
		AccDelta: w.accDelta,
		AccSum:   w.accSum,
		Passes:   w.passes,
		Dirty:    w.pending(),
	}
	if !modeBarriered[w.cfg.Mode] {
		// A barriered worker's accDelta is its superstep's report until
		// bspBarrier.endPass takes it: a probe answered mid-superstep
		// reads it and leaves it.
		w.accDelta = 0
	}
	w.enqueue(w.master, transport.Message{
		Kind: transport.StatsReply, Round: round, Stats: st,
	})
}

func (w *worker) buffersEmpty() bool {
	for _, b := range w.bufs {
		if b.len() > 0 {
			return false
		}
	}
	return true
}

// seed folds this worker's share of ΔX¹ into its shard.
func (w *worker) seed(init []compiler.KV) {
	for _, kv := range init {
		if w.owner(kv.K) == w.id {
			w.table.FoldDelta(kv.K, kv.V)
		}
	}
}

// flush sends buffer j if it is non-empty: one Data batch per batchMax
// entries — a buffer outgrows one batch under a barrier's limit or while
// its slot is down. Each batch is stamped with the next per-link sequence
// number (in Round; the field is unused by Data otherwise) so the
// receiver can discard redeliveries from the termination watermark.
func (w *worker) flush(j int) {
	if w.down(j) {
		// The pending membership fence names the slot lost: hold the
		// buffer. Selective replay refills it for the replacement and it
		// drains after the fence commits, on the link its cut renewed
		// (extra deliveries are idempotent by Theorem 3); a reseed
		// discards it wholesale.
		return
	}
	for w.bufs[j].len() > 0 {
		kvs := w.bufs[j].take()
		w.sent += int64(len(kvs))
		w.win.out += int64(len(kvs))
		w.flushes++
		w.lastFlush[j] = time.Now()
		w.met.flushSize[j].Observe(uint64(len(kvs)))
		w.dataSeq[j]++
		w.enqueue(j, transport.Message{Kind: transport.Data, Round: int(w.dataSeq[j]), KVs: kvs})
	}
}

func (w *worker) flushAll() {
	for j := range w.bufs {
		w.flush(j)
	}
}

// drainInbox applies all currently queued messages without blocking and
// reports whether any of them brought rows (Data). Control
// traffic is not progress: a poll or a peer's marker must not make the
// pass that follows count as productive, or an idle SSP fleet trading
// markers would advance its pass counters forever and never look
// passive to the master.
func (w *worker) drainInbox() bool {
	progressed := false
	for {
		select {
		case m, ok := <-w.conn.Inbox():
			if !ok {
				w.stop()
				return progressed
			}
			progressed = progressed || m.Kind == transport.Data
			w.handle(m)
		default:
			return progressed
		}
	}
}

// run executes the worker until the master stops it: the single unified
// compute loop, bracketed by the mode's BarrierPolicy. Every mode —
// naive/MRA BSP, the async family, SSP — is this loop with different
// policies plugged in. In a session (session.go) the loop is wrapped in
// an epoch loop: when the master parks the fleet at a fixpoint instead
// of stopping it, the worker takes the park fence (fence.go) — it
// quiesces its data lanes, blocks until the session has applied a
// base-fact mutation, and re-enters the compute loop on the reseeded
// shard.
func (w *worker) run() {
	defer func() {
		close(w.out)
		close(w.outCtrl)
		<-w.commDone
	}()
	// Set up before admission: a BSP replacement holds a survivor's data
	// for the superstep after the base until its own pass of it, and the
	// table a naive one builds is the one the member cut made.
	w.pol.barrier.setup(w)
	// Spawned into a running fixpoint as a crash replacement (joinGate):
	// hold the compute loop until the admission fence releases — at which
	// point table and link state are consistent with the fleet.
	for w.joinGate && w.foldUntil(func() bool { return w.fencePending(transport.FenceMember) }, func() {}) {
		w.fence(transport.FenceMember)
	}
	if w.halted() {
		return
	}
	for {
		w.runFixpoint()
		if w.halted() || !w.fencePending(transport.FencePark) || !w.fence(transport.FencePark) {
			return
		}
	}
}

// runFixpoint is one fixpoint's worth of the unified compute loop. It
// returns when the worker is stopped, its send path died, or the master
// parked the fleet (session epoch boundary).
func (w *worker) runFixpoint() {
	w.bar, w.barFrom = term.NewBarrier(termConfig(w.plan, w.cfg)), w.rounds
	for !w.halted() && !w.fencePending(transport.FencePark) {
		progressed := w.pol.barrier.beginPass(w)
		if w.halted() {
			return
		}
		w.inPass = true
		n := w.pol.pass(w)
		w.inPass = false
		if n > 0 {
			progressed = true
		}
		if !w.pol.barrier.endPass(w, progressed) {
			return
		}
	}
}

// drained is one key's delta taken from the dirty set this pass.
type drained struct {
	key int64
	val float64
}

// shouldPropagate implements the per-aggregate forwarding rule: selective
// aggregates forward only improvements (anything else is dominated);
// combining aggregates forward every non-zero delta.
func (w *worker) shouldPropagate(improved bool, tmp float64) bool {
	if w.plan.Op.Selective() {
		return improved
	}
	return tmp != 0
}

// batchMax caps the KVs in one message: outBuf.take hands out no more.
const batchMax = 4096

// emit is the sink of a pass over a Sparse shard, and naive mode's:
// local keys fold straight into the table (they join the next pass via the
// dirty set), remote keys are counted into the β window and buffered.
func (w *worker) emit(dst int64, v float64) {
	o := w.owner(dst)
	if o == w.id {
		w.apply.FoldDelta(dst, v)
		return
	}
	w.win.counts[o]++
	w.buffer(o, dst, v)
}

// buffer folds one update for a key owned by worker o into o's buffer
// and flushes it when the buffer has reached its limit or the update is
// urgent. Every remote update passes through here once, from emit —
// except in a pass over a Dense shard, whose sink does the same by slot.
func (w *worker) buffer(o int, dst int64, v float64) {
	b := w.bufs[o]
	b.add(dst, v)
	if b.len() >= w.sink.Limits[o] || agg.Abs(v) >= w.sink.Urgent {
		w.flush(o)
	}
}

// readLimits publishes the FlushPolicy's decision (policy.go) where the
// flush tests read it — the mode's limit per buffer and its urgency. A
// limit is not capped at batchMax: flush cuts a buffer into messages, and
// a barrier's buffer must not go out mid-pass.
func (w *worker) readLimits() {
	for j := range w.sink.Limits {
		w.sink.Limits[j] = w.pol.flush.limit(j)
	}
	w.sink.Urgent = w.pol.flush.urgent()
}

// timedFlush applies the τ interval — any buffer older than τ is sent —
// then hands the FlushPolicy its adaptation tick (the β(i,j) update
// rule of §5.3, the AAP delay switch of §6.5).
func (w *worker) timedFlush() {
	now := time.Now()
	for j := range w.bufs {
		if j == w.id {
			continue
		}
		if w.bufs[j].len() > 0 && now.Sub(w.lastFlush[j]) >= w.cfg.Tau {
			w.flush(j)
		}
	}
	w.pol.flush.onTick(now, &w.win)
	w.readLimits()
}

// idleWait is where a barrier-free worker lands when a pass and its inbox
// produced nothing: flush what is buffered, tell the master if that left
// nothing pending, and block briefly for new input so it does not spin.
func (w *worker) idleWait() {
	w.flushAll()
	w.reportIdle()
	w.await(200 * time.Microsecond)
}

// await blocks for the next inbox message, at most d, and handles it — a
// closed inbox stops the worker. It reports whether the wait ran out.
// Every timed wait of the worker shares the one timer. A sub-millisecond
// timer on an otherwise idle Go runtime fires about a millisecond late
// (the netpoller sleeps in whole milliseconds), so these waits are
// fallbacks — re-send a marker, re-check a flag — and nothing on a latency
// path may depend on one expiring: progress arrives as a message.
func (w *worker) await(d time.Duration) (timedOut bool) {
	if w.timer == nil {
		w.timer = time.NewTimer(d)
	} else {
		w.timer.Reset(d)
	}
	select {
	case m, ok := <-w.conn.Inbox():
		// Single-goroutine use: a failed Stop means the timer fired
		// concurrently, so its channel holds exactly one value to drain.
		if !w.timer.Stop() {
			<-w.timer.C
		}
		if ok {
			w.handle(m)
		} else {
			w.stop()
		}
		return false
	case <-w.timer.C:
		return true
	}
}

// outBuf is a per-destination buffer that folds same-key updates with
// the program's aggregate, in arrival order of first touch: a mirror of
// the destination's Intermediate column (monotable.NewMirror), folded by
// slot like the local shard. Its storage is reused across flushes and the
// drain target comes from the transport batch pool, so the steady-state
// fill→drain cycle allocates nothing. Only a peer's Dense shard is ever
// sent to — a pair stays with its first vertex's owner — so every other
// slot's buffer is empty and stays so.
type outBuf struct {
	col   *monotable.Column // the mirror of shard owner, whose slot s is key route.Key(owner, s)
	route monotable.Route
	owner int
}

// newMirrorBuf is the buffer for worker o's Dense shard under route; the
// zero Route gives the empty buffer.
func newMirrorBuf(op *agg.Op, route monotable.Route, o int) *outBuf {
	return &outBuf{col: monotable.NewMirror(op, route, o), route: route, owner: o}
}

// add folds v into the buffered update for key.
func (b *outBuf) add(key int64, v float64) {
	slot, _ := b.route.Split(int32(key))
	b.col.FoldDeltaOwned(slot, v)
}

func (b *outBuf) len() int { return len(b.col.Staged()) }

// take drains the buffer's first batchMax entries (first-touch order) into
// a pooled KV batch. Ownership of the batch passes to the caller, who
// hands it to Send under the transport recycle contract.
func (b *outBuf) take() []transport.KV {
	n := min(b.len(), batchMax)
	if n == 0 {
		return nil
	}
	kvs := transport.GetBatch(n)
	for _, s := range b.col.Staged()[:n] {
		kvs = append(kvs, transport.KV{K: b.route.Key(b.owner, int(s)), V: b.col.TakeOwned(int(s))})
	}
	b.col.Unstage(n)
	return kvs
}

// reset discards what the buffer holds, keeping its storage.
func (b *outBuf) reset() {
	for b.len() > 0 {
		transport.PutBatch(b.take())
	}
}
