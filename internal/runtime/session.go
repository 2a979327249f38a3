package runtime

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"powerlog/internal/ckpt"
	"powerlog/internal/compiler"
	"powerlog/internal/transport"
)

// Typed session-state errors. Callers that drive a Session from
// concurrent goroutines (the serving front end, internal/server) branch
// on these with errors.Is: Busy maps to back-pressure (shed and retry),
// Closed to a permanent rejection.
var (
	// ErrSessionClosed is returned by Apply once Close has been called
	// (or is in progress on another goroutine).
	ErrSessionClosed = errors.New("runtime: session is closed")
	// ErrSessionBusy is returned when an exclusive session operation (an
	// Apply's fixpoint) is already in flight on another goroutine and
	// blocking would be wrong: an Apply can legitimately run for the
	// whole wall budget, so a second caller gets an immediate typed
	// rejection instead of an unbounded wait.
	ErrSessionBusy = errors.New("runtime: session is busy (a fixpoint is in flight)")
)

// Mutation is a batch of base-fact inserts and deletes against the
// session's join graph (re-exported from the compiler, which owns the
// delta computation).
type Mutation = compiler.Mutation

// Session is a long-lived engine instance (DESIGN.md §10): Open loads
// the EDB shards and computes the initial fixpoint, Apply folds a batch
// of base-fact insertions and deletions into the EDB and re-converges
// incrementally — without restarting workers or recomputing from
// scratch — and Close tears the fleet down. Between fixpoints the
// workers stay parked on their inboxes with their MonoTable shards
// warm; an Apply reseeds exactly the keys the mutation can affect (the
// compiler's ΔX¹ correction for combining aggregates, the deletes'
// support closure plus boundary reseed for selective ones) and restarts
// the termination protocol for one more epoch.
//
// A Session is safe for concurrent use. The public API is serialized by
// an internal mutex: at most one exclusive operation — an Apply epoch or
// Close's teardown — runs at a time (the master's termination protocol
// runs on the calling goroutine), and a caller that would have to wait
// behind one gets ErrSessionBusy immediately instead of blocking for up
// to the wall budget. Result,
// Err, Epoch, and MutEpoch never block behind a running fixpoint: they
// return the last published epoch's state, which is what a serving
// front end wants for point lookups while a re-fixpoint is in flight.
// Close is the one blocking call — it waits for the in-flight operation
// to finish (bounded by Config.MaxWall) before tearing the fleet down,
// so a graceful drain cannot yank warm state from under an Apply.
//
// Error model: a mutation that fails validation (an edge outside the
// vertex universe) is rejected with the EDB untouched and the session
// still usable. A worker lost while some survive does not reach the
// caller: in every mode the master replaces it in place and the fixpoint
// goes on (DESIGN.md §11). A fixpoint that ends any other way than a
// clean park — an injected crash, a fleet with no survivor, the
// iteration cap, the wall clock — poisons the session: the error is
// sticky, every later Apply returns it, and the caller's recovery path is
// Close and re-Open. The session keeps no copy of the caller's batches:
// with a CheckpointDir, the re-Open resumes from its newest park cut and
// the caller re-Applies its own batches past MutEpoch — what it must do
// after a process crash anyway.
type Session struct {
	cfg     Config
	plan    *compiler.Plan
	net     *transport.ChannelNetwork
	workers []*worker
	m       *master
	wg      sync.WaitGroup

	// mutEpoch counts the batches the current table state incorporates
	// (restored from the cut's MutEpoch when Open resumes from
	// CheckpointDir). engEpoch counts fixpoints this session has computed
	// (1 = initial).
	mutEpoch int
	engEpoch int

	// mu guards the session's shared control state: busy, closing,
	// closed, err, res, fleetDown, and the epoch counters. Exclusive
	// operations (Apply, teardown) claim the session via begin()/end() —
	// the busy flag — and then run with mu RELEASED, so read-only
	// accessors stay wait-free while a fixpoint computes; the
	// busy holder is the only writer of fleet state, and it republishes
	// results and errors under mu. cond signals busy/closed transitions
	// for Close's drain wait.
	mu   sync.Mutex
	cond *sync.Cond

	busy    bool // an exclusive operation is in flight (its holder runs unlocked)
	closing bool // Close has committed to teardown; new operations are rejected

	res       *Result
	err       error // sticky epoch failure; every later Apply returns it
	fleetDown bool  // worker goroutines have exited
	closed    bool

	// Cumulative worker counters at the last epoch boundary, so each
	// Result reports per-epoch message traffic.
	prevSent, prevRecv, prevFlush int64
}

// begin claims the session for one exclusive operation. It fails fast
// with the typed state errors instead of blocking: an in-flight epoch
// can run for the whole wall budget, and queueing callers behind it
// invisibly is exactly the bug the serving front end would turn into a
// thread pile-up.
func (s *Session) begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing || s.closed {
		return ErrSessionClosed
	}
	if s.busy {
		return ErrSessionBusy
	}
	if s.err != nil {
		return s.err
	}
	s.busy = true
	return nil
}

// end releases the exclusive claim.
func (s *Session) end() {
	s.mu.Lock()
	s.busy = false
	s.mu.Unlock()
	s.cond.Broadcast()
}

// setResult publishes an epoch's Result for the wait-free accessors.
// The Result itself is immutable after publication, so readers can use
// it without holding mu.
func (s *Session) setResult(res *Result) {
	s.mu.Lock()
	s.res = res
	s.mu.Unlock()
}

// setFleetDown records that the worker goroutines have exited.
func (s *Session) setFleetDown() {
	s.mu.Lock()
	s.fleetDown = true
	s.mu.Unlock()
}

// bumpMutEpoch / bumpEngEpoch advance the epoch counters under mu (the
// busy holder is the only writer, so its own later unlocked reads are
// race-free; concurrent accessors read under mu).
func (s *Session) bumpMutEpoch() {
	s.mu.Lock()
	s.mutEpoch++
	s.mu.Unlock()
}

func (s *Session) bumpEngEpoch() {
	s.mu.Lock()
	s.engEpoch++
	s.mu.Unlock()
}

// Open compiles nothing — the plan is already compiled — but stands up
// the worker fleet, seeds ΔX¹ (or restores a checkpoint), and runs the
// initial fixpoint. For MRA modes a converged fixpoint parks the fleet
// for later Applys; naive mode runs to completion (it cannot
// re-fixpoint incrementally) and only Result/Close are useful
// afterwards. Open returns an error for invalid configs, unrestorable
// checkpoints, and transport failures; a fixpoint that merely failed to
// converge (iteration cap, injected crash) still returns a Session so
// the caller can inspect the Result, but the session is poisoned for
// Apply.
func Open(plan *compiler.Plan, cfg Config) (*Session, error) {
	cfg, rows, meta, err := setUp(plan, cfg, 0)
	if err != nil {
		return nil, err
	}

	// Inboxes are the transport's default depth: a Message is 104 bytes,
	// so each thousand slots is 100 KB of resident set per endpoint for as
	// long as the session is parked, and a sender that finds one full only
	// backs off (commLoop).
	net := transport.NewChannelNetwork(cfg.Workers, 0)
	workers := make([]*worker, cfg.Workers)
	for i := range workers {
		// Fault.Wrap is a no-op passthrough when no injector is set.
		workers[i] = newWorker(i, cfg, plan, cfg.Fault.Wrap(net.Conn(i)))
	}

	s := &Session{
		cfg:      cfg,
		plan:     plan,
		net:      net,
		workers:  workers,
		engEpoch: 1,
	}
	s.cond = sync.NewCond(&s.mu)

	for _, w := range workers {
		w.seedShard(rows, meta)
	}
	if meta != nil {
		// Resume the batch count the cut incorporates: the caller
		// re-Applies its own batches past it.
		s.mutEpoch = meta.MutEpoch
	}

	s.m = newMaster(cfg, plan, net.Conn(transport.MasterID(cfg.Workers)))
	// Naive evaluation cannot park: its fixpoint is a full re-derivation,
	// so the initial run goes to completion and Apply stays rejected.
	s.m.park = cfg.Mode.MRA()
	// Re-join: in every mode the master's liveness rule replaces a lost
	// worker through a membership fence instead of ending the run. The
	// master calls back into the session on the goroutine executing m.run
	// — this one — so the callbacks touch session state freely.
	s.m.s = s
	start := time.Now()
	for _, w := range workers {
		s.wg.Add(1)
		go func(w *worker) {
			defer s.wg.Done()
			w.run()
		}(w)
	}
	s.m.run()
	res, err := s.finishEpoch(start)
	if err != nil {
		// Transport death or a fleet with no survivor: nothing to resume
		// — tear down fully so the caller doesn't have to Close a corpse.
		s.teardown()
		return nil, err
	}
	s.setResult(res)
	return s, nil
}

// Apply folds a batch of base-fact changes into the EDB and converges
// to the mutated program's fixpoint from the parked state, returning
// that epoch's Result. The returned Result's message and flush counts
// are per-epoch (work this Apply caused), not cumulative. Concurrency:
// Apply claims the session exclusively; a second Apply racing it returns
// ErrSessionBusy rather than queueing, and an Apply racing Close returns
// ErrSessionClosed. Apply keeps no reference to mut's edge slices: the
// caller may refill them once it returns.
func (s *Session) Apply(mut Mutation) (*Result, error) {
	if !s.cfg.Mode.MRA() {
		return nil, fmt.Errorf("runtime: naive evaluation re-derives from scratch and cannot re-fixpoint incrementally; use an MRA mode")
	}
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	// From here the calling goroutine is the exclusive busy holder: it
	// is the only writer of fleet state (Close waits the claim out), so
	// unlocked reads of fleetDown/mutEpoch/engEpoch below are race-free.
	if s.fleetDown {
		return nil, fmt.Errorf("runtime: session fleet is stopped (the initial fixpoint did not park)")
	}
	start := time.Now()

	// Compiler-side delta: mutate the EDB (graph, derived relations,
	// attribute columns, ΔX¹) and compute the reseed/invalidation work.
	// The fleet is parked, so the in-place CSR splice and the table reads
	// are race-free. A validation error leaves the EDB untouched
	// and the session usable.
	refix, err := s.plan.ApplyMutation(mut, parkedTable(s.workers))
	if err != nil {
		return nil, err
	}
	s.bumpMutEpoch()

	// Deletion invalidation: erase the support closure at its owners.
	// Invalidate bypasses the monotone fold the running Σacc tracks, so
	// the owner takes out what the row added, like any signed FoldAcc
	// delta (and the periodic exact resync bounds its rounding the same).
	for _, k := range refix.Invalidate {
		w := ownerOf(s.workers, k)
		w.accSum -= w.table.Invalidate(k)
		w.accFolds++
	}
	s.m.met.invalidateKeys.Add(uint64(len(refix.Invalidate)))

	// Reseed: fold the correction ΔX¹ into the owners' shards. The folds
	// mark the rows dirty, which is exactly the next epoch's frontier.
	for _, kv := range refix.Reseed {
		ownerOf(s.workers, kv.K).table.FoldDelta(kv.K, kv.V)
	}
	s.m.met.reseedKeys.Add(uint64(len(refix.Reseed)))
	s.m.met.borderRows.Add(uint64(refix.BorderRows))
	s.m.met.edgesRead.Add(uint64(refix.EdgesRead))
	s.m.met.edgesMoved.Add(uint64(refix.EdgesMoved))
	if refix.IndexBuilt {
		s.m.met.indexRebuilds.Inc()
	}

	if s.cfg.CheckpointDir != "" {
		s.cut()
	}

	// One more epoch: release the park fence the session has held since
	// the last fixpoint and run the termination protocol.
	s.m.release(transition{class: transport.FencePark, epoch: s.m.parks})
	s.bumpEngEpoch()
	s.m.epoch = s.engEpoch
	s.m.run()
	res, err := s.finishEpoch(start)
	if err != nil {
		s.fail(err)
		return nil, err
	}
	if !s.m.parked {
		// Crash injection, iteration cap, or wall clock: the master
		// stopped the fleet, so the warm state is gone. Poison the
		// session; recovery is Close + Open(CheckpointDir) + the caller
		// re-Applying its batches past MutEpoch.
		// finishEpoch already collected the epoch (and rebased the
		// traffic baselines): publish that, not a second collect.
		s.setResult(res)
		err := fmt.Errorf("runtime: session epoch %d stopped without converging (crash, iteration cap, or wall-clock limit)", s.engEpoch)
		s.fail(err)
		return nil, err
	}
	s.setResult(res)
	return res, nil
}

// cut writes the park cut mutEpoch: a consistent view of "mutation
// applied, re-fixpoint pending" that restores by simply running to
// convergence — every parked worker's rows, in one file. Best-effort:
// durability must never fail the run, so a failed write is counted
// ("session.cut.failed"), not returned; a written one is timed
// ("session.cut_us").
func (s *Session) cut() {
	start := time.Now()
	var rows []ckpt.Row
	for _, w := range s.workers {
		w.table.RangeRows(func(k int64, acc, inter float64) bool {
			rows = append(rows, ckpt.Row{Key: k, Acc: acc, Inter: inter})
			return true
		})
	}
	if err := ckpt.Save(s.cfg.CheckpointDir, ckpt.Meta{MutEpoch: s.mutEpoch}, rows); err != nil {
		s.m.met.cutFailed.Inc()
		return
	}
	s.m.met.cutUS.Observe(uint64(time.Since(start).Microseconds()))
}

// parkedTable is the compiler.AccTable view of the fleet's shards: a
// point read goes to the key's owner, a scan visits every shard. Only
// sound while the fleet is parked.
type parkedTable []*worker

func (t parkedTable) Acc(key int64) float64 {
	return ownerOf(t, key).table.Acc(key)
}

// ownerOf is the worker of fleet that owns key. Every worker holds the
// fleet's route.
func ownerOf(fleet []*worker, key int64) *worker { return fleet[fleet[0].owner(key)] }

func (t parkedTable) Range(f func(key int64, acc float64)) {
	for _, w := range t {
		w.table.Range(func(k int64, v float64) bool {
			f(k, v)
			return true
		})
	}
}

// finishEpoch classifies how m.run() ended. It returns an error only
// for fleet-level failures (dead transport, no survivor); a merely
// unconverged stop returns the collected Result with Converged=false
// (callers decide whether that poisons the session).
func (s *Session) finishEpoch(start time.Time) (*Result, error) {
	elapsed := time.Since(start)
	if !s.m.parked {
		// The master stopped the fleet (completion without park is the
		// naive path; otherwise crash/cap/wall) — or lost it. Wait for
		// the goroutines so the counters below are settled.
		s.joinFleet()
		for _, w := range s.workers {
			if err := w.err(); err != nil {
				return nil, err
			}
		}
		if s.m.err != nil {
			return nil, s.m.err
		}
	}
	return s.collect(elapsed), nil
}

// collect snapshots the fleet's state into a Result. Safe either after
// the workers exited (fleetDown) or while they are parked (the park
// fence's ack collect gives happens-before edges covering every counter
// and table write).
func (s *Session) collect(elapsed time.Duration) *Result {
	// Size the map instead of growing it from empty: an epoch rarely
	// changes how many keys hold a value, and a fleet's first collect
	// counts the shards' rows.
	size := 0
	if prev := s.Result(); prev != nil {
		size = len(prev.Values)
	} else {
		for _, w := range s.workers {
			size += w.table.Len()
		}
	}
	res := &Result{
		Values:    values(s.workers, size),
		Rounds:    s.m.rounds,
		Elapsed:   elapsed,
		Converged: s.m.converged,
		StopCause: s.m.cause,
		Kernel:    "naive",
		Master:    s.m.met.reg.Snapshot(),
	}
	if s.cfg.Mode.MRA() {
		res.Kernel = s.plan.Kernel.Desc().Class.String()
	}
	var sent, recv, flushes int64
	for _, w := range s.workers {
		sent += w.sent
		recv += w.recv
		flushes += w.flushes
		if res.Sched == "" { // the same on every worker
			res.Sched = w.pol.sched.String()
		}
		res.Workers = append(res.Workers, w.stats())
	}
	res.MessagesSent = sent - s.prevSent
	res.MessagesRecv = recv - s.prevRecv
	res.Flushes = flushes - s.prevFlush
	s.prevSent, s.prevRecv, s.prevFlush = sent, recv, flushes
	return res
}

// fail records the first sticky error and stops the fleet if it is
// still up. Called only by the busy holder; the field writes go through
// mu for the concurrent accessors' benefit.
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.stopFleet()
}

// stopFleet stops the worker goroutines if they are still up and waits
// for them. Called only by the session's exclusive holder.
func (s *Session) stopFleet() {
	s.mu.Lock()
	down := s.fleetDown
	s.mu.Unlock()
	if !down {
		s.m.bcast(transport.Message{Kind: transport.Stop})
		s.joinFleet()
	}
}

// joinFleet raises every worker's stop signal and waits for the
// goroutines. The master's Stop message is best-effort — sendTo gives a
// full inbox up at the collect deadline — and a worker that never saw it
// would compute on against peers that have left; the signal cannot be
// lost.
func (s *Session) joinFleet() {
	for _, w := range s.workers {
		w.stop()
	}
	s.wg.Wait()
	s.setFleetDown()
}

// ---------------------------------------------------------------------
// Crash re-join (membership.go, DESIGN.md §11). The master calls these on
// the goroutine executing m.run — the session goroutine — so they access
// session state without locks.
// ---------------------------------------------------------------------

// spawnInto stands up a fresh worker in slot id on a reset transport
// endpoint, gated on the admission fence. The endpoint reset fences off
// the slot's previous incarnation (a stale conn can no longer send) and
// gives the replacement a clean inbox, which the fence's request reaches
// after it.
func (s *Session) spawnInto(id int) *worker {
	conn := s.net.ResetConn(id)
	w := newWorker(id, s.cfg, s.plan, s.cfg.Fault.Wrap(conn))
	w.joinGate = true
	w.reborn = true // a crashw= injection must not kill the replacement too
	// Every park fence driven so far has been released — by an Apply, or
	// by the liveness rule that spawns this worker: it is over for the
	// replacement too.
	park := &w.fences[transport.FencePark]
	park.done, park.released = s.m.parks, s.m.parks
	s.workers[id] = w
	return w
}

// respawnWorker replaces crashed worker id, seeded as at Open: a
// selective replacement re-derives the rest of its shard from the
// survivors' replay at the fence, a combining or naive one starts over at
// the cut with the whole fleet (worker.repairState).
func (s *Session) respawnWorker(id int) {
	w := s.spawnInto(id)
	w.seedShard(nil, nil)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		w.run()
	}()
}

// teardown releases everything; used by Open's error path and Close.
// The caller must hold the exclusive claim (Open's construction path or
// Close's closing flag), so no other operation is touching the fleet.
func (s *Session) teardown() {
	s.stopFleet()
	s.net.Close()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Close stops the parked fleet and releases the transport. Idempotent,
// and safe to call concurrently with Apply: it
// commits to closing immediately — operations that arrive after Close
// has been called get ErrSessionClosed instead of queueing behind the
// teardown — and then waits for the one in-flight operation to finish
// (bounded by the wall budget) before tearing the fleet down. The
// commit-first order matters under contention: if Close merely waited
// for a busy-free window, callers re-claiming the session in a loop (a
// serving front end under load) could starve it indefinitely.
// Concurrent Closes wait for the first to complete. Close returns the
// first transport failure seen during shutdown, if any; the session's
// sticky epoch error is reported by Apply/Err, not here.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	if s.closing {
		// Another Close owns the teardown; wait for it to finish.
		for !s.closed {
			s.cond.Wait()
		}
		s.mu.Unlock()
		return nil
	}
	s.closing = true // from here every new begin() is rejected
	for s.busy {
		s.cond.Wait()
	}
	s.mu.Unlock()
	s.teardown()
	for _, w := range s.workers {
		if err := w.err(); err != nil {
			return err
		}
	}
	return nil
}

// Result returns the most recent fixpoint's Result (the initial one
// after Open, the latest Apply's afterwards). It never blocks behind a
// running Apply: mid-epoch it returns the previous epoch's Result, which
// is immutable after publication and safe to read without coordination.
func (s *Session) Result() *Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.res
}

// Epoch returns the number of fixpoints this session has computed; the
// initial fixpoint is epoch 1.
func (s *Session) Epoch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engEpoch
}

// MutEpoch returns how many batches the current state incorporates: 0
// after a fresh Open, k after the k-th Apply, or the restored cut's
// stamp after Open(CheckpointDir) — the caller re-Applies its own
// batches past this point to catch up.
func (s *Session) MutEpoch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mutEpoch
}

// Err returns the session's sticky error, if an epoch failed.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
