package runtime

import (
	"errors"
	"fmt"
	"time"

	"powerlog/internal/analyzer"
	"powerlog/internal/compiler"
	"powerlog/internal/term"
	"powerlog/internal/transport"
)

// ErrWorkerLost is surfaced (wrapped) by Run and RunMaster when a
// collect round times out: a worker died or was partitioned away
// mid-collect, so its superstep's FenceAck or its StatsReply will never
// arrive. Without the deadline the master would block forever (the PR-4
// follow-up).
var ErrWorkerLost = errors.New("worker lost: missing report within the collect deadline")

// master coordinates termination. For BSP modes it collects each
// superstep's fence acks and releases, stops or parks the fleet; for
// async modes it feeds the workers' stats reports to the stop machine
// (internal/term), which applies the paper's two-level criteria: the
// user-level ε on consecutive global results, distributed quiescence for
// fixpoint programs, and the system-level round cap.
type master struct {
	cfg  Config
	plan *compiler.Plan
	conn transport.Conn
	nw   int

	pending []transport.Message // messages received while sending
	timer   *time.Timer         // reused collect-deadline timer

	met masterMetrics // observe.go: rounds, collect waits, timeouts

	rounds    int
	converged bool
	cause     StopCause // why the last run() ended
	err       error     // first liveness failure (wraps ErrWorkerLost)

	// Session state (session.go). park makes a converged fixpoint park
	// the fleet (a FencePark the session holds) instead of stopping it; epoch
	// is the session epoch being computed (1 = initial fixpoint); parked
	// reports whether the last run() ended in a successful park. gRound
	// counts master rounds cumulatively across epochs, so injected
	// CrashRound faults keep one global timeline; episodes numbers
	// snapshot episodes monotonically across epochs.
	park     bool
	epoch    int
	parked   bool
	gRound   int
	episodes int

	// Re-join state (membership.go, DESIGN.md §11). live is the stop
	// machine's live set: every slot, for the whole run; fence numbers
	// membership fences; s is the session that owns the workers'
	// lifecycles — it respawns a lost slot on the master's goroutine (nil
	// under RunMaster: a loss aborts the run).
	live  []bool
	fence int
	s     *Session
}

func newMaster(cfg Config, plan *compiler.Plan, conn transport.Conn) *master {
	m := &master{cfg: cfg, plan: plan, conn: conn, nw: cfg.Workers, met: newMasterMetrics(), epoch: 1}
	m.live = make([]bool, cfg.Workers)
	for j := range m.live {
		m.live[j] = true
	}
	return m
}

// collectTimeout is the liveness deadline for one message during a
// collect. CollectTimeout = 0 falls back to MaxWall: better a typed
// error at the wall-clock cap than a hang, without risking false
// positives on long compute passes (workers only pump their inboxes at
// blocking points, so a tight default could misfire).
func (m *master) collectTimeout() time.Duration {
	if m.cfg.CollectTimeout > 0 {
		return m.cfg.CollectTimeout
	}
	return m.cfg.MaxWall
}

// bcast sends msg to every worker without blocking on a back-pressured
// inbox: while a worker's channel is full the master keeps draining its
// own inbox (stashing replies for the collect loop), so bulk data can
// never deadlock or starve the termination protocol.
func (m *master) bcast(msg transport.Message) {
	for j := 0; j < m.nw; j++ {
		m.sendTo(j, msg)
	}
}

// sendTo delivers one message to one worker with bcast's no-deadlock
// discipline. The retry is bounded by the collect deadline: a receiver
// that has not drained a single inbox slot in that long is wedged or
// dead (a crashed worker's inbox fills with peer data and would
// otherwise livelock the master here, before the probe can ever declare
// it lost), so the message is dropped like a send error — every
// master→worker message is either re-solicited by a later protocol step
// or follows an endpoint reset that clears the jam. No fence waits here
// on a healthy fleet: a re-join's request is sent after the reset.
func (m *master) sendTo(j int, msg transport.Message) {
	try, canTry := m.conn.(transport.TrySender)
	if !canTry {
		_ = m.conn.Send(j, msg)
		return
	}
	var bo backoff
	var deadline time.Time
	for {
		ok, err := try.TrySend(j, msg)
		if ok || err != nil {
			return
		}
		select {
		case in, chOk := <-m.conn.Inbox():
			if !chOk {
				return
			}
			m.pending = append(m.pending, in)
			// Inbox progress says the fleet is moving, not that worker j
			// is draining — the deadline stands.
			bo.reset()
		default:
			if deadline.IsZero() {
				deadline = time.Now().Add(m.collectTimeout())
			} else if time.Now().After(deadline) {
				return
			}
			bo.wait()
		}
	}
}

// recvWithin returns the next incoming message, honouring the pending
// stash and giving up d from now. timedOut distinguishes a deadline
// expiry (worker lost) from a closed network (ok == false).
func (m *master) recvWithin(d time.Duration) (msg transport.Message, ok, timedOut bool) {
	if len(m.pending) > 0 {
		msg = m.pending[0]
		m.pending = m.pending[1:]
		return msg, true, false
	}
	if m.timer == nil {
		m.timer = time.NewTimer(d)
	} else {
		m.timer.Reset(d)
	}
	select {
	case msg, ok = <-m.conn.Inbox():
		// Single-goroutine use: a failed Stop means the timer fired
		// concurrently, so its channel holds exactly one value to drain.
		if !m.timer.Stop() {
			<-m.timer.C
		}
		if !ok && m.cause == StopNone {
			m.cause = StopTransportClosed // every caller ends the run on !ok
		}
		return msg, ok, false
	case <-m.timer.C:
		return transport.Message{}, true, true
	}
}

// expired ends the run at a collect deadline by which only got of the
// expected reports had arrived. Past the wall budget that is an honest
// not-converged abort (the MaxWall fallback deadline always lands
// here); within it a worker is lost — typed ErrWorkerLost. Either way
// the best-effort Stop lets surviving workers (including BSP peers
// stuck at a step fence's cut on the dead worker's marker) unwind
// instead of hanging.
func (m *master) expired(round, got int, wall time.Time) {
	if time.Now().After(wall) {
		m.halt(StopWall)
		return
	}
	m.met.collectTimeouts.Inc()
	m.err = fmt.Errorf("runtime: collect round %d got %d/%d reports within %v: %w",
		round, got, m.nw, m.collectTimeout(), ErrWorkerLost)
	m.halt(StopWorkerLost)
}

// halt stops the fleet and records why. The first cause of a run wins: a
// fence that aborted is not re-labelled by the collect that gives up
// after it.
func (m *master) halt(cause StopCause) {
	if m.cause == StopNone {
		m.cause = cause
	}
	m.bcast(transport.Message{Kind: transport.Stop})
}

func (m *master) run() {
	// The mode registry (policy.go) records which modes end supersteps in
	// step fences; everything else — the async family and SSP —
	// terminates via the stop machine.
	m.parked = false
	// Per-epoch verdict: a later epoch that stops at the iteration cap or
	// wall clock must not inherit an earlier epoch's converged flag.
	m.converged = false
	m.cause = StopNone
	if modeBarriered[m.cfg.Mode] {
		m.runBSP()
	} else {
		m.runAsync()
	}
}

// finish ends a fixpoint whose stop decision has been taken. Converged
// session epochs park: the master drives a FencePark, after whose acks
// every worker has fenced and drained its data lanes and sits blocked on
// its inbox. The collect's happens-before edges make the fleet's tables
// safe for the session goroutine to read and mutate until it releases
// the fence at the next Apply. Everything else stops the fleet.
func (m *master) finish(cause StopCause) {
	if !m.park || !m.converged {
		m.halt(cause)
		return
	}
	if m.drive(m.transition(transport.FencePark, m.epoch), time.Now()) {
		m.cause = cause
		m.parked = true
		m.met.epochs.Inc()
	}
}

// stopCause names a stop decision just taken: the termination condition
// wins over the iteration cap, the cap over the wall clock.
func (m *master) stopCause(capped bool) StopCause {
	switch {
	case m.converged:
		return StopConverged
	case capped:
		return StopIterationCap
	default:
		return StopWall
	}
}

// crashAt implements the injector's run-level faults at the top of a
// master round — epochRound within the current epoch, m.gRound across
// epochs: a crash point aborts the whole run (broadcast Stop with
// converged=false — the "crash" half of a crash/restore drill), and
// MasterRestartRound asks the caller to forget its termination-detector
// state, as a restarted master process would.
func (m *master) crashAt(epochRound int) (crash, restart bool) {
	inj := m.cfg.Fault
	if inj == nil {
		return false, false
	}
	if inj.CrashAt(m.epoch, epochRound, m.gRound) {
		m.halt(StopInjected)
		return true, false
	}
	return false, inj.MasterRestartRound() == m.gRound
}

// termConfig is the fixpoint's termination parameters as internal/term
// takes them. Holds is the bucket schedule as it will run this epoch: the
// plan's licence and the graph's premise (a positive Kernel.Step), which
// a session's mutations move — so it is read at every run's start. A
// plan whose weights fail the premise drains FIFO and holds nothing.
func (m *master) termConfig() term.Config {
	return term.Config{
		Epsilon:  m.plan.Termination.Epsilon,
		MaxIters: m.plan.Termination.MaxIters,
		Interval: m.cfg.CheckInterval,
		Holds:    m.plan.Info.Facts.Schedule.Kind == analyzer.SchedBucket && m.plan.Kernel.Step() > 0,
	}
}

// runBSP collects each superstep's step fence — one ack per worker, with
// the superstep's report, each within collectTimeout of the last — and
// asks the barrier detector (internal/term) for the verdict: release the
// fence into the next superstep, or finish. A worker counts supersteps
// across a session's epochs, so the fence's Round is gRound.
func (m *master) runBSP() {
	bar := term.NewBarrier(m.termConfig())
	deadline := time.Now().Add(m.cfg.MaxWall)
	for round := 1; ; round++ {
		m.rounds = round
		m.gRound++
		if crash, restart := m.crashAt(round); crash {
			return
		} else if restart {
			bar.Reset()
		}
		m.met.rounds.Inc()
		collectStart := time.Now()
		need := m.nw
		got, sum, open := m.collectAcks(transport.FenceStep, m.gRound, need, m.collectTimeout(), true)
		if !open {
			return
		}
		if got < need {
			m.expired(round, got, deadline)
			return
		}
		m.met.collectWaitUS.Observe(uint64(time.Since(collectStart).Microseconds()))
		cause := bar.Round(round, sum.AccDelta, sum.Dirty)
		m.converged = cause == term.Converged
		if cause != term.None || time.Now().After(deadline) {
			m.finish(m.stopCause(cause == term.IterationCap))
			return
		}
		m.bcast(transport.Message{Kind: transport.FenceRelease, Fence: transport.FenceStep, Round: m.gRound})
	}
}

// report is a StatsReply's payload as the termination machine takes it.
func report(st transport.Stats) term.Report {
	return term.Report{Sent: st.Sent, Recv: st.Recv, Passes: st.Passes, AccSum: st.AccSum, Dirty: st.Dirty}
}

// runAsync drives the async family's and SSP's termination from the one
// stop machine (internal/term): it feeds the machine every StatsReply —
// the replies to its own waves and the unsolicited reports of workers
// that fell idle — and does what the machine answers. It blocks on the
// inbox, never on a clock: an idle report can start the confirming wave
// at once, and CheckInterval is only the fallback cadence at which a wave
// starts anyway (a lost or rate-limited report, a busy fleet) and the
// grid the ε criterion samples on. A round is one wave: the injector's
// crash and restart rounds and snapshot episodes all run at the start of
// one. What stays here is liveness — the collect deadline, the probe,
// live re-join — and the wall clock.
func (m *master) runAsync() {
	deadline := time.Now().Add(m.cfg.MaxWall)
	det := term.New(m.termConfig(), m.live, time.Now())
	m.rounds = 0
	// waveStart and collectBy belong to the open wave: when it began, and
	// the liveness deadline — one collectTimeout past its last reply, so a
	// wave stalls only when some worker has been silent that long, not
	// when the fleet answers slowly. Only the wave's own replies push it:
	// an idle report from one worker says nothing about a silent one.
	var waveStart, collectBy time.Time
	probed := false
	for {
		now := time.Now()
		dec := det.Next(now)
		switch dec.Action {
		case term.Stop:
			m.converged = dec.Cause == term.Converged
			m.finish(m.stopCause(dec.Cause == term.IterationCap))
			return
		case term.StartWave:
			if now.After(deadline) {
				m.finish(StopWall)
				return
			}
			if !m.beginWave(det, now) {
				return
			}
			waveStart, collectBy, probed = now, now.Add(m.collectTimeout()), false
		case term.Wait:
			collecting := dec.Until.IsZero()
			if !collecting {
				// Between waves: sleep to the grid tick, or to the end of
				// the wall budget if that comes first.
				if now.After(deadline) {
					m.finish(StopWall)
					return
				}
				collectBy = dec.Until
				if deadline.Before(collectBy) {
					collectBy = deadline
				}
			}
			msg, ok, timedOut := m.recvWithin(collectBy.Sub(now))
			switch {
			case !ok:
				return
			case timedOut && !collecting:
				// The grid tick (the machine starts a wave) or the wall.
			case timedOut:
				silent := m.silent(det)
				inBudget := !time.Now().After(deadline)
				if inBudget && !probed {
					// Second chance: a worker deep in a long compute pass
					// only pumps its inbox at blocking points, so one
					// missed deadline distinguishes nothing. Re-solicit the
					// silent workers directly; only a second silence makes
					// them lost.
					probed = true
					m.met.collectProbes.Inc()
					for _, j := range silent {
						m.sendTo(j, transport.Message{Kind: transport.StatsRequest, Round: m.gRound})
					}
					collectBy = time.Now().Add(m.collectTimeout())
				} else if inBudget && m.recoverLost(silent) {
					// The fleet was repaired by a membership fence; what
					// was observed describes a world that no longer exists.
					det.Reset(m.live, time.Now())
				} else {
					m.expired(m.rounds, m.nw-len(silent), deadline)
					return
				}
			case msg.Kind == transport.StatsReply:
				// Round is the wave the reply answers, 0 for an idle
				// report; the machine drops replies to any wave but the
				// open one.
				missing := det.Missing()
				if det.Report(msg.From, msg.Round, report(msg.Stats), time.Now()) {
					m.met.collectWaitUS.Observe(uint64(time.Since(waveStart).Microseconds()))
				} else if det.Missing() < missing {
					collectBy = time.Now().Add(m.collectTimeout())
				}
			}
		}
	}
}

// beginWave starts one round: the per-round hooks, then a StatsRequest to
// every worker. It reports false if a hook ended the run. An injected
// master restart invalidates what the machine has seen: it resets the
// machine instead, and the wave waits for the reset machine's next tick.
func (m *master) beginWave(det *term.Detector, now time.Time) bool {
	m.gRound++
	crash, reset := m.crashAt(m.rounds + 1)
	if crash {
		return false
	}
	if reset {
		det.Reset(m.live, time.Now())
		return true
	}
	if m.snapshotsDue(m.rounds) {
		// Episodes are numbered by a cumulative counter so checkpoint
		// epochs stay monotonic across session fixpoints (the round
		// restarts at 0 each epoch; reusing its quotient would overwrite
		// newer cuts).
		m.episodes++
		if !m.drive(m.transition(transport.FenceSnapshot, m.episodes), now) {
			return false
		}
	}
	m.rounds++
	m.met.rounds.Inc()
	if det.Begin(m.gRound, now) {
		m.met.wavesTimer.Inc()
	} else {
		m.met.wavesIdle.Inc()
	}
	m.bcast(transport.Message{Kind: transport.StatsRequest, Round: m.gRound})
	return true
}

// silent lists the workers the open wave has not heard from.
func (m *master) silent(det *term.Detector) []int {
	var out []int
	for j := 0; j < m.nw; j++ {
		if det.Awaiting(j) {
			out = append(out, j)
		}
	}
	return out
}

// Snapshot episodes give the async family and SSP a consistent cut for
// combining aggregates (sum/count), where a stale snapshot is NOT safe
// to restore: re-delivered deltas would be double-counted. An episode is
// a fence of class FenceSnapshot (fence.go) whose action at the cut
// writes the shard; the master opens one every SnapshotEvery-th check
// round. Selective aggregates skip all of this: they snapshot locally
// with no coordination (maybeStaleSnapshot) because Theorem 3's replay
// tolerance makes a stale restore safe.

// snapshotsDue reports whether the polling master should run a snapshot
// episode after check round `round`. Selective aggregates snapshot
// locally instead, so episodes apply only to combining aggregates.
func (m *master) snapshotsDue(round int) bool {
	return m.cfg.SnapshotDir != "" && m.cfg.SnapshotEvery > 0 &&
		!m.plan.Op.Selective() &&
		round > 0 && round%m.cfg.SnapshotEvery == 0
}
