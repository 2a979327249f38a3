package runtime

import (
	"errors"
	"time"

	"powerlog/internal/analyzer"
	"powerlog/internal/compiler"
	"powerlog/internal/term"
	"powerlog/internal/transport"
)

// ErrWorkerLost is surfaced (wrapped) when a worker stays silent through
// a collect deadline and the probe after it (master.rejoin) and cannot be
// replaced: under RunMaster, which has no Session to respawn it in, or
// when no worker survives. It died or was partitioned away, so its report
// or ack will never arrive.
var ErrWorkerLost = errors.New("worker lost: missing report within the collect deadline")

// master coordinates termination. For BSP modes it collects each
// superstep's reports and reaches the verdict every worker reaches from
// the same reports, then stops or parks the fleet — it never releases a
// superstep, the workers judge it themselves (barrier.go); for async
// modes it feeds the workers' stats reports to the stop machine
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
	// acks holds each class's collected FenceAcks, by slot: the fence
	// each slot acked last and what it reported.
	acks  [transport.NumFenceClasses][]stepReport
	later []transport.Message // acks for a later fence than the one collected

	met masterMetrics // observe.go: rounds, collect waits, timeouts

	rounds    int
	converged bool
	cause     StopCause // why the last run() ended
	err       error     // first liveness failure (wraps ErrWorkerLost)
	wall      time.Time // the running fixpoint's MaxWall deadline

	// Session state (session.go). park makes a converged fixpoint park
	// the fleet (a FencePark the session holds) instead of stopping it; epoch
	// is the session epoch being computed (1 = initial fixpoint); parked
	// reports whether the last run() ended in a successful park. gRound
	// counts master rounds cumulatively across epochs, so injected
	// CrashRound faults keep one global timeline — in a barriered mode it
	// is the last superstep collected whole; parks numbers park fences
	// monotonically across epochs.
	park   bool
	epoch  int
	parked bool
	gRound int
	parks  int

	// Re-join state (membership.go, DESIGN.md §11). fence numbers
	// membership fences; s is the session that owns the workers'
	// lifecycles — it respawns a lost slot on the master's goroutine (nil
	// under RunMaster: a loss ends the run).
	fence int
	s     *Session
}

func newMaster(cfg Config, plan *compiler.Plan, conn transport.Conn) *master {
	m := &master{cfg: cfg, plan: plan, conn: conn, nw: cfg.Workers, met: newMasterMetrics(), epoch: 1, wall: time.Now().Add(cfg.MaxWall)}
	for c := range m.acks {
		m.acks[c] = make([]stepReport, cfg.Workers)
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
// discipline. A conn without TrySend (TCP) gets sendRetrying's bounded
// retry and nothing else. Otherwise the retry of a back-pressured
// destination is bounded by the collect deadline: a receiver
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
		_ = sendRetrying(m.conn, j, msg, func() bool { return false })
		return
	}
	var bo transport.Backoff
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
			bo.Reset()
		default:
			if deadline.IsZero() {
				deadline = time.Now().Add(m.collectTimeout())
			} else if time.Now().After(deadline) {
				return
			}
			bo.Wait()
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

// halt stops the fleet and records why. The first cause of a run wins: a
// member fence that lost its fleet inside the liveness rule is not
// re-labelled by the collect that called the rule.
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
	m.wall = time.Now().Add(m.cfg.MaxWall)
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
// the fence at the next Apply. Everything else stops the fleet. finish
// reports false when the fixpoint goes on instead: the park fell short,
// and the liveness rule released it and repaired the fleet.
func (m *master) finish(cause StopCause) bool {
	if !m.park || !m.converged {
		m.halt(cause)
		return true
	}
	m.parks++
	if m.drive(transition{class: transport.FencePark, epoch: m.parks}, time.Now()) {
		m.cause = cause
		m.parked = true
		m.met.epochs.Inc()
		return true
	}
	m.converged = false
	return m.cause != StopNone
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
// master round — epochRound within the current epoch, gRound across
// epochs: a crash point aborts the whole run (broadcast Stop with
// converged=false, which poisons a session), and MasterRestartRound asks
// the caller to forget its termination-detector state, as a restarted
// master process would.
func (m *master) crashAt(epochRound, gRound int) (crash, restart bool) {
	inj := m.cfg.Fault
	if inj == nil {
		return false, false
	}
	if inj.CrashAt(m.epoch, epochRound, gRound) {
		m.halt(StopInjected)
		return true, false
	}
	return false, inj.MasterRestartRound() == gRound
}

// termConfig is the fixpoint's termination parameters as internal/term
// takes them. Holds is the bucket schedule as it will run this epoch: the
// plan's licence and the graph's premise (a positive Kernel.Step), which
// a session's mutations move — so the master and every BSP worker read it
// at each fixpoint's start. A plan whose weights fail the premise drains
// FIFO and holds nothing.
func termConfig(plan *compiler.Plan, cfg Config) term.Config {
	return term.Config{
		Epsilon:  plan.Termination.Epsilon,
		MaxIters: plan.Termination.MaxIters,
		Interval: cfg.CheckInterval,
		Holds:    plan.Info.Facts.Schedule.Kind == analyzer.SchedBucket && plan.Kernel.Step() > 0,
	}
}

// runBSP collects each superstep's step acks — one report per worker,
// each within collectTimeout of the last — and asks the barrier detector
// (internal/term) for the verdict every worker reaches from the same
// reports: go on, or finish. It releases nothing: a worker starts the next
// superstep on its own verdict, so its next acks may arrive mid-collect
// (collectAcks keeps them). A worker counts supersteps across a session's
// epochs, so the superstep collected is gRound+1. When the liveness rule
// replaced a worker, the fleet resumes under a fresh barrier at the
// superstep after gRound, the last collected whole, as every worker does
// (worker.rebase); a park that fell short is released to the same end.
func (m *master) runBSP() {
	bar := term.NewBarrier(termConfig(m.plan, m.cfg))
	from := m.gRound
	for {
		s := m.gRound + 1
		round := s - from
		m.rounds = round
		if crash, restart := m.crashAt(round, s); crash {
			return
		} else if restart {
			bar.Reset()
		}
		m.met.rounds.Inc()
		collectStart := time.Now()
		if m.gather(transport.FenceStep, s, nil) {
			m.gRound = s
			m.met.collectWaitUS.Observe(uint64(time.Since(collectStart).Microseconds()))
			fleet := fleetReport(m.acks[transport.FenceStep])
			cause := bar.Round(round, fleet.AccDelta, fleet.Dirty)
			onVerdict(transport.MasterID(m.nw), round, fleet, cause)
			m.converged = cause == term.Converged
			if cause == term.None && !time.Now().After(m.wall) {
				continue
			}
			if m.finish(m.stopCause(cause == term.IterationCap)) {
				return
			}
		} else if m.cause != StopNone {
			return
		}
		// Rebased: what was collected past gRound is the old numbering's.
		bar, from = term.NewBarrier(termConfig(m.plan, m.cfg)), m.gRound
		clear(m.acks[transport.FenceStep])
		m.later = m.later[:0]
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
// crash and restart rounds run at the start of one. What stays here is
// the wall clock; a wave that passes its collect deadline goes to the
// liveness rule, and once the rule has changed the fleet, what the
// machine observed describes a world that no longer exists: it starts
// afresh.
func (m *master) runAsync() {
	det := term.New(termConfig(m.plan, m.cfg), m.nw, time.Now())
	m.rounds = 0
	// waveStart and collectBy belong to the open wave: when it began, and
	// the liveness deadline — one collectTimeout past its last reply, so a
	// wave stalls only when some worker has been silent that long, not
	// when the fleet answers slowly. Only the wave's own replies push it:
	// an idle report from one worker says nothing about a silent one.
	var waveStart, collectBy time.Time
	for {
		now := time.Now()
		dec := det.Next(now)
		switch dec.Action {
		case term.Stop:
			m.converged = dec.Cause == term.Converged
			if m.finish(m.stopCause(dec.Cause == term.IterationCap)) {
				return
			}
			det.Reset(time.Now())
		case term.StartWave:
			if now.After(m.wall) {
				m.finish(StopWall)
				return
			}
			if !m.beginWave(det, now) {
				return
			}
			waveStart, collectBy = now, now.Add(m.collectTimeout())
		case term.Wait:
			collecting := dec.Until.IsZero()
			if !collecting {
				// Between waves: sleep to the grid tick, or to the end of
				// the wall budget if that comes first.
				if now.After(m.wall) {
					m.finish(StopWall)
					return
				}
				collectBy = dec.Until
				if m.wall.Before(collectBy) {
					collectBy = m.wall
				}
			}
			msg, ok, timedOut := m.recvWithin(collectBy.Sub(now))
			switch {
			case !ok:
				return
			case timedOut && !collecting:
				// The grid tick (the machine starts a wave) or the wall.
			case timedOut:
				if !m.rejoin(det.Awaiting, nil) {
					if m.cause != StopNone {
						return
					}
					det.Reset(time.Now())
				}
				collectBy = time.Now().Add(m.collectTimeout())
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

// beginWave starts one round: the injector's hooks, then a StatsRequest
// to every worker. It reports false if a hook ended the run. An injected
// master restart invalidates what the machine has seen: it resets the
// machine instead, and the wave waits for the reset machine's next tick.
func (m *master) beginWave(det *term.Detector, now time.Time) bool {
	m.gRound++
	crash, reset := m.crashAt(m.rounds+1, m.gRound)
	if crash {
		return false
	}
	if reset {
		det.Reset(time.Now())
		return true
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
