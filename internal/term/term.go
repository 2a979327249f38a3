// Package term is the stop decision. Its asynchronous half is one pure
// state machine: the runtime's async master (async family and SSP) and
// graphsys.RunAsync's ε coordinator both drive it, so the quiescence and
// ε predicates exist once. Its barriered half (Barrier, at the end of
// this file) judges a BSP run one superstep at a time. The machine never
// reads a clock, sleeps or sends; its caller feeds it worker reports and
// the current time and does what it answers: wait, start a wave, or stop.
//
// A report is one worker's {sent, recv, passes, accSum, dirty}. It is
// either solicited — the reply to a wave, a poll of every worker —
// or unsolicited: a worker that falls idle with nothing pending says so
// at once instead of waiting to be asked.
//
// Quiescence (fixpoint programs; it also ends an ε program that reaches
// a true fixpoint) is Mattern's four-counter condition. When the newest
// report of every worker is clean and Σsent = Σrecv, that picture
// is the first wave; the machine asks for one solicited wave and stops
// iff it returns the same Σsent, Σrecv and Σpasses, still clean. The
// second wave starts after every report of the first was received and
// the counters are monotone per worker, so equal sums mean equal
// per-worker counters: nobody sent, received or completed a pass in
// between, every worker was passive across the instant between the
// waves, and Σsent = Σrecv says nothing was in flight at that instant.
// No delay between the waves adds to that argument, so there is none.
// Two clean pictures with different sums (10 = 10, then 12 = 12) prove
// the opposite — the fleet moved — and do not stop the run.
//
// A wave starts when an idle report completes a quiet picture, when a
// wave begun on a picture that was not quiet comes back quiet (it is then
// the first wave), and, whatever arrives, every Config.Interval: the
// fallback that bounds the stop at two ticks past quiescence when idle
// reports are lost or rationed. A confirmation that fails is not retried
// until a report or a tick brings news.
//
// The ε criterion (limit programs) compares consecutive global Σacc
// samples, and only samples taken by timer-started waves: those are at
// least Config.Interval apart, so an early wake never shortens the window
// an ε is judged over. A window counts only if no worker's sample is
// stale for it — each worker either completed a pass inside the
// window or reports clean; a worker that holds pending work and made no
// pass (descheduled, starved) has a frozen accSum, and judging the
// fleet's change without it is how an ε stop leaves mass behind. A
// window below ε arms a candidate, remembering Σsent; the stop is taken
// at a later sample, once Σrecv has passed that watermark (every delta
// outstanding at candidate time has been folded) with Σacc still within
// ε of the candidate.
package term

import (
	"math"
	"time"
)

// Report is one worker's progress report.
type Report struct {
	Sent, Recv int64   // cumulative KVs sent / received (monotone)
	Passes     int64   // productive compute passes completed (monotone)
	AccSum     float64 // aggregate over the worker's Accumulation column
	Dirty      bool    // local work is pending: dirty rows, held deltas, unflushed buffers
}

// Config fixes a fixpoint's termination parameters.
type Config struct {
	Epsilon  float64       // > 0 enables the ε criterion
	MaxIters int           // effective-iteration cap
	Interval time.Duration // fallback wave cadence and the ε sampling grid
	// Holds: the plan's schedule may hold dirty keys back from a pass (the
	// bucket licence of analyzer.Facts). A window's change then bounds
	// what remains only if the window folded the whole dirty set, so an ε
	// window counts only when the fleet reports clean.
	Holds bool
}

// Action is what the caller should do next.
type Action uint8

const (
	Wait      Action = iota // block for the next report, at most until Decision.Until
	StartWave               // call Begin and solicit a report from every worker
	Stop                    // end the fixpoint; Decision.Cause says why
)

// Cause is why the machine stopped.
type Cause uint8

const (
	None         Cause = iota
	Converged          // quiescence or the ε criterion held
	IterationCap       // Config.MaxIters effective iterations passed first
)

// Decision is the machine's answer to Next.
type Decision struct {
	Action Action
	// Until is Wait's deadline: the next grid tick. Zero while a wave is
	// open — the caller waits for its replies under its own liveness
	// deadline.
	Until time.Time
	Cause Cause
}

// sums is a global picture: the per-worker reports added up.
type sums struct {
	sent, recv, passes int64
	acc                float64
	dirty              bool
}

// quiet is the per-wave half of the four-counter condition.
func (s sums) quiet() bool { return !s.dirty && s.sent == s.recv }

// Detector is the state machine. It is not safe for concurrent use.
type Detector struct {
	cfg Config

	// latest is each worker's newest report, solicited or not.
	latest []Report
	have   []bool

	// The open wave: its caller-chosen id (0 = none), whether the grid
	// started it, its replies, and the picture it has to reproduce to
	// prove quiescence (armed: latest was quiet when the wave began).
	wave    int
	byTimer bool
	reply   []Report
	replied []bool
	missing int
	armed   bool
	base    sums

	// confirmDue: the newest reports — an idle report just in, or the
	// wave just closed — form a quiet picture no wave has tried to
	// confirm, so one is due now rather than at the next tick. idleSeen:
	// an idle report arrived while the wave was open.
	confirmDue, idleSeen bool

	nextTick time.Time

	// ε grid: the last accepted sample (per-worker passes, Σacc), the
	// armed candidate, and the effective-iteration count.
	grid     []int64
	haveGrid bool
	prevSum  float64
	cand     bool
	candSum  float64
	candSent int64
	iters    int

	stop Cause
}

// New returns a detector for a fleet of n workers, with the first grid
// tick one Interval after now.
func New(cfg Config, n int, now time.Time) *Detector {
	d := &Detector{
		cfg:     cfg,
		latest:  make([]Report, n),
		have:    make([]bool, n),
		reply:   make([]Report, n),
		replied: make([]bool, n),
		grid:    make([]int64, n),
	}
	d.Reset(now)
	return d
}

// Reset forgets everything observed so far: a membership fence zeroed
// the fleet's counters, or a restarted master lost its memory. Both
// criteria need a fresh pair of observations after it, so a reset can
// delay a stop but never cause one.
func (d *Detector) Reset(now time.Time) {
	clear(d.have)
	d.wave, d.armed = 0, false
	d.confirmDue, d.idleSeen = false, false
	d.nextTick = now.Add(d.cfg.Interval)
	d.haveGrid, d.cand, d.iters = false, false, 0
	d.stop = None
}

// Next says what to do at time now. It does not change the machine.
func (d *Detector) Next(now time.Time) Decision {
	switch {
	case d.stop != None:
		return Decision{Action: Stop, Cause: d.stop}
	case d.wave != 0:
		return Decision{Action: Wait}
	case d.confirmDue || !now.Before(d.nextTick):
		return Decision{Action: StartWave}
	}
	return Decision{Action: Wait, Until: d.nextTick}
}

// Begin opens wave id (non-zero; replies are matched on it). It reports
// whether the grid started the wave — the tick was due — as opposed to
// an idle report: only a timer wave's result is an ε sample.
func (d *Detector) Begin(id int, now time.Time) (byTimer bool) {
	d.wave = id
	d.byTimer = !now.Before(d.nextTick)
	d.confirmDue, d.idleSeen = false, false
	clear(d.replied)
	d.missing = len(d.replied)
	p, ok := d.picture()
	d.base, d.armed = p, ok && p.quiet()
	return d.byTimer
}

// Awaiting reports whether the open wave still lacks worker j's reply.
func (d *Detector) Awaiting(j int) bool {
	return d.wave != 0 && !d.replied[j]
}

// Missing is how many replies the open wave still lacks.
func (d *Detector) Missing() int {
	if d.wave == 0 {
		return 0
	}
	return d.missing
}

// Report feeds one report from worker j: the reply to wave id, or an
// unsolicited report (id 0). Replies to a wave that is not open, repeated
// replies and reports from outside the fleet are ignored. It reports
// whether this reply was the open wave's last, closing it.
func (d *Detector) Report(j, id int, r Report, now time.Time) (closed bool) {
	if j < 0 || j >= len(d.latest) || d.stop != None {
		return false
	}
	if id == 0 {
		if d.have[j] && older(r, d.latest[j]) {
			return false // overtaken on the wire by a newer report
		}
		d.latest[j], d.have[j] = r, true
		if d.wave == 0 {
			d.confirmDue = d.quietPicture()
		} else {
			d.idleSeen = true
		}
		return false
	}
	if id != d.wave || d.replied[j] {
		return false
	}
	d.reply[j], d.replied[j] = r, true
	d.latest[j], d.have[j] = r, true
	if d.missing--; d.missing > 0 {
		return false
	}
	d.closeWave(now)
	return true
}

// older reports whether a was generated before b by the same worker.
func older(a, b Report) bool {
	return a.Sent < b.Sent || a.Recv < b.Recv || a.Passes < b.Passes
}

// picture adds up the newest report of every worker; ok is false while
// some worker has not reported since the last reset.
func (d *Detector) picture() (s sums, ok bool) {
	return d.sum(d.latest, d.have)
}

func (d *Detector) quietPicture() bool {
	p, ok := d.picture()
	return ok && p.quiet()
}

func (d *Detector) sum(reports []Report, have []bool) (s sums, ok bool) {
	for j := range reports {
		if !have[j] {
			return sums{}, false
		}
		r := &reports[j]
		s.sent += r.Sent
		s.recv += r.Recv
		s.passes += r.Passes
		s.acc += r.AccSum
		s.dirty = s.dirty || r.Dirty
	}
	return s, true
}

// closeWave judges a wave whose last reply just arrived.
func (d *Detector) closeWave(now time.Time) {
	s, _ := d.sum(d.reply, d.replied)
	if d.armed && s.quiet() &&
		s.sent == d.base.sent && s.recv == d.base.recv && s.passes == d.base.passes {
		d.stop = Converged
	}
	if d.byTimer {
		d.sample(s)
		// The next window opens when this one's sample is complete, so two
		// samples are never closer than Interval.
		d.nextTick = now.Add(d.cfg.Interval)
	}
	d.wave = 0
	// A first look that came back quiet — a wave begun on a picture that
	// was not, or one an idle report overtook — is itself a first wave:
	// ask for its confirmation now. A confirmation that failed is not:
	// the fleet is moving, and the next idle report or tick looks again,
	// so a busy fleet that keeps looking quiet costs two waves a tick.
	d.confirmDue = d.stop == None && (!d.armed || d.idleSeen) && d.quietPicture()
}

// sample is the ε grid: it takes one timer wave's result.
func (d *Detector) sample(s sums) {
	if d.haveGrid {
		advanced := false
		for j := range d.reply {
			if d.reply[j].Passes > d.grid[j] {
				advanced = true
			} else if d.reply[j].Dirty {
				// Pending work and no pass since the last sample: this
				// worker's accSum is stale for the window. Keep the old
				// baseline, so the window stretches until it has run.
				return
			}
		}
		eps := d.cfg.Epsilon
		held := d.cfg.Holds && s.dirty
		if d.cand && s.recv >= d.candSent && !held {
			if math.Abs(s.acc-d.candSum) < eps {
				d.stop = Converged
			} else {
				// What was in flight at candidate time moved the aggregate
				// by more than ε: the candidate was premature.
				d.cand = false
			}
		}
		if advanced {
			// An effective iteration: a window in which the fleet computed.
			// A window in which nobody ran proves nothing about ε either.
			d.iters++
			if eps > 0 && !d.cand && !held && s.acc != 0 && math.Abs(s.acc-d.prevSum) < eps {
				d.cand, d.candSum, d.candSent = true, s.acc, s.sent
			}
		}
		if d.stop == None && d.iters >= d.cfg.MaxIters {
			d.stop = IterationCap
		}
	}
	d.haveGrid, d.prevSum = true, s.acc
	for j := range d.grid {
		d.grid[j] = d.reply[j].Passes
	}
}

// Barrier is the stop decision of a barriered run: every worker reports
// once per superstep and the master asks Round. A fixpoint is a round
// that left no row dirty. The ε criterion stops at a round whose change
// Σ|Δacc| is below ε, once some round has reached ε (armed) or the first
// round is past — a first round that folds only the seed says nothing —
// and, under Config.Holds, only if that round also left the fleet clean:
// with its near keys stale a bucket round changes nothing while the held
// keys are still dirty, and ε-SSSP stopped, Converged, with reachable
// keys missing. A true fixpoint ends an ε program too.
type Barrier struct {
	cfg   Config
	armed bool
}

// NewBarrier returns the barrier detector of one fixpoint.
func NewBarrier(cfg Config) *Barrier { return &Barrier{cfg: cfg} }

// Reset forgets the armed flag, as a restarted master would: that can
// delay a stop but never cause one.
func (b *Barrier) Reset() { b.armed = false }

// Round judges superstep round (from 1): sumDelta is the fleet's Σ|Δacc|
// over it and anyDirty whether any worker still has dirty rows. None
// means run another superstep.
func (b *Barrier) Round(round int, sumDelta float64, anyDirty bool) Cause {
	eps := b.cfg.Epsilon
	switch {
	case !anyDirty && (eps == 0 || sumDelta == 0):
		return Converged
	case eps > 0 && sumDelta >= eps:
		b.armed = true
	case eps > 0 && (b.armed || round > 1) && !(b.cfg.Holds && anyDirty):
		return Converged
	}
	if round >= b.cfg.MaxIters {
		return IterationCap
	}
	return None
}
