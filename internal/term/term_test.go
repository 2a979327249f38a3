package term

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

const tick = time.Millisecond

var t0 = time.Unix(1000, 0)

// harness drives a Detector the way a master does, with a fake clock.
type harness struct {
	t    *testing.T
	d    *Detector
	now  time.Time
	wave int
}

func newHarness(t *testing.T, cfg Config, n int) *harness {
	if cfg.Interval == 0 {
		cfg.Interval = tick
	}
	if cfg.MaxIters == 0 {
		cfg.MaxIters = 1 << 30
	}
	return &harness{t: t, d: New(cfg, n, t0), now: t0}
}

// timerWave advances the clock to the next tick and runs one wave in
// which worker j answers rs[j].
func (h *harness) timerWave(rs ...Report) {
	h.t.Helper()
	h.now = h.d.nextTick
	h.runWave(true, rs)
}

// idleWave runs a wave the machine must have asked for without a tick.
func (h *harness) idleWave(rs ...Report) {
	h.t.Helper()
	h.runWave(false, rs)
}

func (h *harness) runWave(wantTimer bool, rs []Report) {
	h.t.Helper()
	if dec := h.d.Next(h.now); dec.Action != StartWave {
		h.t.Fatalf("Next = %+v, want StartWave", dec)
	}
	h.wave++
	if got := h.d.Begin(h.wave, h.now); got != wantTimer {
		h.t.Fatalf("wave %d started by timer = %v, want %v", h.wave, got, wantTimer)
	}
	for j, r := range rs {
		h.d.Report(j, h.wave, r, h.now)
	}
}

func (h *harness) idleReport(j int, r Report) { h.d.Report(j, 0, r, h.now) }

func (h *harness) expect(a Action, c Cause) {
	h.t.Helper()
	if dec := h.d.Next(h.now); dec.Action != a || dec.Cause != c {
		h.t.Fatalf("Next = %+v, want action %d cause %d", dec, a, c)
	}
}

func clean(sent, recv, passes int64) Report {
	return Report{Sent: sent, Recv: recv, Passes: passes}
}

func busy(sent, recv, passes int64) Report {
	return Report{Sent: sent, Recv: recv, Passes: passes, Dirty: true}
}

// TestTermQuiescence pins the four-counter condition on two workers: a
// stop needs a quiet picture reproduced exactly by a later wave. Each row
// is a sequence of timer waves; parentStops is what the predicate this
// machine replaced — two consecutive waves each with Σsent = Σrecv and no
// dirty worker, compared as booleans — answers after the last one.
func TestTermQuiescence(t *testing.T) {
	type wave [2]Report
	for _, tc := range []struct {
		name        string
		waves       []wave
		stop        bool
		parentStops bool
	}{
		{"same picture twice", []wave{
			{clean(5, 5, 3), clean(5, 5, 2)}, {clean(5, 5, 3), clean(5, 5, 2)}}, true, true},
		{"balanced at 10 then at 12: the fleet moved", []wave{
			{clean(5, 5, 3), clean(5, 5, 2)}, {clean(6, 6, 3), clean(6, 6, 2)}}, false, true},
		{"same sums, a pass ran in between", []wave{
			{clean(5, 5, 3), clean(5, 5, 2)}, {clean(5, 5, 4), clean(5, 5, 2)}}, false, true},
		{"moved, then held still", []wave{
			{clean(5, 5, 3), clean(5, 5, 2)}, {clean(6, 6, 3), clean(6, 6, 2)}, {clean(6, 6, 3), clean(6, 6, 2)}}, true, true},
		{"in flight", []wave{
			{clean(6, 5, 3), clean(5, 5, 2)}, {clean(6, 5, 3), clean(5, 5, 2)}}, false, false},
		{"dirty then clean", []wave{
			{busy(5, 5, 3), clean(5, 5, 2)}, {clean(5, 5, 3), clean(5, 5, 2)}}, false, false},
		{"clean then dirty", []wave{
			{clean(5, 5, 3), clean(5, 5, 2)}, {clean(5, 5, 3), busy(5, 5, 2)}}, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, Config{}, 2)
			parent, prevStable := false, false
			for i, w := range tc.waves {
				// A quiet first look asks for its confirmation at once; the
				// confirming wave here is the row's next one, a tick later,
				// which is the fallback path (idle reports: see below).
				h.timerWave(w[0], w[1])
				stable := w[0].Sent+w[1].Sent == w[0].Recv+w[1].Recv && !w[0].Dirty && !w[1].Dirty
				parent = stable && prevStable
				prevStable = stable
				if i < len(tc.waves)-1 && h.d.Next(h.now).Action == Stop {
					t.Fatalf("stopped after wave %d of %d", i+1, len(tc.waves))
				}
			}
			if got := h.d.Next(h.now).Action == Stop; got != tc.stop {
				t.Errorf("machine stops = %v, want %v", got, tc.stop)
			}
			if parent != tc.parentStops {
				t.Errorf("parent predicate stops = %v, row says %v", parent, tc.parentStops)
			}
		})
	}
}

// TestTermIdleReportsNeedNoClock: idle reports that complete a quiet
// picture start the confirming wave at once, and the stop follows without
// the clock ever reaching a tick. A confirmation that fails is not
// retried until something new arrives.
func TestTermIdleReportsNeedNoClock(t *testing.T) {
	h := newHarness(t, Config{}, 2)
	h.idleReport(0, clean(4, 0, 1))
	h.expect(Wait, None) // worker 1 has not been heard from
	h.idleReport(1, clean(0, 4, 0))
	h.idleWave(clean(4, 0, 1), clean(0, 4, 0))
	h.expect(Stop, Converged)

	h = newHarness(t, Config{}, 2)
	h.idleReport(0, clean(4, 4, 1))
	h.idleReport(1, clean(4, 4, 1))
	h.idleWave(clean(5, 5, 1), clean(5, 5, 1)) // moved: 8 = 8 became 10 = 10
	h.expect(Wait, None)
	h.idleReport(0, clean(5, 5, 1)) // news: the picture is looked at again
	h.idleWave(clean(5, 5, 1), clean(5, 5, 1))
	h.expect(Stop, Converged)
	if h.now != t0 {
		t.Fatal("the clock moved")
	}
}

// TestTermStaleAndForeignReports: replies to a closed wave, repeated
// replies, reports from a slot outside the fleet and an idle report
// overtaken by a newer one change nothing.
func TestTermStaleAndForeignReports(t *testing.T) {
	d := New(Config{Interval: tick, MaxIters: 1 << 30}, 2, t0)
	d.Report(2, 0, clean(0, 0, 0), t0)  // no slot 2
	d.Report(-1, 0, clean(0, 0, 0), t0) // nor -1
	d.Report(0, 7, clean(1, 1, 0), t0)  // no wave 7 is open
	d.Report(0, 0, clean(3, 3, 2), t0)
	d.Report(0, 0, clean(2, 2, 1), t0) // older than the one above
	if d.latest[0] != clean(3, 3, 2) || d.have[1] {
		t.Fatalf("latest = %+v have = %v", d.latest, d.have)
	}
	d.Begin(1, t0.Add(tick))
	if d.Missing() != 2 || !d.Awaiting(1) || !d.Awaiting(0) {
		t.Fatalf("missing = %d", d.Missing())
	}
	d.Report(0, 1, clean(3, 3, 2), t0)
	d.Report(0, 1, busy(9, 9, 9), t0) // a probe's second reply
	if d.Missing() != 1 || d.latest[0].Dirty {
		t.Fatalf("missing = %d latest = %+v", d.Missing(), d.latest[0])
	}
}

// TestTermEpsilonStarvedWorker: one worker holds undrained mass (dirty,
// no pass completed) while its peer makes a hundred passes that barely
// move the aggregate. The fleet total the old gate looked at — 100 passes
// ≥ 2 workers — would judge the window and arm a candidate; the machine
// waits for the starved worker and judges the window that includes it.
func TestTermEpsilonStarvedWorker(t *testing.T) {
	h := newHarness(t, Config{Epsilon: 1e-3}, 2)
	acc := func(passes int64, sum float64) Report {
		return Report{Sent: 10, Recv: 10, Passes: passes, AccSum: sum, Dirty: true}
	}
	h.timerWave(acc(5, 10), acc(3, 5)) // baseline
	h.timerWave(acc(105, 10.0000001), acc(3, 5))
	h.expect(Wait, None)
	if h.d.cand || h.d.iters != 0 || h.d.prevSum != 15 {
		t.Fatalf("starved window was judged: cand=%v iters=%d prevSum=%v", h.d.cand, h.d.iters, h.d.prevSum)
	}
	// The starved worker runs: its mass lands, and the stretched window
	// shows the change the short one hid.
	h.timerWave(acc(110, 10.0000002), acc(4, 7))
	h.expect(Wait, None)
	if h.d.cand || h.d.iters != 1 {
		t.Fatalf("cand=%v iters=%d after the mass landed", h.d.cand, h.d.iters)
	}
	// A clean worker need not advance: it has nothing to fold.
	h.timerWave(acc(115, 10.0000003), Report{Sent: 10, Recv: 10, Passes: 4, AccSum: 7})
	if !h.d.cand {
		t.Fatal("a window with an idle clean worker was not judged")
	}
}

// TestTermEpsilonGrid: only timer waves are ε samples. A confirming wave
// squeezed between two ticks sees an aggregate within ε of the last
// sample, and must neither arm a candidate nor move the grid.
func TestTermEpsilonGrid(t *testing.T) {
	h := newHarness(t, Config{Epsilon: 1e-3}, 2)
	h.timerWave(Report{Sent: 4, Recv: 4, Passes: 1, AccSum: 10, Dirty: true},
		Report{Sent: 4, Recv: 4, Passes: 1, AccSum: 10, Dirty: true})
	next, prev := h.d.nextTick, h.d.prevSum
	h.now = h.now.Add(tick / 10)
	h.idleReport(0, Report{Sent: 4, Recv: 4, Passes: 2, AccSum: 10.00001})
	h.idleReport(1, Report{Sent: 4, Recv: 4, Passes: 2, AccSum: 10.00001})
	h.idleWave(Report{Sent: 5, Recv: 5, Passes: 3, AccSum: 10.00002},
		Report{Sent: 5, Recv: 5, Passes: 3, AccSum: 10.00002})
	h.expect(Wait, None)
	if h.d.cand || h.d.nextTick != next || h.d.prevSum != prev || h.d.iters != 0 {
		t.Fatalf("an early wake was sampled: cand=%v nextTick=%v prevSum=%v iters=%d",
			h.d.cand, h.d.nextTick, h.d.prevSum, h.d.iters)
	}
	// Samples are never closer than Interval: the next tick is one
	// Interval after the last sample completed, however late that was.
	h.now = h.d.nextTick.Add(3 * tick)
	h.runWave(true, []Report{{Sent: 6, Recv: 6, Passes: 4, AccSum: 10.00003, Dirty: true},
		{Sent: 6, Recv: 6, Passes: 4, AccSum: 10.00003, Dirty: true}})
	if want := h.now.Add(tick); h.d.nextTick != want {
		t.Fatalf("nextTick = %v, want %v", h.d.nextTick, want)
	}
}

// TestTermEpsilonCandidate: a window below ε arms a candidate; the stop
// waits for a later sample at which Σrecv has passed the candidate's
// Σsent, and is cancelled if the aggregate moved by ε meanwhile.
func TestTermEpsilonCandidate(t *testing.T) {
	s := func(sent, recv, passes int64, sum float64) []Report {
		return []Report{{Sent: sent, Recv: recv, Passes: passes, AccSum: sum, Dirty: true}, {Passes: passes, Dirty: true}}
	}
	h := newHarness(t, Config{Epsilon: 1e-3}, 2)
	h.timerWave(s(100, 90, 1, 50)...)
	h.timerWave(s(120, 100, 2, 50.0001)...) // below ε: candidate at Σsent = 120
	h.expect(Wait, None)
	if !h.d.cand {
		t.Fatal("no candidate")
	}
	h.timerWave(s(130, 110, 3, 50.0002)...) // 110 < 120: still in flight
	h.expect(Wait, None)
	h.timerWave(s(140, 125, 4, 50.0003)...) // drained, still within ε
	h.expect(Stop, Converged)

	h = newHarness(t, Config{Epsilon: 1e-3}, 2)
	h.timerWave(s(100, 90, 1, 50)...)
	h.timerWave(s(120, 100, 2, 50.0001)...)
	h.timerWave(s(140, 125, 3, 50.5)...) // what was in flight moved the aggregate
	h.expect(Wait, None)
	if h.d.cand {
		t.Fatal("candidate survived an ε-sized move")
	}
	// The same sample never both arms and confirms.
	h = newHarness(t, Config{Epsilon: 1e-3}, 2)
	h.timerWave(s(100, 100, 1, 50)...)
	h.timerWave(s(100, 100, 2, 50.0001)...)
	h.expect(Wait, None)
}

// TestTermIterationCapAndReset: effective iterations are windows in which
// the fleet computed; the cap stops the run, and a reset forgets it all.
func TestTermIterationCapAndReset(t *testing.T) {
	h := newHarness(t, Config{MaxIters: 3}, 1)
	for p := int64(0); p < 3; p++ {
		h.timerWave(busy(p, 0, p))
		h.expect(Wait, None)
	}
	h.timerWave(busy(3, 0, 2)) // no pass completed: not an iteration
	h.expect(Wait, None)
	h.d.Reset(h.now)
	if h.d.iters != 0 || h.d.haveGrid || h.d.have[0] {
		t.Fatal("reset kept state")
	}
	for p := int64(0); p < 4; p++ {
		h.expect(Wait, None)
		h.timerWave(busy(p, 0, p))
	}
	h.expect(Stop, IterationCap)
}

// simWorker is one worker of the property test's simulated fleet.
type simWorker struct {
	dirty              int   // deltas folded but not yet drained
	buf                []int // KVs buffered per destination
	sent, recv, passes int64
	fuel               int   // emissions left: bounds the run
	reqs               []int // waves polled but not yet answered
	out                []simMsg
	told               bool
	toldSent, toldRecv int64
}

type simMsg struct {
	wave int
	r    Report
}

func (w *simWorker) pending() bool {
	for _, b := range w.buf {
		if b > 0 {
			return true
		}
	}
	return w.dirty > 0
}

func (w *simWorker) report() Report {
	return Report{Sent: w.sent, Recv: w.recv, Passes: w.passes, Dirty: w.pending()}
}

type sim struct {
	ws     []*simWorker
	flight [][][]int // [src][dst] batches on the wire, FIFO
	det    *Detector
	now    time.Time
	wave   int
}

func (s *sim) quiescent() bool {
	for i, w := range s.ws {
		if w.pending() {
			return false
		}
		for _, q := range s.flight[i] {
			if len(q) > 0 {
				return false
			}
		}
	}
	return true
}

// step performs one enabled event chosen by rng and reports false if none
// is enabled. dropIdle is the probability an idle report is lost.
func (s *sim) step(rng *rand.Rand, dropIdle float64) bool {
	n := len(s.ws)
	type event func()
	var enabled, slow []event
	for i, w := range s.ws {
		i, w := i, w
		if w.dirty > 0 { // fold + drain: one productive pass
			enabled = append(enabled, func() {
				k := w.dirty
				w.dirty = 0
				w.passes++
				for ; k > 0; k-- {
					// A drained delta propagates to 0–2 keys, local or remote.
					for e := rng.Intn(3); e > 0 && w.fuel > 0; e-- {
						w.fuel--
						if dst := rng.Intn(n); dst == i {
							w.dirty++
						} else {
							w.buf[dst]++
						}
					}
				}
			})
		}
		for d := range w.buf {
			d := d
			if w.buf[d] > 0 { // flush
				enabled = append(enabled, func() {
					w.sent += int64(w.buf[d])
					s.flight[i][d] = append(s.flight[i][d], w.buf[d])
					w.buf[d] = 0
				})
			}
			if len(s.flight[i][d]) > 0 { // deliver
				enabled = append(enabled, func() {
					k := s.flight[i][d][0]
					s.flight[i][d] = s.flight[i][d][1:]
					s.ws[d].recv += int64(k)
					s.ws[d].dirty += k
				})
			}
		}
		if !w.pending() && !(w.told && w.toldSent == w.sent && w.toldRecv == w.recv) { // idle report
			enabled = append(enabled, func() {
				w.told, w.toldSent, w.toldRecv = true, w.sent, w.recv
				if rng.Float64() >= dropIdle {
					w.out = append(w.out, simMsg{0, w.report()})
				}
			})
		}
		if len(w.reqs) > 0 { // solicited reply
			slow = append(slow, func() {
				w.out = append(w.out, simMsg{w.reqs[0], w.report()})
				w.reqs = w.reqs[1:]
			})
		}
		if len(w.out) > 0 { // the master receives
			enabled = append(enabled, func() {
				s.det.Report(i, w.out[0].wave, w.out[0].r, s.now)
				w.out = w.out[1:]
			})
		}
	}
	// Replies are slow: a wave in this fleet spans a lot of computing, which
	// is what makes counters read at different instants add up wrongly.
	if len(slow) > 0 && (len(enabled) == 0 || rng.Intn(6) == 0) {
		enabled = slow
	}
	if len(enabled) == 0 {
		return false
	}
	enabled[rng.Intn(len(enabled))]()
	return true
}

// master acts on the machine's decision and reports whether it stopped.
func (s *sim) master() bool {
	switch dec := s.det.Next(s.now); dec.Action {
	case Stop:
		return true
	case StartWave:
		s.wave++
		s.det.Begin(s.wave, s.now)
		for _, w := range s.ws {
			w.reqs = append(w.reqs, s.wave)
		}
	case Wait:
	}
	return false
}

// TestTermProperty drives random interleavings of fold / flush / deliver /
// idle-report / solicited-reply / master-receive events over 2–4
// simulated workers against the machine, with a fake clock and no sleeps.
//
//	(i)   it never stops while a message is in flight or a worker has
//	      pending work — under any mix of lost idle reports and ticks;
//	(ii)  with no report lost it stops once the fleet is quiescent, within
//	      a bounded number of events and without the clock ever advancing;
//	(iii) with every idle report lost it still stops, within two ticks of
//	      the fleet going quiescent.
func TestTermProperty(t *testing.T) {
	for _, mode := range []struct {
		name     string
		dropIdle float64
		tickProb float64 // chance per event that the clock jumps to the next tick
	}{
		{"events only", 0, 0},
		{"all idle reports lost", 1, 0},
		{"lossy with ticks", 0.5, 0.02},
		{"ticks", 0, 0.05},
		{"dense ticks", 0.3, 0.4},
	} {
		t.Run(mode.name, func(t *testing.T) {
			for seed := int64(0); seed < 1500; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 2 + rng.Intn(3)
				s := &sim{now: t0, flight: make([][][]int, n)}
				s.det = New(Config{Interval: tick, MaxIters: 1 << 30}, n, t0)
				for i := 0; i < n; i++ {
					w := &simWorker{buf: make([]int, n), fuel: rng.Intn(40)}
					if rng.Intn(3) > 0 {
						w.dirty = 1 + rng.Intn(5) // the seed, or an Apply's reseed
					}
					s.ws = append(s.ws, w)
					s.flight[i] = make([][]int, n)
				}
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("seed %d (%d workers): %s", seed, n, fmt.Sprintf(format, args...))
				}
				clockless := mode.dropIdle == 0 && mode.tickProb == 0
				quietFor, ticksQuiet := 0, 0
				// advance moves the clock to the next tick, if there is one
				// ahead, and counts it when the fleet is already quiescent.
				advance := func() bool {
					if !s.det.nextTick.After(s.now) || s.det.Next(s.now).Action == Stop {
						return false
					}
					s.now = s.det.nextTick
					if s.quiescent() {
						if ticksQuiet++; ticksQuiet > 2 {
							fail("(iii) %d ticks after quiescence without a stop", ticksQuiet)
						}
					}
					return true
				}
				master := func() bool {
					stopped := s.master()
					if stopped && !s.quiescent() {
						fail("(i) stopped with work pending or in flight")
					}
					return stopped
				}
				for events := 0; ; events++ {
					if events > 100000 {
						fail("no stop after %d events", events)
					}
					moved := s.step(rng, mode.dropIdle)
					if rng.Float64() < mode.tickProb {
						advance()
					}
					polled := s.wave
					if master() {
						break
					}
					if s.quiescent() && clockless {
						if quietFor++; quietFor > 64*n {
							fail("(ii) %d events after quiescence without a stop", quietFor)
						}
					}
					if moved || s.wave != polled {
						continue
					}
					// Nothing is left to deliver: only the clock can help.
					if clockless {
						fail("(ii) quiescent, nothing left to deliver, and no stop")
					}
					if !advance() {
						fail("stuck: no event enabled and no tick ahead")
					}
					if master() {
						break
					}
				}
				if mode.tickProb == 0 && mode.dropIdle == 0 && s.now != t0 {
					fail("(ii) the clock advanced")
				}
			}
		})
	}
	t.Run("barrier", barrierProperty)
}

// barrierProperty drives Barrier.Round with the rounds of a simulated BSP
// fleet whose schedule may hold keys: each round folds some of the work
// left — possibly none of it, the bucket round whose near keys are stale
// — and reports the change and whether rows are still dirty. Without
// Holds the verdict is the one master.runBSP used to write inline; with
// Holds a Converged verdict means the fleet is clean, and a clean fleet
// is stopped within two rounds.
func barrierProperty(t *testing.T) {
	// inline is runBSP's verdict before it moved here.
	inline := func(eps float64, armed *bool, round int, sumDelta float64, anyDirty bool) bool {
		stop := false
		if eps > 0 {
			if sumDelta >= eps {
				*armed = true
			} else if *armed || round > 1 {
				stop = true
			}
			if !anyDirty && sumDelta == 0 {
				stop = true
			}
		} else if !anyDirty {
			stop = true
		}
		return stop
	}
	for seed := int64(0); seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{MaxIters: 1 + rng.Intn(60), Holds: rng.Intn(2) == 0}
		if rng.Intn(3) > 0 {
			cfg.Epsilon = 1e-3
		}
		b := NewBarrier(cfg)
		left, armed, cleanFor := rng.Intn(40), false, 0
		for round := 1; ; round++ {
			folded := rng.Intn(left + 1)
			if rng.Intn(4) == 0 {
				folded = 0
			}
			left -= folded
			sumDelta := float64(folded) * []float64{0, 1e-5, 1}[rng.Intn(3)]
			if rng.Intn(50) == 0 {
				b.Reset() // a restarted master
				armed = false
			}
			cause := b.Round(round, sumDelta, left > 0)
			want := inline(cfg.Epsilon, &armed, round, sumDelta, left > 0)
			switch {
			case !cfg.Holds && (cause == Converged) != want:
				t.Fatalf("seed %d round %d: Round = %v, the inline verdict stop=%v", seed, round, cause, want)
			case cfg.Holds && cause == Converged && left > 0:
				t.Fatalf("seed %d round %d: Converged with %d units of held work", seed, round, left)
			case cause == IterationCap && round != cfg.MaxIters, cause == None && round >= cfg.MaxIters:
				t.Fatalf("seed %d round %d: cause %v with MaxIters %d", seed, round, cause, cfg.MaxIters)
			}
			if cause != None {
				break
			}
			if left == 0 {
				if cleanFor++; cleanFor > 1 {
					t.Fatalf("seed %d round %d: clean for %d rounds and no stop", seed, round, cleanFor)
				}
			}
		}
	}
}
