package runtime

import (
	"math"
	"sync"
	"testing"
	"time"

	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/progs"
	"powerlog/internal/term"
	"powerlog/internal/transport"
)

// verdict is one judgement of a superstep, as onVerdict reports it.
type verdict struct {
	delta uint64 // the fleet's Σ|Δacc|, as bits
	dirty bool
	cause term.Cause
}

// recordVerdicts captures every superstep verdict until the test ends,
// keyed by who judged and the superstep within the fixpoint.
func recordVerdicts(t *testing.T) func() map[[2]int]verdict {
	var mu sync.Mutex
	got := map[[2]int]verdict{}
	onVerdict = func(who, round int, fleet transport.Stats, c term.Cause) {
		mu.Lock()
		defer mu.Unlock()
		got[[2]int{who, round}] = verdict{math.Float64bits(fleet.AccDelta), fleet.Dirty, c}
	}
	t.Cleanup(func() { onVerdict = func(int, int, transport.Stats, term.Cause) {} })
	return func() map[[2]int]verdict {
		mu.Lock()
		defer mu.Unlock()
		return got
	}
}

// A worker at gate s judges with each peer's report for s. When the
// peer's mark for s is lost and its mark for s+1 arrives first — the peer
// passed gate s on this worker's mark — the marker clock is past s but
// the report for s is not in: the worker waits for the re-sent mark. And
// a worker at gate s+1 re-sends its mark for s, with its report, along
// with the one for s+1, so a peer still at gate s gets that report.
func TestStepGateReadsReportForS(t *testing.T) {
	peerMark := func(r *fenceRig, s int, st transport.Stats) {
		t.Helper()
		m := transport.Message{Kind: transport.FenceMark, Fence: transport.FenceStep, Round: s, Stats: st}
		if err := r.ws[1].conn.Send(0, m); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("gate", func(t *testing.T) {
		verdicts := recordVerdicts(t)
		r := newRig(t, 2, map[int]bool{1: true}, nil, func(w *worker) { endSuperstep(w) })
		peerMark(r, 2, transport.Stats{})
		time.Sleep(30 * time.Millisecond)
		if v, ok := verdicts()[[2]int{0, 1}]; ok {
			t.Fatalf("worker 0 judged superstep 1 %+v holding the peer's report for 2 only", v)
		}
		peerMark(r, 1, transport.Stats{AccDelta: 0.5, Dirty: true})
		r.leave(1)
		want := verdict{math.Float64bits(0.5), true, term.None}
		if got := verdicts()[[2]int{0, 1}]; got != want {
			t.Fatalf("superstep 1 judged %+v, want the peer's report for 1: %+v", got, want)
		}
	})
	t.Run("resend", func(t *testing.T) {
		r := newRig(t, 2, map[int]bool{1: true}, nil, func(w *worker) {
			w.seed(w.plan.InitMRA)
			_ = endSuperstep(w) && endSuperstep(w)
		})
		peerMark(r, 1, transport.Stats{Dirty: true})
		// Worker 0 passes gate 1 and blocks at gate 2, where every
		// markerResend it re-sends both marks.
		at2, resent := false, map[int]transport.Stats{}
		for deadline := time.After(5 * time.Second); len(resent) < 2; {
			select {
			case m := <-r.ws[1].conn.Inbox():
				if m.Kind != transport.FenceMark || m.Fence != transport.FenceStep {
					continue
				}
				if at2 {
					resent[m.Round] = m.Stats
				}
				at2 = at2 || m.Round == 2
			case <-deadline:
				t.Fatalf("worker 0 at gate 2 re-sent marks for supersteps %v only, want 1 and 2", resent)
			}
		}
		if !resent[1].Dirty || !resent[2].Dirty {
			t.Errorf("re-sent marks carry %+v, want worker 0's dirty reports", resent)
		}
		peerMark(r, 2, transport.Stats{Dirty: true})
		r.leave(1)
	})
}

// The master keeps a worker's ack for superstep s+1 that arrives while
// it collects s: at staleness 0 a worker holding its peers' reports for s
// runs s+1 before a slow peer's ack for s is in.
func TestMasterKeepsLaterStepAcks(t *testing.T) {
	g := gen.Uniform(20, 60, 10, 3)
	cfg := Config{Workers: 2, Mode: MRASync}.withDefaults()
	net := transport.NewChannelNetwork(2, 64)
	defer net.Close()
	m := newMaster(cfg, compilePlan(t, progs.SSSP, edgeDB("edge")(g)), net.Conn(transport.MasterID(2)))
	ack := func(from, s int, d float64) {
		t.Helper()
		msg := transport.Message{Kind: transport.FenceAck, Fence: transport.FenceStep, Round: s, Stats: transport.Stats{AccDelta: d}}
		if err := net.Conn(from).Send(transport.MasterID(2), msg); err != nil {
			t.Fatal(err)
		}
	}
	// Worker 0 runs two supersteps ahead of worker 1's acks, as a TCP
	// reader the scheduler leaves idle lets it.
	ack(0, 1, 1)
	ack(0, 2, 2)
	ack(0, 3, 16)
	ack(1, 1, 4)
	for s, want := range []float64{1: 5, 2: 10, 3: 48} {
		if s == 0 {
			continue
		}
		if s > 1 {
			ack(1, s, 8*float64(s-1)*float64(s-1))
		}
		got, open := m.collectAcks(transport.FenceStep, s, 2, time.Second)
		if sum := fleetReport(m.acks[transport.FenceStep]).AccDelta; !open || got != 2 || sum != want {
			t.Fatalf("superstep %d: %d/2 acks summing to %v, want %v", s, got, sum, want)
		}
	}
}

// probeBarrier hands its worker a StatsRequest at each superstep's end,
// before the report is taken — the liveness rule's probe answered
// mid-superstep — and records the superstep's Σ|Δacc| it found, by slot
// and superstep within the fixpoint.
type probeBarrier struct {
	BarrierPolicy
	mu     *sync.Mutex
	deltas map[[2]int]float64
}

func (p probeBarrier) endPass(w *worker, progressed bool) bool {
	p.mu.Lock()
	p.deltas[[2]int{w.id, w.rounds - w.barFrom}] = w.accDelta
	p.mu.Unlock()
	w.handle(transport.Message{Kind: transport.StatsRequest, Round: w.rounds})
	return p.BarrierPolicy.endPass(w, progressed)
}

// Every worker's verdict on a superstep equals the master's, bit for
// bit: ε-PageRank on three workers under both BSP modes, where the
// verdict turns on a float sum that only a shared summation order keeps
// equal. Each worker judges every superstep but the last, which the
// master's Stop may end first. In the probed case every worker answers a
// StatsRequest at each superstep's end, inside a session's Apply; the
// master's verdicts must still judge the Σ|Δacc| of the superstep's
// passes, summed in slot order.
func TestStepVerdictsAgree(t *testing.T) {
	g := gen.RMAT(8, 1500, 0, 7)
	for _, tc := range []struct {
		mode   Mode
		probed bool
	}{{MRASync, false}, {NaiveSync, false}, {MRASync, true}} {
		name := tc.mode.String()
		if tc.probed {
			name += "/probed"
		}
		t.Run(name, func(t *testing.T) {
			plan := compilePlan(t, progs.PageRank, edgeDB("edge")(g))
			cfg := Config{Workers: 3, Mode: tc.mode, MaxWall: time.Minute}
			var verdicts func() map[[2]int]verdict
			var res *Result
			var err error
			probe := probeBarrier{mu: &sync.Mutex{}, deltas: map[[2]int]float64{}}
			if !tc.probed {
				verdicts = recordVerdicts(t)
				res, err = Run(plan, cfg)
			} else {
				s, oerr := Open(plan, cfg)
				if oerr != nil {
					t.Fatal(oerr)
				}
				defer s.Close()
				for _, w := range s.workers {
					p := probe
					p.BarrierPolicy = w.pol.barrier
					w.pol.barrier = p
				}
				verdicts = recordVerdicts(t)
				res, err = s.Apply(Mutation{Inserts: []graph.Edge{{Src: 1, Dst: 2, W: 1}, {Src: 3, Dst: 5, W: 1}, {Src: 7, Dst: 11, W: 1}}})
			}
			if err != nil || !res.Converged {
				t.Fatalf("run: %v (converged %v)", err, res != nil && res.Converged)
			}
			got := verdicts()
			master := func(round int) verdict { return got[[2]int{transport.MasterID(3), round}] }
			for round := 1; round <= res.Rounds; round++ {
				want := term.None
				if round == res.Rounds {
					want = term.Converged
				}
				if c := master(round).cause; c != want {
					t.Errorf("superstep %d: master judged %v, want %v", round, c, want)
				}
				for w := 0; w < 3; w++ {
					if _, ok := got[[2]int{w, round}]; !ok && round < res.Rounds {
						t.Errorf("superstep %d: worker %d never judged it", round, w)
					}
				}
				if tc.probed {
					sum := 0.0
					for w := 0; w < 3; w++ {
						sum += probe.deltas[[2]int{w, round}]
					}
					if math.Float64bits(sum) != master(round).delta {
						t.Errorf("superstep %d: master judged Σ|Δacc| %v, the passes made %v", round, math.Float64frombits(master(round).delta), sum)
					}
				}
			}
			for k, v := range got {
				if v != master(k[1]) {
					t.Errorf("superstep %d: slot %d judged %+v, master %+v", k[1], k[0], v, master(k[1]))
				}
			}
			t.Logf("%d supersteps, %d verdicts", res.Rounds, len(got))
		})
	}
}
