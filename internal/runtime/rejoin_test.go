package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"powerlog/internal/ckpt"
	"powerlog/internal/compiler"
	"powerlog/internal/edb"
	"powerlog/internal/fault"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/monotable"
	"powerlog/internal/progs"
	"powerlog/internal/ref"
	"powerlog/internal/transport"
)

// The rejoin suite exercises crash re-join (membership.go, DESIGN.md
// §11): a worker crashed mid-fixpoint is found by the master's liveness
// rule, replaced on a reset endpoint, and re-joined through a membership
// fence — in every mode — and the run still converges to the fault-free
// fixpoint.

// rejoinCfg keeps the collect deadline short so a silent worker is
// probed and declared lost in milliseconds, not the MaxWall fallback.
func rejoinCfg(mode Mode) Config {
	return Config{
		Workers:        4,
		Mode:           mode,
		Tau:            200 * time.Microsecond,
		CheckInterval:  300 * time.Microsecond,
		CollectTimeout: 250 * time.Millisecond,
		MaxWall:        60 * time.Second,
	}
}

// TestRejoinMatrix: every oracle algorithm × every mode with a worker
// crashed silently mid-fixpoint (crashw: no Stop handshake, no final
// flush — the shard and its buffered updates die). Selective programs
// recover by survivor replay into a reseeded replacement (Theorem 3);
// combining programs reset the fleet to the ΔX¹ seed inside the fence,
// naive ones to their base tuples; a barriered fleet resumes under a
// fresh barrier. Either way the final fixpoint must be oracle-equal. -short runs the 4-algorithm subset.
func TestRejoinMatrix(t *testing.T) {
	for _, algo := range chaosAlgos() {
		if testing.Short() && !algo.short {
			continue
		}
		for _, mode := range allModes {
			if algo.name == "cost" && mode == NaiveSync {
				continue // naive evaluation cannot derive Cost at all (TestCostAllModes)
			}
			t.Run(fmt.Sprintf("%s/%v", algo.name, mode), func(t *testing.T) {
				db := edb.NewDB()
				algo.setup(db)
				plan := compilePlan(t, algo.src, db)
				fs, err := fault.ParseSpec("seed=9,crashw=1:3")
				if err != nil {
					t.Fatal(err)
				}
				cfg := rejoinCfg(mode)
				cfg.Fault = fault.New(fs)
				res, err := Run(plan, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatalf("did not converge after crash re-join (rounds=%d, stop cause: %v)", res.Rounds, res.StopCause)
				}
				if res.Master.Counters["master.member.join"] == 0 {
					// The fixture beat pass 3 — the crash never fired. The
					// oracle check below still holds, but note it.
					t.Logf("converged before the injected crash pass")
				}
				algo.check(t, mode, res.Values)
			})
		}
	}
}

// TestRejoinRecoveryCounters pins the observable recovery trail: one
// slot taken out, one admitted replacement, one membership fence whose
// duration — from the master's decision to the release — stays below
// CollectTimeout, and a converged, oracle-equal result. On the chain the
// survivors' flushes fill the dead worker's inbox before the probe gives
// up on it; a fence that sent anything to that inbox would wait out a
// whole CollectTimeout there.
func TestRejoinRecoveryCounters(t *testing.T) {
	for _, tc := range []struct {
		mode Mode
		g    *graph.Graph
	}{
		{MRASyncAsync, gen.Uniform(200, 1200, 50, 11)},
		{MRAAsync, gen.LocalChain(16000, 4, 40, 100, 2)},
	} {
		want := ref.Dijkstra(tc.g, 0)
		db := edb.NewDB()
		db.SetGraph("edge", tc.g)
		plan := compilePlan(t, progs.SSSP, db)
		fs, err := fault.ParseSpec("seed=10,crashw=2:2")
		if err != nil {
			t.Fatal(err)
		}
		cfg := rejoinCfg(tc.mode)
		cfg.Fault = fault.New(fs)
		res, err := Run(plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%v: did not converge after crash re-join (stop cause: %v)", tc.mode, res.StopCause)
		}
		c := res.Master.Counters
		if c["master.member.orphan"] < 1 {
			t.Errorf("%v: master.member.orphan = %d, want >= 1", tc.mode, c["master.member.orphan"])
		}
		if c["master.member.join"] < 1 {
			t.Errorf("%v: master.member.join = %d, want >= 1", tc.mode, c["master.member.join"])
		}
		fence := res.Master.Histograms["master.fence.member_us"]
		if limit := uint64(cfg.CollectTimeout.Microseconds()); fence.Count == 0 || fence.Sum >= limit {
			t.Errorf("%v: %d membership fences took %d µs, want one below CollectTimeout (%d µs)",
				tc.mode, fence.Count, fence.Sum, limit)
		}
		expectClose(t, tc.mode, res.Values, want, math.Inf(1), 1e-9)
	}
}

// crashHook decorates a parked session's worker so that it exits
// silently — no Stop handshake, no final flush — at the first moment its
// test says so: at the start of a pass, after a pass's body (before its
// end), or after a pass's end. fired records that it did.
type crashHook struct {
	BarrierPolicy
	atBegin, atEnd func(w *worker, pass int) bool
	pass           int
	fired          *atomic.Bool
}

func (h *crashHook) die(w *worker) bool {
	if h.fired.CompareAndSwap(false, true) {
		w.stop()
		return true
	}
	return false
}

func (h *crashHook) beginPass(w *worker) bool {
	h.pass++
	if h.atBegin != nil && h.atBegin(w, h.pass) && h.die(w) {
		return false
	}
	return h.BarrierPolicy.beginPass(w)
}

func (h *crashHook) endPass(w *worker, progressed bool) bool {
	ok := h.BarrierPolicy.endPass(w, progressed)
	if h.atEnd != nil && h.atEnd(w, h.pass) && h.die(w) {
		return false
	}
	return ok
}

// crashWindow is one moment of a fixpoint at which a worker may die.
// arm makes worker 1 of a parked session die there in the next Apply; the
// parked worker runs nothing, and the release the Apply sends orders
// arm's writes before the worker's next read of them.
type crashWindow struct {
	name string
	in   func(Mode) bool // whether mode has the window
	arm  func(t *testing.T, s *Session, fired *atomic.Bool)
}

// hookAt decorates worker 1's barrier with a crashHook.
func hookAt(atBegin, atEnd func(w *worker, pass int) bool) func(*testing.T, *Session, *atomic.Bool) {
	return func(_ *testing.T, s *Session, fired *atomic.Bool) {
		pol := &s.workers[1].pol
		pol.barrier = &crashHook{BarrierPolicy: pol.barrier, atBegin: atBegin, atEnd: atEnd, fired: fired}
	}
}

var crashWindows = []crashWindow{
	{"before-first-report", Mode.MRA, hookAt(func(_ *worker, pass int) bool { return pass == 1 }, nil)},
	// The pass's body has run — an async pass has flushed what its
	// buffers' limits sent — and its end, which reports, never does.
	{"mid-pass", Mode.MRA, func(_ *testing.T, s *Session, fired *atomic.Bool) {
		pol := &s.workers[1].pol
		pass, n := pol.pass, 0
		pol.pass = func(w *worker) int {
			k := pass(w)
			if n++; n == 2 && fired.CompareAndSwap(false, true) {
				w.stop()
			}
			return k
		}
	}},
	// The park-window gap: every report of the epoch is in, and the park
	// request has arrived.
	{"last-report-to-park", Mode.MRA, hookAt(nil, func(w *worker, _ int) bool {
		return w.fencePending(transport.FencePark)
	})},
	// Inside the park fence: the cut is complete, the ack never leaves.
	{"cut-to-commit", Mode.MRA, func(t *testing.T, s *Session, fired *atomic.Bool) {
		victim, spec := s.workers[1], &fenceSpecs[transport.FencePark]
		prev := spec.atCut
		spec.atCut = func(w *worker, tr transition) transport.Stats {
			if w == victim && fired.CompareAndSwap(false, true) {
				w.stop()
			}
			return transport.Stats{}
		}
		t.Cleanup(func() { spec.atCut = prev })
	}},
	// After reporting its second superstep, while its peers run the third.
	{"mid-superstep", func(m Mode) bool { return m == MRASync || m == MRASSP },
		hookAt(func(_ *worker, pass int) bool { return pass == 3 }, nil)},
}

// TestRejoinWindows crashes one worker in each window of a fixpoint ×
// each mode that has the window, and requires the fixpoint to converge
// oracle-equal with exactly one re-join — or to log that the crash did
// not fire. The MRA modes crash inside a session's Apply, SSSP (replay)
// and PageRank (reseed) in turn; naive evaluation cannot Apply, so its
// rows crash the initial fixpoint through the injector's crashw.
func TestRejoinWindows(t *testing.T) {
	row := 0
	for _, win := range crashWindows {
		for _, mode := range allModes {
			if !win.in(mode) {
				continue
			}
			p := sessionProgs[2*(row%2)] // SSSP, PageRank
			row++
			t.Run(fmt.Sprintf("%s/%v/%s", win.name, mode, p.name), func(t *testing.T) {
				g := p.g()
				n := g.NumVertices()
				s, err := Open(compilePlan(t, p.src, p.db(g)), rejoinCfg(mode))
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				var fired atomic.Bool
				win.arm(t, s, &fired)
				mut, edges := randMutation(rand.New(rand.NewSource(int64(row))), append([]graph.Edge(nil), g.Edges()...), n, 6, 6, false, p.insW)
				joins := s.Result().Master.Counters["master.member.join"]
				applyChecked(t, s, p, n, edges, g.Weighted(), mut, nil, "apply")
				switch got := s.Result().Master.Counters["master.member.join"] - joins; {
				case !fired.Load():
					t.Logf("the armed crash did not fire (%d re-joins)", got)
				case got != 1:
					t.Fatalf("%d re-joins, want 1", got)
				}
			})
		}
	}
	for _, crash := range []struct{ window, spec string }{
		{"before-first-report", "seed=9,crashw=1:1"},
		{"mid-superstep", "seed=9,crashw=1:3"},
	} {
		t.Run(crash.window+"/"+NaiveSync.String()+"/PageRank", func(t *testing.T) {
			algo := chaosAlgos()[2] // pagerank
			db := edb.NewDB()
			algo.setup(db)
			cfg := rejoinCfg(NaiveSync)
			fs, err := fault.ParseSpec(crash.spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Fault = fault.New(fs)
			res, err := Run(compilePlan(t, algo.src, db), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("did not converge (stop cause: %v)", res.StopCause)
			}
			if joins := res.Master.Counters["master.member.join"]; joins != 1 {
				t.Fatalf("%d re-joins, want 1", joins)
			}
			algo.check(t, NaiveSync, res.Values)
		})
	}
}

// applyChecked runs one Apply and checks it against the scratch oracle
// on the mutated edge list. crashed, when non-nil, is set by a worker
// armed to die in this Apply when it does: it must have died, and the
// epoch must have re-joined exactly one.
func applyChecked(t *testing.T, s *Session, p sessionProg, n int, edges []graph.Edge, weighted bool, mut Mutation, crashed *atomic.Bool, label string) {
	t.Helper()
	joins := s.Result().Master.Counters["master.member.join"]
	res, err := s.Apply(mut)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !res.Converged {
		t.Fatalf("%s did not converge (stop cause: %v)", label, res.StopCause)
	}
	got := res.Master.Counters["master.member.join"] - joins
	switch {
	case crashed == nil:
	case !crashed.Load():
		t.Fatalf("%s: the armed crash did not fire (%d re-joins)", label, got)
	case got != 1:
		t.Fatalf("%s: %d re-joins, want 1", label, got)
	}
	want := scratchFixpoint(t, p, n, edges, weighted, rejoinCfg(MRASyncAsync))
	expectSameFixpoint(t, label, res.Values, want, p.ident, p.tol)
}

// TestRejoinSessionCombining drives combining-aggregate sessions
// (PageRank, Katz) through two Applys and crashes worker 1 in Apply 1 —
// at its first pass — or Apply 2 — between its last report and the park
// — with and without park cuts. A combining re-join resets every shard
// to the current ΔX¹ seed, which Plan.ApplyMutation rebuilds on every
// batch, so every epoch must equal the scratch oracle; with park cuts on,
// every later cut holds the replacement's rows, so the newest cut is
// Apply 2's.
// The restored row opens a session from a park checkpoint on a plan
// rebuilt at its MutEpoch and crashes the replayed Apply.
func TestRejoinSessionCombining(t *testing.T) {
	for _, p := range []sessionProg{sessionProgs[2], sessionProgs[3]} { // PageRank, Katz
		for _, crashAt := range []int{1, 2} {
			for _, ckpts := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/apply%d/ckpt=%v", p.name, crashAt, ckpts), func(t *testing.T) {
					g := p.g()
					n := g.NumVertices()
					edges := append([]graph.Edge(nil), g.Edges()...)
					cfg := rejoinCfg(MRASyncAsync)
					if ckpts {
						cfg.CheckpointDir = t.TempDir()
					}
					s, err := Open(compilePlan(t, p.src, p.db(g)), cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					r := rand.New(rand.NewSource(331))
					for i := 1; i <= 2; i++ {
						var mut Mutation
						mut, edges = randMutation(r, edges, n, 6, 6, false, p.insW)
						var crashed *atomic.Bool
						if i == crashAt {
							crashed = new(atomic.Bool)
							crashWindows[2*crashAt-2].arm(t, s, crashed) // before-first-report, last-report-to-park
						}
						applyChecked(t, s, p, n, edges, g.Weighted(), mut, crashed, fmt.Sprintf("apply-%d", i))
					}
					if ckpts {
						if _, meta, err := ckpt.Load(cfg.CheckpointDir); err != nil || meta.MutEpoch != 2 {
							t.Fatalf("newest cut %+v (%v), want cut 2", meta, err)
						}
					}
				})
			}
		}
	}

	t.Run("PageRank/restored", func(t *testing.T) {
		p := sessionProgs[2]
		g := p.g()
		n := g.NumVertices()
		edges0 := append([]graph.Edge(nil), g.Edges()...)
		r := rand.New(rand.NewSource(331))
		mut1, edges1 := randMutation(r, edges0, n, 6, 6, false, p.insW)
		mut2, edges2 := randMutation(r, edges1, n, 6, 6, false, p.insW)
		cfg := rejoinCfg(MRASyncAsync)
		cfg.CheckpointDir = t.TempDir()
		s, err := Open(compilePlan(t, p.src, p.db(g)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Apply(mut1); err != nil {
			t.Fatal(err)
		}
		s.Close()

		g1, err := graph.FromEdges(n, append([]graph.Edge(nil), edges1...), g.Weighted())
		if err != nil {
			t.Fatal(err)
		}
		sR, err := Open(compilePlan(t, p.src, p.db(g1)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sR.Close()
		if sR.MutEpoch() != 1 {
			t.Fatalf("restored MutEpoch = %d, want 1", sR.MutEpoch())
		}
		crashed := new(atomic.Bool)
		crashWindows[0].arm(t, sR, crashed)
		applyChecked(t, sR, p, n, edges2, g.Weighted(), mut2, crashed, "replayed apply-2")
	})
}

// TestShardRouteSplit: the divide-free static route (monotable.Route) is
// the divide — for every key space and fleet size, a multiple of it or
// not, smaller than the fleet or near 2³¹, Split yields the owner
// t / ⌈n/W⌉ and a slot inside that owner's block whose Key is t again,
// every owner is one of the W, the blocks cover [0, n) once, and a pair
// key follows its first vertex.
func TestShardRouteSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 5, 7, 10, 100, 1000, 8000, 1<<13 + 1, 40000, 1 << 20, math.MaxInt32 - 1, math.MaxInt32} {
		for _, fleet := range []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 31, 64, 100, 1000, 1 << 16, 1<<16 + 1} {
			r := monotable.NewRoute(n, fleet)
			size := max(1, (n+fleet-1)/fleet)
			covered := 0
			for o := 0; o < fleet; o++ {
				covered += r.Size(o)
			}
			if covered != n {
				t.Fatalf("n %d over %d: the blocks hold %d keys", n, fleet, covered)
			}
			// Every key of a small space; else both sides of every block
			// edge and a sample.
			var ids []int
			for o := 1; o < fleet; o++ {
				ids = append(ids, o*size-1, o*size)
			}
			for i := 0; i < 200; i++ {
				ids = append(ids, rng.Intn(max(n, 1)))
			}
			if n <= 10000 {
				ids = ids[:0]
				for t := range n {
					ids = append(ids, t)
				}
			}
			ids = append(ids, n-1)
			for _, id := range ids {
				if id < 0 || id >= n {
					continue
				}
				slot, owner := r.Split(int32(id))
				if owner != id/size || owner >= fleet || slot < 0 || slot >= r.Size(owner) || r.Key(owner, slot) != int64(id) {
					t.Fatalf("n %d over %d: split of %d = (%d, owner %d), want owner %d and a slot of its %d whose key is %d",
						n, fleet, id, slot, owner, id/size, r.Size(owner), id)
				}
				if r.Owner(int64(id)) != owner || r.Pairs().Owner(compiler.EncodePair(int64(id), int64(rng.Int31()))) != owner {
					t.Fatalf("n %d over %d: key %d or a pair from it not owned by %d", n, fleet, id, owner)
				}
			}
			if r.Owner(int64(n)) != -1 || r.Owner(-1) != -1 {
				t.Fatalf("n %d over %d: a key outside [0, n) has an owner", n, fleet)
			}
		}
	}
}
