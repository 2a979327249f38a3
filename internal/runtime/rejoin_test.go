package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"powerlog/internal/compiler"
	"powerlog/internal/edb"
	"powerlog/internal/fault"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/monotable"
	"powerlog/internal/progs"
	"powerlog/internal/ref"
)

// The rejoin suite exercises crash re-join (membership.go, DESIGN.md
// §11): a worker crashed mid-fixpoint is detected by the master's
// liveness probe, replaced on a reset endpoint, and re-joined through a
// membership fence — and the run still converges to the fault-free
// fixpoint.

// rejoinModes are the modes with live re-join: the non-barriered MRA
// family (a BSP worker joins no fence inside a superstep, so BSP keeps
// the abort-on-loss behaviour).
var rejoinModes = []Mode{MRAAsync, MRASyncAsync, MRASSP}

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

// TestRejoinMatrix: every oracle algorithm × every non-barriered mode
// with a worker crashed silently mid-fixpoint (crashw: no Stop
// handshake, no final flush — the shard and its buffered updates die).
// Selective programs recover by survivor replay into a reseeded
// replacement (Theorem 3); combining programs reset the fleet to the
// ΔX¹ seed inside the fence. Either way the final fixpoint must
// be oracle-equal. -short runs the 4-algorithm subset.
func TestRejoinMatrix(t *testing.T) {
	for _, algo := range chaosAlgos() {
		if testing.Short() && !algo.short {
			continue
		}
		for _, mode := range rejoinModes {
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

// armCrash makes worker w of a parked session exit silently at the start
// of its second compute pass of the next epoch: early in the epoch, and
// at the same point on every run. The parked worker runs no pass, and
// the release the next Apply sends orders this write before its next
// read of the barrier.
func armCrash(s *Session, w int) {
	inj := fault.New(fault.Spec{CrashWorkerID: w, CrashWorkerPass: 2})
	pol := &s.workers[w].pol
	pol.barrier = &stallBarrier{inner: pol.barrier, inj: inj}
}

// applyChecked runs one Apply and checks it against the scratch oracle
// on the mutated edge list; crashed says a worker was armed to die in it,
// so the epoch must have re-joined one.
func applyChecked(t *testing.T, s *Session, p sessionProg, n int, edges []graph.Edge, weighted bool, mut Mutation, crashed bool, label string) {
	t.Helper()
	joins := s.Result().Master.Counters["master.member.join"]
	res, err := s.Apply(mut)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !res.Converged {
		t.Fatalf("%s did not converge (stop cause: %v)", label, res.StopCause)
	}
	if got := res.Master.Counters["master.member.join"] - joins; crashed && got != 1 {
		t.Fatalf("%s: %d re-joins, want 1", label, got)
	}
	want := scratchFixpoint(t, p, n, edges, weighted, rejoinCfg(MRASyncAsync))
	expectSameFixpoint(t, label, res.Values, want, p.ident, p.tol)
}

// TestRejoinSessionCombining drives combining-aggregate sessions
// (PageRank, Katz) through two Applys and crashes worker 1 early in
// Apply 1 or Apply 2, with and without park-boundary checkpoints. A
// combining re-join resets every shard to the current ΔX¹ seed, which
// Plan.ApplyMutation rebuilds on every batch, so every epoch must equal
// the scratch oracle. The restored row opens a session from a park
// checkpoint on a plan rebuilt at its MutEpoch and crashes the replayed
// Apply.
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
						cfg.SnapshotDir = t.TempDir()
						cfg.SnapshotEvery = 1 << 30 // park checkpoints only
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
						if i == crashAt {
							armCrash(s, 1)
						}
						applyChecked(t, s, p, n, edges, g.Weighted(), mut, i == crashAt, fmt.Sprintf("apply-%d", i))
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
		cfg.SnapshotDir = t.TempDir()
		cfg.SnapshotEvery = 1 << 30
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
		cfgR := rejoinCfg(MRASyncAsync)
		cfgR.RestoreDir = cfg.SnapshotDir
		sR, err := Open(compilePlan(t, p.src, p.db(g1)), cfgR)
		if err != nil {
			t.Fatal(err)
		}
		defer sR.Close()
		if sR.MutEpoch() != 1 {
			t.Fatalf("restored MutEpoch = %d, want 1", sR.MutEpoch())
		}
		armCrash(sR, 1)
		applyChecked(t, sR, p, n, edges2, g.Weighted(), mut2, true, "replayed apply-2")
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
