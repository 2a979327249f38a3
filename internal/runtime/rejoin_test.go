package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"powerlog/internal/ckpt"
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
// replacement (Theorem 3); combining programs rewind the fleet to the
// ΔX¹ seed inside the fence (no mutations have been applied, so the
// seed is the true initial state). Either way the final fixpoint must
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

// TestCrashRepair pins a crash fence's repair choice, one row per arm:
// selective programs always re-join by replay, warm-started from a shard
// of the current mutation epoch; combining programs rewind to a cut of
// the current mutation epoch or, before any mutation, to the seed, and
// refuse otherwise.
func TestCrashRepair(t *testing.T) {
	shard := func(mutEpoch int) *ckpt.Meta { return &ckpt.Meta{Epoch: 5, MutEpoch: mutEpoch} }
	cut := func(mutEpoch int) *ckpt.Meta { return &ckpt.Meta{Epoch: 7, Cut: true, MutEpoch: mutEpoch} }
	for _, tc := range []struct {
		name      string
		selective bool
		mutEpoch  int
		newest    *ckpt.Meta
		rollback  int
		warm, ok  bool
	}{
		{"selective, no snapshot", true, 2, nil, 0, false, true},
		{"selective, warm shard of this mutation epoch", true, 2, shard(2), 0, true, true},
		{"selective, shard of another mutation epoch", true, 2, shard(1), 0, false, true},
		{"combining, no snapshot dir, no mutation", false, 0, nil, -1, false, true},
		{"combining, no snapshot dir, mutated", false, 3, nil, 0, false, false},
		{"combining, cut of this mutation epoch", false, 3, cut(3), 7, false, true},
		{"combining, cut of another mutation epoch", false, 3, cut(2), 0, false, false},
		{"combining, stale snapshot, no mutation", false, 0, shard(0), -1, false, true},
	} {
		rollback, warm, ok := crashRepair(tc.selective, tc.mutEpoch, tc.newest)
		if rollback != tc.rollback || warm != tc.warm || ok != tc.ok {
			t.Errorf("%s: (rollback %d, warm %v, ok %v), want (%d, %v, %v)",
				tc.name, rollback, warm, ok, tc.rollback, tc.warm, tc.ok)
		}
	}

	// A refused combining re-join drops the read lease it took to choose.
	p := sessionProgs[2] // PageRank
	plan := compilePlan(t, p.src, p.db(p.g()))
	dir := t.TempDir()
	for j := 0; j < 2; j++ {
		meta := ckpt.Meta{Epoch: 3, Worker: j, Workers: 2, Cut: true, MutEpoch: 1}
		if err := ckpt.SaveShard(dir, meta, []ckpt.Row{{Key: int64(j), Acc: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	s := &Session{cfg: Config{Workers: 2, SnapshotDir: dir}, plan: plan, mutEpoch: 2}
	if _, ok := s.respawnWorker(0); ok {
		t.Fatal("a combining re-join on a cut of another mutation epoch was not refused")
	}
	if leases, _ := filepath.Glob(filepath.Join(dir, "lease-*.rdl")); len(leases) != 0 || s.fenceRelease != nil {
		t.Errorf("the refused re-join left its read lease behind: %v", leases)
	}
}

// TestRejoinSessionCombining drives a combining-aggregate session
// (PageRank) through mutations with a worker crash injected mid-run and
// park-boundary checkpoints on. Wherever the crash lands — the initial
// fixpoint (no cut yet: fleet-wide seed reset) or a later Apply (rewind
// to the park cut whose MutEpoch matches) — every epoch must still
// converge to the scratch oracle.
func TestRejoinSessionCombining(t *testing.T) {
	p := sessionProgs[2] // PageRank
	g := p.g()
	n := g.NumVertices()
	edges := append([]graph.Edge(nil), g.Edges()...)
	fs, err := fault.ParseSpec("seed=11,crashw=1:10")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rejoinCfg(MRASyncAsync)
	cfg.SnapshotDir = t.TempDir()
	cfg.SnapshotEvery = 1 << 30 // park checkpoints only: no mid-fixpoint episodes
	cfg.Fault = fault.New(fs)
	s, err := Open(compilePlan(t, p.src, p.db(g)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if res := s.Result(); !res.Converged {
		t.Fatalf("initial fixpoint did not converge (stop cause: %v)", res.StopCause)
	}
	oracleCfg := rejoinCfg(MRASyncAsync)
	r := rand.New(rand.NewSource(331))
	for i := 0; i < 2; i++ {
		var mut Mutation
		mut, edges = randMutation(r, edges, n, 6, 6, false, p.insW)
		res, err := s.Apply(mut)
		if err != nil {
			t.Fatalf("Apply %d: %v", i, err)
		}
		if !res.Converged {
			t.Fatalf("Apply %d did not converge (stop cause: %v)", i, res.StopCause)
		}
		want := scratchFixpoint(t, p, n, edges, g.Weighted(), oracleCfg)
		expectSameFixpoint(t, fmt.Sprintf("apply-%d", i), res.Values, want, p.ident, p.tol)
	}
}

// TestShardRouteSplit: the divide-free static route (monotable.Route) is
// the divide — for every fleet size, power of two or not, Split yields
// t / mod and the owner the modulo partition names, up to the largest
// vertex id.
func TestShardRouteSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ids := []int32{0, 1, 2, 3, 1<<30 - 1, 1 << 30, math.MaxInt32 - 1, math.MaxInt32}
	for i := 0; i < 2000; i++ {
		ids = append(ids, rng.Int31())
	}
	for _, mod := range []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 31, 64, 100, 1000, 1 << 16, 1<<16 + 1} {
		r := monotable.NewRoute(mod)
		for _, id := range append(ids, int32(mod-1), int32(mod), int32(mod+1), int32(math.MaxInt32/mod*mod)) {
			slot, owner := r.Split(id)
			if want := graph.Partition(int64(id), mod); slot != int(id)/mod || owner != want {
				t.Fatalf("mod %d: split of %d = (%d, owner %d), want (%d, owner %d)",
					mod, id, slot, owner, int(id)/mod, want)
			}
		}
	}
}
