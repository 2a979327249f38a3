package runtime

import (
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"testing"
	"time"

	"powerlog/internal/agg"
	"powerlog/internal/compiler"
	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/progs"
	"powerlog/internal/ref"
	"powerlog/internal/transport"
)

// Tests for the scan pass (subshard.go, DESIGN.md §9): fanned-out
// passes must reach the oracle's fixpoint, a pass below the gate must be
// bit-identical whatever the core count, the work-stealing deque must
// hand out each subshard exactly once, the hot path must stay
// allocation-free on both sinks, and the accSum resync must erase float
// drift at epoch boundaries.

// setScanMinKeys moves the fan-out gate for the rest of the test. It is
// the one handle tests have on the gate, and it is package state: set it
// before the workers start, and not from a parallel test.
func setScanMinKeys(t *testing.T, n int) {
	t.Helper()
	old := scanMinKeys
	scanMinKeys = n
	t.Cleanup(func() { scanMinKeys = old })
}

// forceFanOut lowers the gate to one key, so even modest frontiers fan
// out (the production gate of 1024 would keep small fixtures on core 0
// and the pool untested).
func forceFanOut(t *testing.T) { setScanMinKeys(t, 1) }

// runModeCores is runMode with CoresPerWorker=cores and the fan-out
// forced on.
func runModeCores(t *testing.T, plan *compiler.Plan, mode Mode, workers, cores int) *Result {
	t.Helper()
	forceFanOut(t)
	res, err := Run(plan, Config{
		Workers:        workers,
		Mode:           mode,
		Tau:            200 * time.Microsecond,
		CheckInterval:  300 * time.Microsecond,
		MaxWall:        30 * time.Second,
		CoresPerWorker: cores,
	})
	if err != nil {
		t.Fatalf("%v cores=%d: %v", mode, cores, err)
	}
	if !res.Converged {
		t.Fatalf("%v cores=%d: did not converge (rounds=%d)", mode, cores, res.Rounds)
	}
	return res
}

// parallelPasses sums the scan.parallel.pass counter over workers —
// the proof that a run actually exercised the subshard pool.
func parallelPasses(res *Result) uint64 {
	var n uint64
	for _, ws := range res.Workers {
		n += ws.Metrics.Counter("scan.parallel.pass")
	}
	return n
}

// TestParallelSSSPAllMRAModes: the P=4 subshard scan must reach
// Dijkstra's fixpoint under every MRA mode. The graph is sized so each
// worker's Dense shard spans several dirty-bitmap lines (>512 slots),
// otherwise Subshards returns 1 and no pass fans out.
func TestParallelSSSPAllMRAModes(t *testing.T) {
	g := gen.Uniform(8000, 40000, 50, 11)
	want := ref.Dijkstra(g, 0)
	for _, mode := range mraModes {
		db := edb.NewDB()
		db.SetGraph("edge", g)
		plan := compilePlan(t, progs.SSSP, db)
		res := runModeCores(t, plan, mode, 4, 4)
		expectClose(t, mode, res.Values, want, math.Inf(1), 1e-9)
		if parallelPasses(res) == 0 {
			t.Fatalf("%v: no parallel scan passes ran", mode)
		}
	}
}

// TestParallelPageRankAllMRAModes: same for a combining (sum)
// aggregate, where cores racing local re-emits into each other's
// unscanned ranges is the interesting interleaving (P1 soundness).
func TestParallelPageRankAllMRAModes(t *testing.T) {
	g := gen.RMAT(13, 40000, 0, 17)
	want := ref.PageRank(g, 500, 1e-9)
	for _, mode := range mraModes {
		db := edb.NewDB()
		db.SetGraph("edge", g)
		plan := compilePlan(t, progs.PageRank, db)
		res := runModeCores(t, plan, mode, 4, 4)
		expectClose(t, mode, res.Values, want, math.NaN(), 5e-3)
		if parallelPasses(res) == 0 {
			t.Fatalf("%v: no parallel scan passes ran", mode)
		}
	}
}

// TestParallelAPSPSparse drives the Sparse stripe-block subshards
// (pair-keyed plan) through the pool.
func TestParallelAPSPSparse(t *testing.T) {
	g := gen.Uniform(60, 400, 20, 53)
	want := ref.FloydWarshall(g)
	for _, mode := range []Mode{MRASync, MRAAsync, MRASyncAsync} {
		db := edb.NewDB()
		db.SetGraph("edge", g)
		plan := compilePlan(t, progs.APSP, db)
		res := runModeCores(t, plan, mode, 4, 4)
		for i := range want {
			for j := range want[i] {
				w := want[i][j]
				key := compiler.EncodePair(int64(i), int64(j))
				gv, ok := res.Values[key]
				if math.IsInf(w, 1) {
					if ok {
						t.Fatalf("%v: pair (%d,%d) should be absent, got %v", mode, i, j, gv)
					}
					continue
				}
				if !ok || math.Abs(gv-w) > 1e-9 {
					t.Fatalf("%v: apsp[%d,%d] = %v (ok=%v), want %v", mode, i, j, gv, ok, w)
				}
			}
		}
		if parallelPasses(res) == 0 {
			t.Fatalf("%v: no parallel scan passes ran", mode)
		}
	}
}

// TestCoresGating: a worker at cores=1, or in naive mode, has core 0
// only and never starts a pool goroutine, however large the frontier; at
// cores=4 in an MRA mode the same frontier fans out.
func TestCoresGating(t *testing.T) {
	db := edb.NewDB()
	db.SetGraph("edge", gen.RMAT(12, 30000, 0, 17)) // 4096 vertices: the Dense shard splits
	plan := compilePlan(t, progs.PageRank, db)
	forceFanOut(t)
	pass := func(cfg Config) *worker {
		cfg.Tau, cfg.CheckInterval, cfg.MaxWall = time.Hour, time.Hour, time.Hour
		w := standaloneWorker(t, plan, cfg)
		w.seed(plan.InitMRA)
		w.resetFrontier()
		w.pol.pass(w)
		return w
	}
	for _, cfg := range []Config{
		{Mode: MRAAsync, CoresPerWorker: 1},
		{Mode: NaiveSync, CoresPerWorker: 4},
	} {
		w := pass(cfg)
		if len(w.scan.cores) != 1 || w.scan.started || w.met.parallelPasses.Load() != 0 {
			t.Fatalf("%v cores=%d: %d cores, pool started=%v, %d fanned-out passes; want core 0 alone",
				cfg.Mode, cfg.CoresPerWorker, len(w.scan.cores), w.scan.started, w.met.parallelPasses.Load())
		}
	}
	if w := pass(Config{Mode: MRAAsync, CoresPerWorker: 4}); !w.scan.started || w.met.parallelPasses.Load() != 1 {
		t.Fatalf("cores=4 MRA pass did not fan out (started=%v, parallel passes=%d)",
			w.scan.started, w.met.parallelPasses.Load())
	}
}

// TestSerialPassBitIdentical: passes below the fan-out gate on a P=4
// worker must leave bitwise the rows a P=1 worker's passes leave — both
// are core 0 scanning the shard as one subshard through the direct sink,
// and ScanDirtyRange(0, 1) must visit keys in ScanDirty's order for a
// sum's rounding to agree. (A fanned-out sum agrees only to tolerance:
// atomic fold order across cores commutes but rounds differently.) The
// Sparse case is pair-keyed APSP: a stripe hands out its dirty keys in
// map order under either call, so there the test pins that the single
// subshard covers every stripe — a min's rows do not depend on order.
func TestSerialPassBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		g         *graph.Graph
	}{
		{"Dense/PageRank", progs.PageRank, gen.RMAT(10, 6000, 0, 31)},
		{"Sparse/APSP", progs.APSP, gen.Uniform(60, 400, 20, 53)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := edb.NewDB()
			db.SetGraph("edge", tc.g)
			plan := compilePlan(t, tc.src, db)
			setScanMinKeys(t, 1<<30) // gate never satisfied
			run := func(cores int) map[int64][2]float64 {
				w := standaloneWorker(t, plan, Config{
					Mode: MRAAsync, CoresPerWorker: cores,
					Tau: time.Hour, CheckInterval: time.Hour, MaxWall: time.Hour,
				})
				w.seed(plan.InitMRA)
				for i := 0; i < 8; i++ {
					w.scanPass()
				}
				if got := w.met.parallelPasses.Load(); got != 0 {
					t.Fatalf("cores=%d: %d passes fanned out past the gate", cores, got)
				}
				return shardRows(w)
			}
			a, b := run(1), run(4)
			if len(a) == 0 || len(a) != len(b) {
				t.Fatalf("runs produced %d vs %d rows", len(a), len(b))
			}
			for k, va := range a {
				if vb, ok := b[k]; !ok || vb != va {
					t.Fatalf("key %d: %v vs %v — gated pass is not bit-identical to P=1", k, va, vb)
				}
			}
		})
	}
}

// shardRows copies a worker's rows — accumulation and intermediate — for
// a bitwise comparison.
func shardRows(w *worker) map[int64][2]float64 {
	out := make(map[int64][2]float64)
	w.table.RangeRows(func(k int64, acc, inter float64) bool {
		out[k] = [2]float64{acc, inter}
		return true
	})
	return out
}

// TestAlternatingFoldVariants runs one table to its fixpoint through
// passes that alternate between the two local folds: a direct pass, where
// the worker goroutine is the shard's only accessor and folds with plain
// loads and stores, and a fanned-out pass, where four cores fold
// atomically. The gate is flipped between passes, so every handover of
// the shard from one regime to the other — plain writes read atomically
// by the cores after the wake, atomic writes read plainly after the join
// — happens many times; `make race` runs this at -cpu 1,4.
func TestAlternatingFoldVariants(t *testing.T) {
	setScanMinKeys(t, scanMinKeys) // restore the gate afterwards
	for _, tc := range []struct {
		name, src string
		g         *graph.Graph
		ident     float64
		tol       float64
		want      func(g *graph.Graph) []float64
	}{
		{"PageRank", progs.PageRank, gen.RMAT(12, 30000, 0, 17), math.NaN(), 1e-6,
			func(g *graph.Graph) []float64 { return ref.PageRank(g, 1000, 1e-12) }},
		{"SSSP", progs.SSSP, gen.Uniform(4000, 20000, 50, 11), math.Inf(1), 1e-9,
			func(g *graph.Graph) []float64 { return ref.Dijkstra(g, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := compilePlan(t, tc.src, edgeDB("edge")(tc.g))
			w := standaloneWorker(t, plan, Config{
				Mode: MRAAsync, CoresPerWorker: 4,
				Tau: time.Hour, CheckInterval: time.Hour, MaxWall: time.Hour,
			})
			w.seed(plan.InitMRA)
			passes := 0
			for ; passes < 400 && w.table.HasDirty(); passes++ {
				scanMinKeys = 1 << 30 // even passes: direct, owner-exclusive fold
				if passes%2 == 1 {
					scanMinKeys = 1 // odd passes: fanned out, atomic fold
					w.scan.lastDrained = 1
				}
				w.scanPass()
				if plan.Termination.Epsilon > 0 && w.accDelta < 1e-13 {
					break // a sum never goes exactly quiet; far below the tolerance is done
				}
				w.accDelta = 0
			}
			fanned := int(w.met.parallelPasses.Load())
			if fanned == 0 || fanned == passes {
				t.Fatalf("%d of %d passes fanned out; the test must alternate", fanned, passes)
			}
			got := map[int64]float64{}
			w.table.Range(func(k int64, v float64) bool { got[k] = v; return true })
			expectClose(t, MRAAsync, got, tc.want(tc.g), tc.ident, tc.tol)
		})
	}
}

// TestSubDequeExactlyOnce: an owner popping the front races three
// thieves popping the back; every subshard id must be claimed exactly
// once.
func TestSubDequeExactlyOnce(t *testing.T) {
	const nsub = 1 << 12
	var d subDeque
	d.reset(0, nsub)
	claims := make([][]int, 4)
	var wg sync.WaitGroup
	for i := range claims {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pop := d.popBack
			if i == 0 {
				pop = d.popFront
			}
			for {
				sub, ok := pop()
				if !ok {
					return
				}
				claims[i] = append(claims[i], sub)
			}
		}(i)
	}
	wg.Wait()
	var all []int
	for _, c := range claims {
		all = append(all, c...)
	}
	sort.Ints(all)
	if len(all) != nsub {
		t.Fatalf("claimed %d subshards, want %d", len(all), nsub)
	}
	for i, sub := range all {
		if sub != i {
			t.Fatalf("subshard %d claimed %s", i, map[bool]string{true: "twice", false: "never"}[sub < i])
		}
	}
}

// standaloneWorker builds a single worker with no peers and no running
// master (nw=1: every emit is local, nothing is ever flushed), so tests
// can drive scanPass by hand.
func standaloneWorker(t testing.TB, plan *compiler.Plan, cfg Config) *worker {
	t.Helper()
	cfg.Workers = 1
	w, _ := workerZero(t, plan, cfg)
	return w
}

// workerZero builds worker 0 of a cfg.Workers fleet whose other slots
// are bare endpoints: what it sends its peers piles up in their inboxes
// until the caller drains them.
func workerZero(t testing.TB, plan *compiler.Plan, cfg Config) (*worker, *peerInboxes) {
	t.Helper()
	net := transport.NewChannelNetwork(cfg.Workers, 4096)
	w := newWorker(0, cfg.withDefaults(), plan, net.Conn(0))
	t.Cleanup(func() {
		w.scan.close()
		close(w.out)
		close(w.outCtrl)
		<-w.commDone
	})
	return w, &peerInboxes{w: w, net: net, taken: make([]int64, cfg.Workers)}
}

// peerInboxes stands in for worker 0's peers.
type peerInboxes struct {
	w     *worker
	net   *transport.ChannelNetwork
	taken []int64 // batches received so far, per link
}

// drain flushes the worker's buffers, waits for every batch it has sent
// to arrive, recycles them and returns how many KVs they held.
func (p *peerInboxes) drain() int {
	p.w.flushAll()
	kvs := 0
	for j := 1; j < len(p.taken); j++ {
		for ; p.taken[j] < p.w.dataSeq[j]; p.taken[j]++ {
			m := <-p.net.Conn(j).Inbox()
			kvs += len(m.KVs)
			transport.PutBatch(m.KVs)
		}
	}
	return kvs
}

// TestParallelScanAllocFree pins the hot path of both kinds of pass: a
// steady-state pass — dirty the whole shard, drain, fold, propagate,
// and for the fanned-out one deal to 4 cores and merge — must not
// allocate. Per-core drain slices, outBufs, and the pre-bound
// closures are all reused; the two warm-up calls spawn the pool
// goroutines, and the buffers of every core are then grown to
// full-shard capacity by hand: AllocsPerRun pins GOMAXPROCS to 1 while
// it measures, and at one proc the owner core usually steals the whole
// deal before the parked cores wake, so warm-up alone leaves cores
// 1..P-1 cold — a measured run where one of them does win a steal would
// then charge its one-time slice growth to the steady state.
func TestParallelScanAllocFree(t *testing.T) {
	g := gen.RMAT(12, 30000, 0, 7) // 4096 vertices -> 8 Dense subshard lines
	// A client's bottleneck program: its F' calls a builtin per edge, on
	// the generic class of the same loop.
	const bottleneck = `
r1. d(X,v) :- X=0, v=0.
r2. d(Y,min[v1]) :- d(X,v), edge(X,Y,w), v1 = min(v,w).`
	for _, tc := range []struct {
		name, src string
		workers   int
		minKeys   int
		parallel  bool
	}{
		{"buffered", progs.PageRank, 1, 1, true},
		{"direct", progs.PageRank, 1, 1 << 30, false},
		{"direct/builtin", bottleneck, 1, 1 << 30, false},
		// With peers, a direct pass folds remote updates into their
		// mirrors, flushes them at the eager limit and is drained after.
		{"direct/mirror/PageRank/2", progs.PageRank, 2, 1 << 30, false},
		{"direct/mirror/PageRank/3", progs.PageRank, 3, 1 << 30, false},
		{"direct/mirror/SSSP/2", progs.SSSP, 2, 1 << 30, false},
		{"direct/mirror/SSSP/3", progs.SSSP, 3, 1 << 30, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := compilePlan(t, tc.src, edgeDB("edge")(g))
			w, peers := workerZero(t, plan, Config{
				Workers: tc.workers, Mode: MRAAsync, CoresPerWorker: 4,
				Tau: time.Hour, CheckInterval: time.Hour, MaxWall: time.Hour,
			})
			setScanMinKeys(t, tc.minKeys)
			n := int64(plan.N)
			pass := 0.0
			body := func() {
				// Falling values, so a min keeps improving and every row
				// propagates, as a sum's always does.
				pass++
				for k := int64(0); k < n; k += int64(tc.workers) {
					w.table.FoldDelta(k, 0.125-pass)
				}
				w.scanPass()
				if peers.drain() == 0 && tc.workers > 1 {
					t.Fatal("the pass sent its peers nothing")
				}
			}
			w.scan.lastDrained = int(n) // make the very first pass fan out
			body()
			body()
			if got := w.met.parallelPasses.Load(); (got > 0) != tc.parallel {
				t.Fatalf("warm-up: %d fanned-out passes, want fan-out=%v", got, tc.parallel)
			}
			for _, c := range w.scan.cores {
				if cap(c.drainBuf) < int(n) {
					c.drainBuf = make([]drained, 0, n)
				}
			}
			// A collection that starts while the runs are counted empties
			// the batch pool, and the refill is charged to the pass; what
			// earlier tests left on the heap decides whether one starts.
			gcPercent := debug.SetGCPercent(-1)
			allocs := testing.AllocsPerRun(5, body)
			debug.SetGCPercent(gcPercent)
			// Under the race detector sync.Pool drops a quarter of what it
			// is given, so recycling a batch allocates, and a pass whose
			// flushes are drained cannot be pinned at zero.
			lossyPool := testing.AllocsPerRun(1, func() {
				for i := 0; i < 100; i++ {
					transport.PutBatch(transport.GetBatch(1))
				}
			}) != 0
			if allocs != 0 && !(lossyPool && tc.workers > 1) {
				t.Fatalf("%s scan pass allocates %v/run, want 0", tc.name, allocs)
			}
		})
	}
}

// TestAccSumResyncExact is the satellite regression for the float-drift
// bug: >1e6 mixed-sign folds next to a 1e15 accumulation round the
// running accSum in one direction (each small delta loses low bits at
// ulp 0.125), so the drift grows far past any termination ε. The
// stats-poll epoch boundary must recompute Σacc exactly.
func TestAccSumResyncExact(t *testing.T) {
	db := edb.NewDB()
	db.SetGraph("edge", gen.RMAT(8, 1200, 0, 17))
	plan := compilePlan(t, progs.PageRank, db) // sum aggregate, Dense
	w := standaloneWorker(t, plan, Config{
		Mode: MRAAsync, Tau: time.Hour, CheckInterval: time.Hour, MaxWall: time.Hour,
	})
	fold := func(k int64, v float64) {
		_, change, signed := w.table.FoldAcc(k, v)
		w.accDelta += change
		w.accSum += signed
		w.accFolds++
	}
	fold(0, 1e15)
	for i := 0; i < 600_000; i++ { // 1.2e6 folds > accResyncFolds
		fold(1, 0.7)
		fold(1, -0.3)
	}
	exact := w.table.Acc(0) + w.table.Acc(1)
	drift := agg.Abs(w.accSum - exact)
	if drift < 1 {
		t.Fatalf("fixture did not drift (%v) — the regression test is vacuous", drift)
	}
	if w.accFolds < accResyncFolds {
		t.Fatalf("accFolds = %d, below the resync threshold %d", w.accFolds, accResyncFolds)
	}
	w.replyStats(1) // async epoch boundary: must trigger the exact resync
	if got := agg.Abs(w.accSum - exact); got >= 1e-6 {
		t.Fatalf("accSum after resync off by %v (was drifting by %v)", got, drift)
	}
	if w.accFolds != 0 {
		t.Fatalf("accFolds not reset after resync: %d", w.accFolds)
	}
}

// TestChaosParallelScan replays representative chaos classes with the
// subshard pool forced on: injected stalls, drops, duplicates, and
// partitions must not break the fanned-out pass's fixpoint. Fixtures are
// sized up from the chaos suite's so Dense shards actually split.
func TestChaosParallelScan(t *testing.T) {
	forceFanOut(t)
	tweak := func(c *Config) { c.CoresPerWorker = 4 }
	type fixture struct {
		name      string
		selective bool
		src       string
		setup     func(db *edb.DB)
		check     func(t *testing.T, mode Mode, got map[int64]float64)
	}
	var fixtures []fixture
	{
		g := gen.Uniform(8000, 40000, 50, 23)
		want := ref.Dijkstra(g, 0)
		fixtures = append(fixtures, fixture{
			name: "sssp", selective: true, src: progs.SSSP,
			setup: func(db *edb.DB) { db.SetGraph("edge", g) },
			check: func(t *testing.T, mode Mode, got map[int64]float64) {
				expectClose(t, mode, got, want, math.Inf(1), 1e-9)
			},
		})
	}
	if !testing.Short() {
		g := gen.RMAT(13, 40000, 0, 29)
		want := ref.PageRank(g, 500, 1e-9)
		fixtures = append(fixtures, fixture{
			name: "pagerank", src: progs.PageRank,
			setup: func(db *edb.DB) { db.SetGraph("edge", g) },
			check: func(t *testing.T, mode Mode, got map[int64]float64) {
				expectClose(t, mode, got, want, math.NaN(), 5e-3)
			},
		})
	}
	for _, fx := range fixtures {
		for _, mode := range []Mode{MRASync, MRASyncAsync} {
			for _, class := range chaosClasses(fx.selective) {
				t.Run(fmt.Sprintf("%s/%v/%s", fx.name, mode, class.name), func(t *testing.T) {
					db := edb.NewDB()
					fx.setup(db)
					plan := compilePlan(t, fx.src, db)
					res, err := chaosRun(t, plan, mode, class.spec, tweak)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Converged {
						t.Fatalf("did not converge under %q (rounds=%d)", class.spec, res.Rounds)
					}
					fx.check(t, mode, res.Values)
					if parallelPasses(res) == 0 {
						t.Fatalf("no parallel scan passes ran")
					}
				})
			}
		}
	}
}
