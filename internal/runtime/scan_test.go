package runtime

import (
	"fmt"
	"math"
	"runtime/debug"
	"testing"
	"time"

	"powerlog/internal/compiler"
	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/progs"
	"powerlog/internal/ref"
	"powerlog/internal/transport"
)

// Tests for the compute pass (scan.go, DESIGN.md §9): a 4-worker fleet on
// fixtures whose shards span many dirty words must reach the oracle's
// fixpoint, chaos included; the hot path must stay allocation-free on
// both sinks; and a stats poll answered from inside a pass must read
// every fold the pass has made.

// TestParallelSSSPAllMRAModes: four workers must reach Dijkstra's
// fixpoint under every MRA mode on a graph large enough that each shard
// spans many dirty-bitmap words and a pass flushes many times.
func TestParallelSSSPAllMRAModes(t *testing.T) {
	g := gen.Uniform(8000, 40000, 50, 11)
	want := ref.Dijkstra(g, 0)
	for _, mode := range mraModes {
		db := edb.NewDB()
		db.SetGraph("edge", g)
		plan := compilePlan(t, progs.SSSP, db)
		res := runMode(t, plan, mode, 4)
		expectClose(t, mode, res.Values, want, math.Inf(1), 1e-9)
	}
}

// TestParallelPageRankAllMRAModes: same for a combining (sum) aggregate,
// where every worker's re-emits land in its peers' shards while they scan.
func TestParallelPageRankAllMRAModes(t *testing.T) {
	g := gen.RMAT(13, 40000, 0, 17)
	want := ref.PageRank(g, 500, 1e-9)
	for _, mode := range mraModes {
		db := edb.NewDB()
		db.SetGraph("edge", g)
		plan := compilePlan(t, progs.PageRank, db)
		res := runMode(t, plan, mode, 4)
		expectClose(t, mode, res.Values, want, math.NaN(), 5e-3)
	}
}

// TestParallelAPSPSparse drives Sparse shards (pair-keyed plan) through
// a 4-worker fleet.
func TestParallelAPSPSparse(t *testing.T) {
	g := gen.Uniform(60, 400, 20, 53)
	want := ref.FloydWarshall(g)
	for _, mode := range []Mode{MRASync, MRAAsync, MRASyncAsync} {
		db := edb.NewDB()
		db.SetGraph("edge", g)
		plan := compilePlan(t, progs.APSP, db)
		res := runMode(t, plan, mode, 4)
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

// TestParallelScanAllocFree pins the hot path: a steady-state pass —
// dirty the whole shard, drain, fold, propagate — must not allocate, on
// a Dense shard and on a Sparse one. The drain slice, the kernel scratch,
// the pre-bound callbacks and the Sparse shard's maps are all reused.
func TestParallelScanAllocFree(t *testing.T) {
	g := gen.RMAT(12, 30000, 0, 7)
	// A client's bottleneck program: its F' calls a builtin per edge, on
	// the generic class of the same loop.
	const bottleneck = `
r1. d(X,v) :- X=0, v=0.
r2. d(Y,min[v1]) :- d(X,v), edge(X,Y,w), v1 = min(v,w).`
	for _, tc := range []struct {
		name, src string
		workers   int
		g         *graph.Graph
	}{
		{"direct", progs.PageRank, 1, g},
		{"direct/builtin", bottleneck, 1, g},
		// With peers, a pass folds remote updates into their mirrors,
		// flushes them at the eager limit and is drained after.
		{"direct/mirror/PageRank/2", progs.PageRank, 2, g},
		{"direct/mirror/PageRank/3", progs.PageRank, 3, g},
		{"direct/mirror/SSSP/2", progs.SSSP, 2, g},
		{"direct/mirror/SSSP/3", progs.SSSP, 3, g},
		// Pair keys: a Sparse shard. A pair plan propagates on its second
		// vertex and the route owns a pair by its first, so the pass
		// sends nothing.
		{"sparse/APSP/2", progs.APSP, 2, gen.Uniform(300, 3000, 20, 7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := compilePlan(t, tc.src, edgeDB("edge")(tc.g))
			w, peers := workerZero(t, plan, Config{
				Workers: tc.workers, Mode: MRAAsync,
				Tau: time.Hour, CheckInterval: time.Hour, MaxWall: time.Hour,
			})
			// Worker 0's keys: its block, or every pair from its first
			// vertex — a set the pairs' rows stay inside.
			var keys []int64
			for k := range int64(plan.N) {
				switch {
				case plan.PairKeys:
					keys = append(keys, compiler.EncodePair(0, k))
				case w.owner(k) == 0:
					keys = append(keys, k)
				}
			}
			pass := 0.0
			body := func() {
				// Falling values, so a min keeps improving and every row
				// propagates, as a sum's always does.
				pass++
				for _, k := range keys {
					w.table.FoldDelta(k, 0.125-pass)
				}
				w.scanPass()
				switch sent := peers.drain(); {
				case plan.PairKeys && sent != 0:
					t.Fatalf("the pass sent its peers %d pairs", sent)
				case !plan.PairKeys && sent == 0 && tc.workers > 1:
					t.Fatal("the pass sent its peers nothing")
				}
			}
			body()
			body()
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

// TestBarrierMirrorFlushesOnce: a BSP pass whose mirror of a peer stages
// more than batchMax slots sends it once, at the barrier, as
// ⌈staged/batchMax⌉ messages that name each staged key once. batchMax caps
// a message, not a barrier buffer: a mirror flushed every batchMax staged
// slots mid-pass re-stages a key the pass folds again, and sends it again
// within the superstep.
func TestBarrierMirrorFlushesOnce(t *testing.T) {
	plan := compilePlan(t, progs.PageRank, edgeDB("edge")(gen.Uniform(20000, 200000, 0, 3)))
	w, peers := workerZero(t, plan, Config{
		Workers: 2, Mode: MRASync,
		Tau: time.Hour, CheckInterval: time.Hour, MaxWall: time.Hour,
	})
	for s := 0; s < w.sink.Route.Size(0); s++ {
		w.table.FoldDelta(w.sink.Route.Key(0, s), 1)
	}
	w.scanPass()
	staged := w.bufs[1].len()
	if w.flushes != 0 || staged <= batchMax {
		t.Fatalf("the pass flushed %d times and left %d slots staged; want 0 and more than %d", w.flushes, staged, batchMax)
	}
	w.flushAll() // the barrier's flush
	seen := map[int64]bool{}
	for w.dataSeq[1] > peers.taken[1] {
		m := <-peers.net.Conn(1).Inbox()
		peers.taken[1]++
		for _, kv := range m.KVs {
			if seen[kv.K] || w.sink.Route.Owner(kv.K) != 1 {
				t.Fatalf("key %d sent twice, or not worker 1's", kv.K)
			}
			seen[kv.K] = true
		}
		transport.PutBatch(m.KVs)
	}
	if want := int64((staged + batchMax - 1) / batchMax); w.flushes != want || len(seen) != staged {
		t.Fatalf("%d messages carried %d keys; want %d carrying %d", w.flushes, len(seen), want, staged)
	}
}

// TestSelectiveFlushesPerPass: under MRA+SyncAsync a selective plan's
// productive pass stages its peer KVs and sends none, and the pass's end
// (freeRun.endPass) sends every peer buffer whole, each staged key once;
// MRA+Async's pass sends a 64-KV batch each time a buffer fills. Folds
// counts every value the pass folded into the mirror, so it is Sent once
// the buffers are out, plus what the mirror combined.
func TestSelectiveFlushesPerPass(t *testing.T) {
	plan := compilePlan(t, progs.SSSP, edgeDB("edge")(gen.Uniform(4000, 40000, 10, 3)))
	for _, mode := range []Mode{MRASyncAsync, MRAAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			w, peers := workerZero(t, plan, Config{
				Workers: 2, Mode: mode,
				Tau: time.Hour, CheckInterval: time.Hour, MaxWall: time.Hour,
			})
			// Every key of worker 0 at distance 0: one bucket, and every
			// row improves its targets.
			for s := 0; s < w.sink.Route.Size(0); s++ {
				w.table.FoldDelta(w.sink.Route.Key(0, s), 0)
			}
			if w.scanPass() == 0 {
				t.Fatal("the pass propagated nothing")
			}
			folds := w.stats().Folds
			if mode == MRAAsync {
				sent := 0
				for ; peers.taken[1] < w.dataSeq[1]; peers.taken[1]++ {
					m := <-peers.net.Conn(1).Inbox()
					if len(m.KVs) != asyncEagerBatch {
						t.Fatalf("a mid-pass batch held %d KVs, want %d", len(m.KVs), asyncEagerBatch)
					}
					sent += len(m.KVs)
					transport.PutBatch(m.KVs)
				}
				if sent == 0 || w.bufs[1].len() >= asyncEagerBatch {
					t.Fatalf("the pass sent %d KVs and left %d staged; want batches of %d", sent, w.bufs[1].len(), asyncEagerBatch)
				}
				if folds < w.sent+int64(w.bufs[1].len()) {
					t.Fatalf("Folds = %d, below the %d KVs sent and staged", folds, w.sent+int64(w.bufs[1].len()))
				}
				return
			}
			staged := w.bufs[1].len()
			if w.flushes != 0 || staged <= asyncEagerBatch {
				t.Fatalf("the pass flushed %d times and staged %d KVs; want 0 and more than %d", w.flushes, staged, asyncEagerBatch)
			}
			if !w.pol.barrier.endPass(w, true) {
				t.Fatal("endPass stopped the worker")
			}
			for j, b := range w.bufs {
				if b.len() != 0 {
					t.Fatalf("endPass left %d KVs in buffer %d", b.len(), j)
				}
			}
			seen := map[int64]bool{}
			for ; peers.taken[1] < w.dataSeq[1]; peers.taken[1]++ {
				m := <-peers.net.Conn(1).Inbox()
				for _, kv := range m.KVs {
					if seen[kv.K] {
						t.Fatalf("key %d sent twice in one pass", kv.K)
					}
					seen[kv.K] = true
				}
				transport.PutBatch(m.KVs)
			}
			if len(seen) != staged || w.sent != int64(staged) {
				t.Fatalf("the pass end sent %d keys (%d KVs); want the %d staged", len(seen), w.sent, staged)
			}
			if ws := w.stats(); ws.Folds != folds || folds <= w.sent || ws.FoldsPerKV() <= 1 {
				t.Fatalf("Folds = %d (%d before the flush) for %d KVs sent; want more folds than KVs", ws.Folds, folds, w.sent)
			}
		})
	}
}

// TestStatsPollReadsEveryFold: a StatsReply answered from inside a pass —
// a flush that finds the data lane full pumps the inbox, and a poll may
// be waiting there — carries the shard's Σacc as it is at that moment:
// every fold the pass has made so far, not the total as of the last pass.
// With a whole pass of lag the master confirms ε with mass still in
// flight (DESIGN.md §9).
//
// The rig stalls the pass in a flush: worker 0 of two, a one-slot data
// lane, and a peer inbox of one message that nobody reads until the reply
// is in. Once the peer's inbox and the lane are both full, the comm
// goroutine is stuck on the peer and the pass's next flush waits on the
// lane; only then is the poll sent, and the worker, which answers it from
// that flush and goes back to waiting, is blocked while the shard is read.
func TestStatsPollReadsEveryFold(t *testing.T) {
	defer func(n int) { outQueueLen = n }(outQueueLen)
	outQueueLen = 1
	plan := compilePlan(t, progs.PageRank, edgeDB("edge")(gen.RMAT(12, 30000, 0, 7)))
	net := transport.NewChannelNetwork(2, 1)
	cfg := Config{Workers: 2, Mode: MRAAsync, Tau: time.Hour, CheckInterval: time.Hour, MaxWall: time.Hour}
	w := newWorker(0, cfg.withDefaults(), plan, net.Conn(0))
	w.seed(plan.InitMRA)
	master, peer := net.Conn(transport.MasterID(2)), net.Conn(1).Inbox()

	passed := make(chan int, 1)
	go func() { passed <- w.scanPass() }()
	t.Cleanup(func() { // let the pass and the comm goroutine finish
		stop := make(chan struct{})
		go func() {
			for {
				select {
				case m := <-peer:
					transport.PutBatch(m.KVs)
				case <-stop:
					return
				}
			}
		}()
		<-passed
		close(w.out)
		close(w.outCtrl)
		<-w.commDone
		close(stop)
	})
	for len(peer) < cap(peer) || len(w.out) < cap(w.out) {
		if len(passed) > 0 {
			t.Fatal("the pass ended before its flushes stalled")
		}
		time.Sleep(10 * time.Microsecond)
	}
	if err := master.Send(0, transport.Message{Kind: transport.StatsRequest, Round: 1}); err != nil {
		t.Fatal(err)
	}
	var reply transport.Message
	select {
	case reply = <-master.Inbox():
	case n := <-passed:
		passed <- n
		t.Fatal("the pass ended before the poll was answered")
	}
	exact := neumaierSum(w.table)
	if reply.Kind != transport.StatsReply || exact == 0 {
		t.Fatalf("reply %v with the shard's Σacc at %v: the poll was not answered mid-pass", reply.Kind, exact)
	}
	if got := reply.Stats.AccSum; math.Abs(got-exact) > 1e-9*exact {
		t.Fatalf("a poll answered mid-pass reads Σacc = %v; the shard's folds so far sum to %v", got, exact)
	}
}

// TestChaosParallelScan replays representative chaos classes on fixtures
// sized up from the chaos suite's, so that every shard spans many dirty
// words and every pass flushes — and pumps its inbox — many times:
// injected stalls, drops, duplicates, and partitions must not break the
// fixpoint, nor confirm ε with mass still in flight.
func TestChaosParallelScan(t *testing.T) {
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
					res, err := chaosRun(t, plan, mode, class.spec, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Converged {
						t.Fatalf("did not converge under %q (rounds=%d)", class.spec, res.Rounds)
					}
					fx.check(t, mode, res.Values)
				})
			}
		}
	}
}
