package runtime

import (
	"fmt"
	"math"
	"testing"
	"time"

	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/progs"
)

// BenchmarkScanPass times the compute pass alone — drain, FoldAcc, the
// row kernel, routing and the folds into the shard and the peers' mirrors
// (monotable.Sink) — as worker 0 of a static fleet runs it over a dense
// frontier: every owned key is dirtied (with a value that improves, for
// SSSP) before each pass, on plperf's pagerank-rmat-bsp graph, in direct
// passes. ns/edge is the pass time over the out-edges of the rows it
// propagated. One reciprocal route serves every fleet size, but the two
// sizes are not like for like: a third worker makes 2/3 of the edges
// remote, and on R-MAT the low ids worker 0 of 2 owns are the
// high-degree ones (74 % of the out-edges).
func BenchmarkScanPass(b *testing.B) {
	for _, bc := range []struct {
		name, src string
		maxW      float64
	}{{"PageRank", progs.PageRank, 0}, {"SSSP", progs.SSSP, 100}} {
		for _, workers := range []int{2, 3} {
			b.Run(fmt.Sprintf("%s/workers=%d", bc.name, workers), func(b *testing.B) {
				g := gen.RMAT(13, 82000, bc.maxW, 1)
				plan := compilePlan(b, bc.src, edgeDB("edge")(g))
				w, peers := workerZero(b, plan, Config{
					Workers: workers, Mode: MRASync,
					Tau: time.Hour, CheckInterval: time.Hour, MaxWall: time.Hour,
				})
				route, edges := w.sink.Route, 0
				for s := 0; s < route.Size(0); s++ {
					edges += g.OutDegree(int32(route.Key(0, s)))
				}
				dirty := func(pass int) {
					v := 0.125
					if plan.Op.Selective() {
						v = 1e12 - float64(pass)
					}
					for s := 0; s < route.Size(0); s++ {
						w.table.FoldDelta(route.Key(0, s), v)
					}
				}
				dirty(0)
				w.scanPass() // warm the buffers
				peers.drain()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 1; i <= b.N; i++ {
					b.StopTimer()
					dirty(i)
					b.StartTimer()
					w.scanPass()
					b.StopTimer()
					peers.drain()
					b.StartTimer()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(edges), "ns/edge")
			})
		}
	}
}

// BenchmarkFloor is the COST floor of ROADMAP item 17 beside the engine
// it measures: "plain" is one competent thread — a delta-push PageRank
// over the same CSR (plperf's pagerank-rmat-bsp graph, R-MAT 2^13 / 82 k
// edges), one += per edge, stopping by the program's ε rule (a superstep
// whose Σ|Δ| is below ε) — and "MRA+Sync/workers=k" the engine's cold
// fixpoint on that graph with plperf's settings but k workers. Both come
// from one binary, so their ratio is the COST figure. Before timing, the
// floor's values must be the engine's within 10·ε, plperf's tolerance for
// the workload. rounds/op is each one's supersteps.
func BenchmarkFloor(b *testing.B) {
	g := gen.RMAT(13, 82000, 0, 1)
	plan := compilePlan(b, progs.PageRank, edgeDB("edge")(g))
	eps := plan.Termination.Epsilon
	cfg := func(workers int) Config {
		return Config{Workers: workers, Mode: MRASync, Tau: time.Millisecond, CheckInterval: 2 * time.Millisecond, MaxWall: time.Minute}
	}
	res, err := Run(plan, cfg(2))
	if err != nil || !res.Converged {
		b.Fatalf("engine: %v (result %+v)", err, res)
	}
	rank, _ := floorPageRank(g, eps)
	for v, x := range rank {
		if d := math.Abs(x - res.Values[int64(v)]); !(d <= 10*eps) {
			b.Fatalf("vertex %d: floor %v, engine %v: |Δ| %v > 10ε", v, x, res.Values[int64(v)], d)
		}
	}
	b.Run("plain", func(b *testing.B) {
		rounds := 0
		for i := 0; i < b.N; i++ {
			_, r := floorPageRank(g, eps)
			rounds += r
		}
		b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	})
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("MRA+Sync/workers=%d", workers), func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				res, err := Run(plan, cfg(workers))
				if err != nil || !res.Converged {
					b.Fatalf("engine: %v", err)
				}
				rounds += res.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}

// floorPageRank is BenchmarkFloor's plain loop: every vertex starts with
// a pending 0.15; a superstep folds each pending Δ into its vertex's rank
// and pushes 0.85·Δ/deg to each out-neighbour's next Δ.
func floorPageRank(g *graph.Graph, eps float64) (rank []float64, rounds int) {
	n := g.NumVertices()
	rank, delta, next := make([]float64, n), make([]float64, n), make([]float64, n)
	for v := range delta {
		delta[v] = 0.15
	}
	for sum := eps; sum >= eps; rounds++ {
		sum = 0
		for v, d := range delta {
			if d == 0 {
				continue
			}
			rank[v] += d
			sum += math.Abs(d)
			targets, _ := g.Neighbors(int32(v))
			if len(targets) == 0 {
				continue
			}
			c := 0.85 * d / float64(len(targets))
			for _, t := range targets {
				next[t] += c
			}
		}
		delta, next = next, delta
		clear(next)
	}
	return rank, rounds
}

// TestBSPCountsRepeat pins the traffic DESIGN.md §9 quotes for plperf's
// pagerank-rmat-bsp (91 supersteps, 390 409 KVs in 182 batches) and
// BenchmarkRunChain's MRA+Sync kvs/op and passes/op (73 KVs: the chain's
// ids run along it, so the block route cuts 82 of its 39 991 edges). Under
// BSP barriers a seeded run's counts repeat exactly, at any GOMAXPROCS
// and under the race detector (a peer's next-superstep batch is held
// until this worker's own pass has drained, worker.early), so a change to
// the compute pass that moves where or when a value is sent shows here.
func TestBSPCountsRepeat(t *testing.T) {
	for _, tc := range []struct {
		name, src            string
		g                    *graph.Graph
		rounds, kvs, flushes int64
	}{
		{"pagerank-rmat", progs.PageRank, gen.RMAT(13, 82000, 0, 1), 91, 390409, 182},
		{"sssp-chain", progs.SSSP, gen.LocalChain(8000, 4, 40, 100, 1), 361, 73, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(compilePlan(t, tc.src, edgeDB("edge")(tc.g)), Config{
				Workers: 2, Mode: MRASync,
				Tau: time.Millisecond, CheckInterval: 2 * time.Millisecond, MaxWall: time.Minute,
			})
			if err != nil || !res.Converged {
				t.Fatalf("run: %v (converged %v)", err, res != nil && res.Converged)
			}
			if got := [3]int64{int64(res.Rounds), res.MessagesSent, res.Flushes}; got != [3]int64{tc.rounds, tc.kvs, tc.flushes} {
				t.Fatalf("rounds, KVs, flushes = %v, want %v", got, [3]int64{tc.rounds, tc.kvs, tc.flushes})
			}
		})
	}
}

// BenchmarkRunChain times one cold SSSP fixpoint on the graph and engine
// settings of plperf's sssp-chain-tcp workload (LocalChain 8000 vertices,
// ≈ 40 k edges, 2 workers × 1 core), in process: the deep sparse frontier
// the bucket scheduler exists for (DESIGN.md §5b). kvs/op is the updates
// that crossed workers — the relaxations the schedule did not save — and
// passes/op the compute passes per worker (supersteps under MRA+Sync,
// productive passes otherwise). Under MRA+Sync both repeat exactly.
func BenchmarkRunChain(b *testing.B) {
	for _, mode := range []Mode{MRASync, MRASyncAsync} {
		b.Run(mode.String(), func(b *testing.B) {
			g := gen.LocalChain(8000, 4, 40, 100, 1)
			plan := compilePlan(b, progs.SSSP, edgeDB("edge")(g))
			var kvs, passes int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(plan, Config{
					Workers: 2, Mode: mode,
					Tau: time.Millisecond, CheckInterval: 2 * time.Millisecond, MaxWall: time.Minute,
				})
				if err != nil || !res.Converged {
					b.Fatalf("run %d: %v (converged %v)", i, err, res != nil && res.Converged)
				}
				kvs += res.MessagesSent
				if mode == MRASync {
					passes += int64(res.Rounds)
					continue
				}
				for _, ws := range res.Workers {
					passes += ws.Passes / int64(len(res.Workers))
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
			b.ReportMetric(float64(kvs)/float64(b.N), "kvs/op")
			b.ReportMetric(float64(passes)/float64(b.N), "passes/op")
		})
	}
}
