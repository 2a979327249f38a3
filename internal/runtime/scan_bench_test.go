package runtime

import (
	"fmt"
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
// remote, and on R-MAT the even vertices worker 0 of 2 owns are the
// high-degree ones (75 % of the out-edges).
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
					Workers: workers, CoresPerWorker: 1, Mode: MRASync,
					Tau: time.Hour, CheckInterval: time.Hour, MaxWall: time.Hour,
				})
				edges := 0
				for v := 0; v < plan.N; v += workers {
					edges += g.OutDegree(int32(v))
				}
				dirty := func(pass int) {
					v := 0.125
					if plan.Op.Selective() {
						v = 1e12 - float64(pass)
					}
					for k := 0; k < plan.N; k += workers {
						w.table.FoldDelta(int64(k), v)
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

// TestBSPCountsRepeat pins the traffic DESIGN.md §9 and benchmark/README.md
// quote for plperf's pagerank-rmat-bsp (91 supersteps, 386 583 KVs in 182
// batches) and BenchmarkRunChain's MRA+Sync kvs/op and passes/op: under
// BSP barriers a seeded run's counts repeat exactly, so a change to the
// compute pass that moves where or when a value is sent shows here.
func TestBSPCountsRepeat(t *testing.T) {
	for _, tc := range []struct {
		name, src            string
		g                    *graph.Graph
		rounds, kvs, flushes int64
	}{
		{"pagerank-rmat", progs.PageRank, gen.RMAT(13, 82000, 0, 1), 91, 386583, 182},
		{"sssp-chain", progs.SSSP, gen.LocalChain(8000, 4, 40, 100, 1), 358, 23898, 711},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(compilePlan(t, tc.src, edgeDB("edge")(tc.g)), Config{
				Workers: 2, CoresPerWorker: 1, Mode: MRASync,
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
					Workers: 2, CoresPerWorker: 1, Mode: mode,
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
