package runtime

import (
	"math/rand"
	"testing"
	"time"

	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/progs"
)

// BenchmarkSessionApply times one Session.Apply on a warm parked SSSP
// session at the size and engine settings of plperf's
// sssp-churn-session workload (R-MAT 2^14 vertices / 171 k edges,
// batches of 85, 2 workers × 1 core), one sub-benchmark per batch
// shape, with the master rounds (waves) an Apply took, how many of
// them a CheckInterval tick started, what the delta step read to find
// the work (edges-read/op, border-rows/op) and what the CSR splice
// copied (edges-moved/op). Run it with -cpu 2 -benchmem and a
// fixed -benchtime such as 300x: a delete-only run thins the graph as it
// goes. For a paired
// comparison build one `go test -c` binary per commit (the go guide)
// and alternate them; plperf, not this, is the gate.
func BenchmarkSessionApply(b *testing.B) {
	for _, bc := range []struct {
		name     string
		ins, del int
	}{{"empty", 0, 0}, {"insert", 85, 0}, {"delete", 0, 85}, {"mixed", 85, 85}} {
		b.Run(bc.name, func(b *testing.B) {
			g := gen.RMAT(14, 171000, 100, 1)
			n := g.NumVertices()
			edges := g.Edges()
			s, err := Open(compilePlan(b, progs.SSSP, edgeDB("edge")(g)), Config{
				Workers:        2,
				CoresPerWorker: 1,
				Mode:           MRASyncAsync,
				Tau:            time.Millisecond,
				CheckInterval:  2 * time.Millisecond,
				MaxWall:        time.Minute,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			r := rand.New(rand.NewSource(1))
			rounds := 0
			before := s.Result().Master
			perOp := func(name string) float64 {
				return float64(s.Result().Master.Counter(name)-before.Counter(name)) / float64(b.N)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var mut Mutation
				for d := 0; d < bc.del && len(edges) > 0; d++ {
					j := r.Intn(len(edges))
					mut.Deletes = append(mut.Deletes, graph.Edge{Src: edges[j].Src, Dst: edges[j].Dst})
					edges[j] = edges[len(edges)-1]
					edges = edges[:len(edges)-1]
				}
				for k := 0; k < bc.ins; k++ {
					e := graph.Edge{Src: int32(r.Intn(n)), Dst: int32(r.Intn(n)), W: 1 + 99*r.Float64()}
					mut.Inserts = append(mut.Inserts, e)
					edges = append(edges, e)
				}
				res, err := s.Apply(mut)
				if err != nil || !res.Converged {
					b.Fatalf("Apply %d: %v (result %+v)", i, err, res)
				}
				rounds += res.Rounds
			}
			// How the stops were reached: waves per Apply, and how many of
			// them the CheckInterval fallback had to start (0 = every stop
			// was event-driven).
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
			b.ReportMetric(perOp("master.wave.timer"), "timer-waves/op")
			b.ReportMetric(perOp("delta.edges.read"), "edges-read/op")
			b.ReportMetric(perOp("delta.edges.moved"), "edges-moved/op")
			b.ReportMetric(perOp("delta.border.rows"), "border-rows/op")
		})
	}
}
