package runtime

import (
	"testing"
	"time"

	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/progs"
)

// TestRunSurfacesMetrics checks the Result-side of the observability
// layer: every worker snapshot carries the per-policy counters, and the
// deterministic invariants hold — the per-destination flush-size
// histograms count exactly the batches WorkerStats already reports, a
// worker that received KVs counted at least one fresh batch, and the
// master's round counter matches Result.Rounds.
func TestRunSurfacesMetrics(t *testing.T) {
	g := gen.Uniform(400, 2400, 50, 11)
	db := edb.NewDB()
	db.SetGraph("edge", g)
	plan := compilePlan(t, progs.SSSP, db)
	for _, mode := range []Mode{MRASync, MRASyncAsync, MRASSP} {
		res := runMode(t, plan, mode, 4)
		if len(res.Workers) != 4 {
			t.Fatalf("%v: %d worker stats, want 4", mode, len(res.Workers))
		}
		for i, ws := range res.Workers {
			flushHist := ws.Metrics.MergeHistograms("flush.size.dst")
			if int64(flushHist.Count) != ws.Flushes {
				t.Errorf("%v: worker %d flush.size count = %d, WorkerStats.Flushes = %d",
					mode, i, flushHist.Count, ws.Flushes)
			}
			if ws.Recv > 0 && ws.Metrics.Counter("recv.batch") == 0 {
				t.Errorf("%v: worker %d received %d KVs but counted no fresh batches", mode, i, ws.Recv)
			}
		}
		if got := res.Master.Counter("master.round"); got != uint64(res.Rounds) {
			t.Errorf("%v: master.round = %d, Result.Rounds = %d", mode, got, res.Rounds)
		}
		if res.Master.Counter("master.collect.timeout") != 0 {
			t.Errorf("%v: healthy run counted a collect timeout", mode)
		}
	}
}

// TestPriorityHoldMetricsSurface: a combining-aggregate run with the
// §5.4 priority threshold enabled surfaces its hold/release cycle
// through the worker snapshots (every hold is eventually released or
// drained — holds only grow the parked set, so releases ≤ holds).
func TestPriorityHoldMetricsSurface(t *testing.T) {
	g := gen.RMAT(7, 600, 0, 17)
	db := edb.NewDB()
	db.SetGraph("edge", g)
	plan := compilePlan(t, progs.PageRank, db)
	res, err := Run(plan, Config{
		Workers:           4,
		Mode:              MRASyncAsync,
		Tau:               200 * time.Microsecond,
		CheckInterval:     300 * time.Microsecond,
		PriorityThreshold: 1e-7,
		MaxWall:           30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	var holds, releases uint64
	for _, ws := range res.Workers {
		holds += ws.Metrics.Counter("sched.hold")
		releases += ws.Metrics.Counter("sched.release")
	}
	if releases > holds {
		t.Fatalf("released %d parked deltas but only %d were ever held", releases, holds)
	}
	// The β counters ride the same snapshots (combining aggregate in the
	// unified mode registers the adaptive flush policy).
	var bandEvents uint64
	for _, ws := range res.Workers {
		bandEvents += ws.Metrics.Counter("flush.beta.band.in") + ws.Metrics.Counter("flush.beta.band.exit")
	}
	if bandEvents == 0 {
		t.Error("adaptive β ran but counted no band decisions")
	}
}
