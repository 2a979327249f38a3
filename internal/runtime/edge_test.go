package runtime

import (
	"math"
	"testing"
	"time"

	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/progs"
)

// TestMoreWorkersThanVertices: shard striping must tolerate empty shards.
func TestMoreWorkersThanVertices(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1, W: 2}, {Src: 1, Dst: 2, W: 3}}, true)
	if err != nil {
		t.Fatal(err)
	}
	db := edb.NewDB()
	db.SetGraph("edge", g)
	plan := compilePlan(t, progs.SSSP, db)
	for _, mode := range []Mode{NaiveSync, MRASync, MRASyncAsync} {
		res, err := Run(plan, Config{Workers: 8, Mode: mode, MaxWall: 10 * time.Second})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Values[0] != 0 || res.Values[1] != 2 || res.Values[2] != 5 {
			t.Fatalf("%v: values = %v", mode, res.Values)
		}
	}
}

// TestSingleVertexGraph: a source with no edges converges instantly.
func TestSingleVertexGraph(t *testing.T) {
	g, err := graph.FromEdges(1, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	db := edb.NewDB()
	db.SetGraph("edge", g)
	plan := compilePlan(t, progs.SSSP, db)
	res, err := Run(plan, Config{Workers: 2, Mode: MRASyncAsync, MaxWall: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Values[0] != 0 || len(res.Values) != 1 {
		t.Fatalf("res = %+v", res)
	}
}

// TestWallClockAbortReportsNotConverged: an impossible wall budget must
// stop the run and be reported honestly.
func TestWallClockAbortReportsNotConverged(t *testing.T) {
	g := gen.Uniform(2000, 16000, 50, 909)
	db := edb.NewDB()
	db.SetGraph("edge", g)
	plan := compilePlan(t, progs.PageRank, db)
	res, err := Run(plan, Config{
		Workers: 2,
		Mode:    MRASync,
		MaxWall: time.Millisecond, // absurdly small
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Skip("machine fast enough to converge within 1ms; nothing to assert")
	}
}

// TestIterationCapAbort: the system-level iteration limit (paper §2.2)
// must stop a long computation and be reported as not converged.
func TestIterationCapAbort(t *testing.T) {
	g := gen.Chain(4000, 0, 0, 910) // pure 4000-hop chain
	db := edb.NewDB()
	db.SetGraph("edge", g)
	plan := compilePlan(t, progs.SSSP, db)
	plan.Termination.MaxIters = 10
	res, err := Run(plan, Config{Workers: 2, Mode: MRASync, MaxWall: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("a 4000-hop chain cannot converge in 10 supersteps")
	}
	if res.Rounds > 12 {
		t.Fatalf("rounds = %d, cap was 10", res.Rounds)
	}
}

// TestNaiveJoinMatchesClosure: the relational naive evaluator and the
// compiled full-F closure derive identical results (the join path is the
// honest-cost model, not a semantic change).
func TestNaiveJoinMatchesClosure(t *testing.T) {
	g := gen.RMAT(8, 1500, 0, 911)
	db := edb.NewDB()
	db.SetGraph("edge", g)
	plan := compilePlan(t, progs.PageRank, db)

	ev, err := plan.NewNaiveEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	// One synthetic state: every vertex holds rank 1.
	rows := func(yield func(int64, float64)) {
		for v := 0; v < plan.N; v++ {
			yield(int64(v), 1)
		}
	}
	joinOut := map[int64]float64{}
	if err := ev.Eval(rows, func(k int64, v float64) { joinOut[k] += v }); err != nil {
		t.Fatal(err)
	}
	closureOut := map[int64]float64{}
	scratch := plan.NewScratch()
	for v := 0; v < plan.N; v++ {
		plan.PropagateFullInto(scratch, int64(v), 1, func(k int64, val float64) { closureOut[k] += val })
	}
	if len(joinOut) != len(closureOut) {
		t.Fatalf("key sets differ: %d vs %d", len(joinOut), len(closureOut))
	}
	for k, v := range closureOut {
		if math.Abs(joinOut[k]-v) > 1e-9*math.Max(1, math.Abs(v)) {
			t.Fatalf("key %d: join=%v closure=%v", k, joinOut[k], v)
		}
	}
}

// TestNetworkProfileCost sanity-checks the NIC emulation arithmetic.
func TestNetworkProfileCost(t *testing.T) {
	p := NetworkProfile{Latency: time.Millisecond, KVsPerSecond: 1000}
	if got := p.cost(500); got != time.Millisecond+500*time.Millisecond {
		t.Fatalf("cost = %v", got)
	}
	if (NetworkProfile{}).Enabled() {
		t.Error("zero profile should be disabled")
	}
	if !p.Enabled() {
		t.Error("profile should be enabled")
	}
	if got := (NetworkProfile{KVsPerSecond: 1e6}).cost(0); got != 0 {
		t.Errorf("empty message cost = %v", got)
	}
}

// TestEmulatedNetworkStillCorrect: results are identical under the NIC
// emulation (it reshapes timing, never data).
func TestEmulatedNetworkStillCorrect(t *testing.T) {
	g := gen.Uniform(200, 1200, 30, 912)
	db := edb.NewDB()
	db.SetGraph("edge", g)
	plan := compilePlan(t, progs.SSSP, db)
	base, err := Run(plan, Config{Workers: 3, Mode: MRASyncAsync, MaxWall: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	emu, err := Run(plan, Config{
		Workers: 3, Mode: MRASyncAsync, MaxWall: 30 * time.Second,
		Network: NetworkProfile{Latency: 50 * time.Microsecond, KVsPerSecond: 1e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Values) != len(emu.Values) {
		t.Fatalf("key sets differ")
	}
	for k, v := range base.Values {
		if emu.Values[k] != v {
			t.Fatalf("key %d: %v vs %v", k, emu.Values[k], v)
		}
	}
}
