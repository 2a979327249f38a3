package runtime

import (
	"math"
	"testing"
	"time"

	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/progs"
	"powerlog/internal/ref"
)

// TestOrderedScanCorrect verifies the delta-stepping-style schedule is a
// pure optimisation: same fixpoint on every mode it applies to.
func TestOrderedScanCorrect(t *testing.T) {
	g := gen.Uniform(400, 2400, 80, 321)
	want := ref.Dijkstra(g, 0)
	for _, mode := range []Mode{MRASync, MRAAsync, MRASyncAsync} {
		db := edb.NewDB()
		db.SetGraph("edge", g)
		plan := compilePlan(t, progs.SSSP, db)
		res, err := Run(plan, Config{
			Workers:       3,
			Mode:          mode,
			OrderedScan:   true,
			Tau:           200 * time.Microsecond,
			CheckInterval: 300 * time.Microsecond,
			MaxWall:       30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%v: did not converge", mode)
		}
		expectClose(t, mode, res.Values, want, math.Inf(1), 1e-9)
	}
}

// TestOrderedScanReducesRelaxations asserts the optimisation's point: on
// a weighted graph, best-first scheduling should not propagate more
// (usually far fewer) updates than arbitrary order under BSP. Arbitrary
// order is FIFO: the bucket scheduler SSSP would otherwise draw is taken
// out of the baseline.
func TestOrderedScanReducesRelaxations(t *testing.T) {
	g := gen.Uniform(2000, 16000, 100, 3231)
	run := func(ordered bool) int64 {
		db := edb.NewDB()
		db.SetGraph("edge", g)
		plan := compilePlan(t, progs.SSSP, db)
		res, err := Run(plan, Config{Workers: 3, Mode: MRASync, OrderedScan: ordered, MaxWall: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("did not converge")
		}
		return res.MessagesSent
	}
	var unordered int64
	runFIFO(MRASync, func() { unordered = run(false) })
	ordered := run(true)
	t.Logf("relaxation messages: unordered=%d ordered=%d", unordered, ordered)
	if ordered > unordered*11/10 {
		t.Errorf("ordered scan sent more messages (%d) than unordered (%d)", ordered, unordered)
	}
}

// TestOrderedScanNoEffectOnSum documents that the schedule leaves
// combining aggregates untouched (sum folds are order-insensitive).
func TestOrderedScanNoEffectOnSum(t *testing.T) {
	g := gen.RMAT(8, 1200, 0, 17)
	want := ref.PageRank(g, 500, 1e-9)
	db := edb.NewDB()
	db.SetGraph("edge", g)
	plan := compilePlan(t, progs.PageRank, db)
	res, err := Run(plan, Config{Workers: 2, Mode: MRASync, OrderedScan: true, MaxWall: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	expectClose(t, MRASync, res.Values, want, math.NaN(), 2e-3)
}
