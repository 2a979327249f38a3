package runtime

import (
	"math"
	"testing"
	"time"

	"powerlog/internal/analyzer"
	"powerlog/internal/compiler"
	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/parser"
	"powerlog/internal/progs"
	"powerlog/internal/ref"
)

var allModes = []Mode{NaiveSync, MRASync, MRAAsync, MRASyncAsync, MRAAAP, MRASSP}

// mraModes excludes naive (used where naive is too slow or semantically
// covered elsewhere).
var mraModes = []Mode{MRASync, MRAAsync, MRASyncAsync, MRAAAP, MRASSP}

func compilePlan(t testing.TB, src string, db *edb.DB) *compiler.Plan {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := analyzer.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := compiler.Compile(info, db, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func runMode(t *testing.T, plan *compiler.Plan, mode Mode, workers int) *Result {
	t.Helper()
	res, err := Run(plan, Config{
		Workers:       workers,
		Mode:          mode,
		Tau:           200 * time.Microsecond,
		CheckInterval: 300 * time.Microsecond,
		MaxWall:       30 * time.Second,
	})
	if err != nil {
		t.Fatalf("%v: %v", mode, err)
	}
	if !res.Converged {
		t.Fatalf("%v: did not converge (rounds=%d)", mode, res.Rounds)
	}
	return res
}

// expectClose compares engine output against a dense oracle; oracle
// identity entries (Inf / 0 depending on aggregate) must be absent.
func expectClose(t *testing.T, mode Mode, got map[int64]float64, want []float64, identity float64, tol float64) {
	t.Helper()
	errs := 0
	for v, w := range want {
		gv, ok := got[int64(v)]
		isIdent := w == identity || (math.IsInf(identity, 1) && math.IsInf(w, 1)) || (math.IsInf(identity, -1) && math.IsInf(w, -1))
		if isIdent {
			if ok && errs < 5 {
				t.Errorf("%v: key %d should be absent, got %v", mode, v, gv)
				errs++
			}
			continue
		}
		if !ok {
			if errs < 5 {
				t.Errorf("%v: key %d missing (want %v)", mode, v, w)
				errs++
			}
			continue
		}
		scale := math.Max(1, math.Abs(w))
		if math.Abs(gv-w) > tol*scale {
			if errs < 5 {
				t.Errorf("%v: key %d = %v, want %v", mode, v, gv, w)
			}
			errs++
		}
	}
	if errs > 0 {
		t.Fatalf("%v: %d mismatches", mode, errs)
	}
}

func TestSSSPAllModes(t *testing.T) {
	g := gen.Uniform(400, 2400, 50, 11)
	want := ref.Dijkstra(g, 0)
	for _, mode := range allModes {
		db := edb.NewDB()
		db.SetGraph("edge", g)
		plan := compilePlan(t, progs.SSSP, db)
		res := runMode(t, plan, mode, 4)
		expectClose(t, mode, res.Values, want, math.Inf(1), 1e-9)
	}
}

func TestCCAllModes(t *testing.T) {
	g := gen.RMAT(9, 2000, 0, 13)
	want := ref.MinLabelPropagation(g)
	for _, mode := range allModes {
		db := edb.NewDB()
		db.SetGraph("edge", g)
		plan := compilePlan(t, progs.CC, db)
		res := runMode(t, plan, mode, 4)
		expectClose(t, mode, res.Values, want, math.Inf(1), 0)
	}
}

func TestPageRankAllModes(t *testing.T) {
	g := gen.RMAT(8, 1200, 0, 17)
	want := ref.PageRank(g, 500, 1e-9)
	for _, mode := range allModes {
		db := edb.NewDB()
		db.SetGraph("edge", g)
		plan := compilePlan(t, progs.PageRank, db)
		res := runMode(t, plan, mode, 4)
		// ε-terminated: compare to the limit within a loose tolerance.
		expectClose(t, mode, res.Values, want, math.NaN(), 2e-3)
	}
}

func TestKatzAllModes(t *testing.T) {
	g := gen.Uniform(300, 1500, 0, 19)
	want := ref.Katz(g, 0, 10000, 500, 1e-9)
	for _, mode := range allModes {
		db := edb.NewDB()
		db.SetGraph("edge", g)
		plan := compilePlan(t, progs.Katz, db)
		res := runMode(t, plan, mode, 4)
		got := res.Values
		for v, w := range want {
			if w == 0 {
				continue
			}
			if math.Abs(got[int64(v)]-w) > 1e-2*math.Max(1, math.Abs(w)) {
				t.Fatalf("%v: katz[%d] = %v, want %v", mode, v, got[int64(v)], w)
			}
		}
	}
}

func TestAdsorptionAllModes(t *testing.T) {
	g := gen.Uniform(250, 1500, 1, 23)
	gen.NormalizeWeightsByOut(g, 1)
	n := g.NumVertices()
	pi := gen.VertexAttr(n, 0.1, 0.5, 41)
	pc := gen.VertexAttr(n, 0.2, 0.8, 42)
	inj := make([]float64, n)
	for i := range inj {
		inj[i] = 1
	}
	want := ref.Adsorption(g, inj, pi, pc, 800, 1e-10)
	for _, mode := range allModes {
		db := edb.NewDB()
		db.SetGraph("A", g)
		piRel := edb.NewRelation("pi", 2)
		pcRel := edb.NewRelation("pc", 2)
		for v := 0; v < n; v++ {
			piRel.Add(float64(v), pi[v])
			pcRel.Add(float64(v), pc[v])
		}
		db.AddRelation(piRel)
		db.AddRelation(pcRel)
		plan := compilePlan(t, progs.Adsorption, db)
		res := runMode(t, plan, mode, 4)
		expectClose(t, mode, res.Values, want, math.NaN(), 5e-3)
	}
}

func TestBeliefPropagationAllModes(t *testing.T) {
	g := gen.Uniform(250, 1500, 1, 29)
	gen.NormalizeWeightsByOut(g, 1)
	n := g.NumVertices()
	initial := gen.VertexAttr(n, 0.1, 1, 51)
	h := gen.VertexAttr(n, 0.2, 0.9, 52)
	want := ref.BeliefPropagation(g, initial, h, 800, 1e-10)
	for _, mode := range allModes {
		db := edb.NewDB()
		db.SetGraph("E", g)
		iRel := edb.NewRelation("I", 2)
		hRel := edb.NewRelation("H", 2)
		for v := 0; v < n; v++ {
			iRel.Add(float64(v), initial[v])
			hRel.Add(float64(v), h[v])
		}
		db.AddRelation(iRel)
		db.AddRelation(hRel)
		plan := compilePlan(t, progs.BP, db)
		res := runMode(t, plan, mode, 4)
		expectClose(t, mode, res.Values, want, math.NaN(), 5e-3)
	}
}

func TestPathsDAGAllModes(t *testing.T) {
	g := gen.DAG(300, 2.5, 30, 0, 31)
	want := ref.DAGPathCount(g, 0)
	for _, mode := range allModes {
		db := edb.NewDB()
		db.SetGraph("dagedge", g)
		plan := compilePlan(t, progs.PathsDAG, db)
		res := runMode(t, plan, mode, 4)
		expectClose(t, mode, res.Values, want, 0, 1e-9)
	}
}

func TestCostAllModes(t *testing.T) {
	g := gen.DAG(200, 2, 20, 10, 37)
	want := ref.DAGPathWeightSum(g)
	// Naive evaluation of Cost is excluded: the program's naive base is
	// the all-zeros init (sum identity), and re-deriving zero tuples never
	// activates F — the paper's naive engines hit the same degenerate
	// case and also require the incremental form here.
	for _, mode := range mraModes {
		db := edb.NewDB()
		db.SetGraph("dagedge", g)
		plan := compilePlan(t, progs.Cost, db)
		res := runMode(t, plan, mode, 4)
		got := res.Values
		for v, w := range want {
			if w == 0 {
				continue
			}
			if math.Abs(got[int64(v)]-w) > 1e-6*math.Max(1, math.Abs(w)) {
				t.Fatalf("%v: cost[%d] = %v, want %v", mode, v, got[int64(v)], w)
			}
		}
	}
}

func TestViterbiAllModes(t *testing.T) {
	g := gen.Trellis(12, 6, 43)
	want := ref.ViterbiDP(g, 0)
	for _, mode := range allModes {
		db := edb.NewDB()
		db.SetGraph("trans", g)
		plan := compilePlan(t, progs.Viterbi, db)
		res := runMode(t, plan, mode, 4)
		expectClose(t, mode, res.Values, want, 0, 1e-9)
	}
}

func TestLCAAllModes(t *testing.T) {
	g := gen.Uniform(200, 800, 0, 47)
	want := ref.BFSDepth(g, 5)
	for _, mode := range allModes {
		db := edb.NewDB()
		db.SetGraph("parent", g)
		plan := compilePlan(t, progs.LCA, db)
		res := runMode(t, plan, mode, 4)
		expectClose(t, mode, res.Values, want, math.Inf(1), 1e-9)
	}
}

func TestAPSPAllModes(t *testing.T) {
	g := gen.Uniform(60, 400, 20, 53)
	want := ref.FloydWarshall(g)
	for _, mode := range allModes {
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

func TestSimRankAllModes(t *testing.T) {
	g := gen.Uniform(200, 1200, 1, 59)
	gen.NormalizeWeightsByOut(g, 1)
	c := make([]float64, g.NumVertices())
	c[0] = 1
	want := ref.LinearLimit(g, func(src, e int32) float64 { return 0.8 * g.Weight(e) }, c, 800, 1e-10)
	for _, mode := range allModes {
		db := edb.NewDB()
		db.SetGraph("pairedge", g)
		plan := compilePlan(t, progs.SimRank, db)
		res := runMode(t, plan, mode, 4)
		// Identity 0: unreached vertices legitimately store sum's identity.
		expectClose(t, mode, res.Values, want, 0, 5e-3)
	}
}

func TestWorkerCountsAgree(t *testing.T) {
	g := gen.Uniform(300, 1500, 50, 61)
	want := ref.Dijkstra(g, 0)
	for _, workers := range []int{1, 2, 3, 7} {
		db := edb.NewDB()
		db.SetGraph("edge", g)
		plan := compilePlan(t, progs.SSSP, db)
		res := runMode(t, plan, MRASyncAsync, workers)
		expectClose(t, MRASyncAsync, res.Values, want, math.Inf(1), 1e-9)
	}
}

func TestPriorityThresholdStillConverges(t *testing.T) {
	g := gen.RMAT(8, 1200, 0, 67)
	want := ref.PageRank(g, 500, 1e-9)
	db := edb.NewDB()
	db.SetGraph("edge", g)
	plan := compilePlan(t, progs.PageRank, db)
	res, err := Run(plan, Config{
		Workers:           4,
		Mode:              MRASyncAsync,
		Tau:               200 * time.Microsecond,
		CheckInterval:     300 * time.Microsecond,
		PriorityThreshold: 1e-3,
		MaxWall:           30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge with priority threshold")
	}
	expectClose(t, MRASyncAsync, res.Values, want, math.NaN(), 5e-3)
}

func TestMessageAccounting(t *testing.T) {
	g := gen.Uniform(200, 1200, 50, 71)
	db := edb.NewDB()
	db.SetGraph("edge", g)
	plan := compilePlan(t, progs.SSSP, db)
	res := runMode(t, plan, MRASync, 4)
	if res.MessagesSent != res.MessagesRecv {
		t.Errorf("sent %d != recv %d after BSP run", res.MessagesSent, res.MessagesRecv)
	}
	if res.MessagesSent == 0 || res.Flushes == 0 {
		t.Error("expected cross-worker traffic")
	}
	if res.Rounds == 0 {
		t.Error("no rounds recorded")
	}
}

func TestSingleWorkerNoMessages(t *testing.T) {
	g := gen.Uniform(100, 500, 10, 73)
	db := edb.NewDB()
	db.SetGraph("edge", g)
	plan := compilePlan(t, progs.SSSP, db)
	res := runMode(t, plan, MRAAsync, 1)
	if res.MessagesSent != 0 {
		t.Errorf("single worker sent %d messages", res.MessagesSent)
	}
	want := ref.Dijkstra(g, 0)
	expectClose(t, MRAAsync, res.Values, want, math.Inf(1), 1e-9)
}

func TestUncompiledPlanRejected(t *testing.T) {
	if _, err := Run(&compiler.Plan{}, Config{}); err == nil {
		t.Error("uncompiled plan should be rejected")
	}
}

func TestModeStrings(t *testing.T) {
	if NaiveSync.String() != "Naive+Sync" || MRASyncAsync.String() != "MRA+SyncAsync" {
		t.Error("mode names wrong")
	}
	if MRASSP.String() != "MRA+SSP" {
		t.Error("SSP mode name wrong")
	}
	if NaiveSync.MRA() || !MRAAsync.MRA() || !MRASSP.MRA() {
		t.Error("MRA predicate wrong")
	}
	if Mode(99).String() != "Mode(?)" {
		t.Error("out-of-range mode name wrong")
	}
	for _, m := range allModes {
		if !modeRegistered(m) {
			t.Errorf("mode %v not registered", m)
		}
	}
	if modeRegistered(Mode(99)) {
		t.Error("unknown mode reported registered")
	}
}

func TestGraphPartitionCoversAllKeys(t *testing.T) {
	for _, w := range []int{1, 2, 5} {
		for k := int64(0); k < 100; k++ {
			if p := graph.Partition(k, w); p < 0 || p >= w {
				t.Fatalf("Partition(%d,%d) = %d", k, w, p)
			}
		}
	}
}
