package runtime

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"powerlog/internal/agg"
	"powerlog/internal/compiler"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/metrics"
	"powerlog/internal/monotable"
	"powerlog/internal/progs"
	"powerlog/internal/ref"
)

// Tests for the bucket scheduler (sched.go, DESIGN.md §5b): the
// admission itself, the oracle's fixpoint under every MRA mode, the
// plans that must not draw it, the relaxations it saves on the graph it
// exists for, and the idle path behind held keys.

// runFIFO runs f with mode's schedule forced to FIFO: what a selective
// v + w plan drained under before it drew the bucket scheduler, and the
// baseline it is measured against. It swaps the mode's factory, which is
// package state: not from a parallel test.
func runFIFO(mode Mode, f func()) {
	factory := modeFactories[mode]
	defer func() { modeFactories[mode] = factory }()
	modeFactories[mode] = func(cfg Config, plan *compiler.Plan, self int, reg *metrics.Registry) policySet {
		ps := factory(cfg, plan, self, reg)
		ps.sched = fifoSched{}
		return ps
	}
	f()
}

// TestAdmitNear: the bucket schedule admits the dirty keys within one
// width of the best, in slot order — at least one of a non-empty dirty
// set, a tie at the limit and a NaN among them — and leaves the rest dirty
// in place. The values sit in a sum shard, whose identity is 0, so that
// ±Inf can be dirty too.
func TestAdmitNear(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	kernels := stepKernels(t, 1, 2, 10, inf)
	for _, tc := range []struct {
		name  string
		asc   bool
		width float64
		vals  []float64
		near  []float64 // in order; a NaN matches a NaN
	}{
		{"min", true, 10, []float64{25, 7, 18, 5, 16}, []float64{7, 5}},
		{"max", false, 10, []float64{25, 7, 18, 5, 16, 15}, []float64{25, 18, 16, 15}},
		{"tie at the limit is near", true, 10, []float64{15, 5, 15.000001}, []float64{15, 5}},
		{"batch of one", true, 10, []float64{42}, []float64{42}},
		{"all equal", false, 1, []float64{3, 3, 3}, []float64{3, 3, 3}},
		{"+Inf is far from a finite best", true, 10, []float64{inf, 4, inf}, []float64{4}},
		{"all +Inf", true, 10, []float64{inf, inf}, []float64{inf, inf}},
		{"-Inf best holds every finite key", true, 10, []float64{3, -inf, 4}, []float64{-inf}},
		{"max with -Inf and +Inf", false, 10, []float64{-inf, inf, 1e300}, []float64{inf}},
		{"NaN is processed, never the best", true, 10, []float64{nan, 50, 8}, []float64{nan, 8}},
		{"all NaN", false, 10, []float64{nan, nan}, []float64{nan, nan}},
		{"infinite width holds nothing", true, inf, []float64{1, 1e300, -inf}, []float64{1, 1e300, -inf}},
		{"negative values", true, 2, []float64{-5, -8, -6.5, 3}, []float64{-8, -6.5}},
		{"empty", true, 10, nil, nil},
	} {
		reg := metrics.NewRegistry()
		s := &bucketSched{asc: tc.asc, kernel: kernels[tc.width],
			passes: reg.Counter("sched.bucket.passes"), heldKeys: reg.Counter("sched.bucket.held")}
		table := monotable.NewDense(agg.ByKind(agg.Sum), len(tc.vals)+1, 1, 0)
		for i, v := range tc.vals {
			table.FoldDelta(int64(i), v)
		}
		var got []float64
		for _, d := range admitDrain(table, s) {
			got = append(got, d.val)
		}
		if len(tc.vals) > 0 && len(got) < 1 {
			t.Errorf("%s: no key admitted — a pass over this table makes no progress", tc.name)
		}
		if !slices.EqualFunc(got, tc.near, sameVal) {
			t.Errorf("%s: near = %v, want %v", tc.name, got, tc.near)
		}
		// The rest are still dirty, each with its own value.
		held := len(tc.vals) - len(got)
		snap := reg.Snapshot()
		if snap.Counter("sched.bucket.held") != uint64(held) || snap.Counter("sched.bucket.passes") != 1 || s.held != (held > 0) {
			t.Errorf("%s: sched.bucket.held %d, passes %d, held %v; want %d, 1, %v", tc.name,
				snap.Counter("sched.bucket.held"), snap.Counter("sched.bucket.passes"), s.held, held, held > 0)
		}
		var left []float64
		table.DrainAdmitted(monotable.Admit{}, func(k int64, v float64) {
			if !sameVal(v, tc.vals[k]) {
				t.Errorf("%s: key %d left holding %v, was %v", tc.name, k, v, tc.vals[k])
			}
			left = append(left, v)
		})
		if len(left) != held {
			t.Errorf("%s: %d keys left dirty, want %d", tc.name, len(left), held)
		}
	}
}

// longestPath is a client's max over s + w: the bucket scheduler's other
// direction.
const longestPath = `
r1. lp(X,d) :- X=0, d=0.
r2. lp(Y,max[d1]) :- lp(X,d), edge(X,Y,w), d1 = d + w.`

// mapWeights rebuilds g with every weight passed through f.
func mapWeights(t *testing.T, g *graph.Graph, f func(float64) float64) *graph.Graph {
	t.Helper()
	edges := g.Edges()
	for i := range edges {
		edges[i].W = f(edges[i].W)
	}
	out, err := graph.FromEdges(g.NumVertices(), edges, true)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// vertexOracle turns a dense oracle into the values a run must return:
// every reached vertex, nothing else.
func vertexOracle(dist []float64) map[int64]float64 {
	want := map[int64]float64{}
	for v, d := range dist {
		if !math.IsInf(d, 0) {
			want[int64(v)] = d
		}
	}
	return want
}

func pairOracle(dist [][]float64) map[int64]float64 {
	want := map[int64]float64{}
	for i := range dist {
		for j, d := range dist[i] {
			if !math.IsInf(d, 0) {
				want[compiler.EncodePair(int64(i), int64(j))] = d
			}
		}
	}
	return want
}

// bucketCase is one program on one graph with its internal/ref oracle.
type bucketCase struct {
	name string
	src  string
	g    *graph.Graph
	want map[int64]float64
	max  bool // a max aggregate: an absent key stands for -Inf
	// fifo: the plan must stay on fifoSched — Δ = 0, or an edge improves
	// on the value it carries (compiler.Kernel.Step).
	fifo bool
}

func bucketCases(t *testing.T) []bucketCase {
	chain := gen.LocalChain(2000, 4, 40, 100, 1)
	rmat := gen.RMAT(12, 30000, 100, 2) // 4096 vertices: a 2-worker Dense shard splits
	pairChain := gen.LocalChain(120, 3, 12, 100, 3)
	pairRMAT := gen.RMAT(6, 300, 50, 4)
	dag := gen.DAG(1500, 3, 30, 100, 5)
	falling := mapWeights(t, dag, func(w float64) float64 { return -w })
	mixed := mapWeights(t, dag, func(w float64) float64 { return w - 50 })
	zero := mapWeights(t, chain, func(float64) float64 { return 0 })
	return []bucketCase{
		{name: "sssp/chain", src: progs.SSSP, g: chain, want: vertexOracle(ref.Dijkstra(chain, 0))},
		{name: "sssp/rmat", src: progs.SSSP, g: rmat, want: vertexOracle(ref.Dijkstra(rmat, 0))},
		{name: "apsp/chain", src: progs.APSP, g: pairChain, want: pairOracle(ref.FloydWarshall(pairChain))},
		{name: "apsp/rmat", src: progs.APSP, g: pairRMAT, want: pairOracle(ref.FloydWarshall(pairRMAT))},
		// max over falling values mirrors SSSP; over rising ones (longest
		// path) every edge improves, as a negative weight does under min.
		{name: "max/falling", src: longestPath, g: falling, want: vertexOracle(ref.DAGPath(falling, 0, true)), max: true},
		{name: "max/rising", src: longestPath, g: dag, want: vertexOracle(ref.DAGPath(dag, 0, true)), max: true, fifo: true},
		{name: "sssp/negative-weights", src: progs.SSSP, g: mixed, want: vertexOracle(ref.DAGPath(mixed, 0, false)), fifo: true},
		{name: "sssp/zero-weights", src: progs.SSSP, g: zero, want: vertexOracle(ref.Dijkstra(zero, 0)), fifo: true},
	}
}

func counterSum(res *Result, name string) uint64 {
	var n uint64
	for _, ws := range res.Workers {
		n += ws.Metrics.Counter(name)
	}
	return n
}

// checkBucketRun compares one run with the oracle and checks that the
// schedule the Result names is the one the plan should have drawn and
// that a bucket schedule did hold keys back.
func checkBucketRun(t *testing.T, label string, tc bucketCase, res *Result) {
	t.Helper()
	ident := math.Inf(1)
	if tc.max {
		ident = math.Inf(-1)
	}
	expectSameFixpoint(t, label, res.Values, tc.want, ident, 1e-9)
	if tc.fifo {
		if !strings.HasPrefix(res.Sched, "fifo: ") {
			t.Errorf("%s: sched=%s, want fifo and the reason", label, res.Sched)
		}
		return
	}
	if !strings.HasPrefix(res.Sched, "bucket(Δ=") {
		t.Errorf("%s: sched=%s, want the bucket scheduler", label, res.Sched)
	}
	if counterSum(res, "sched.bucket.held") == 0 {
		t.Errorf("%s: the bucket scheduler held no key", label)
	}
}

// TestBucketSchedOracle: whatever the bucket scheduler holds back is
// refolded, never dropped, so every MRA mode reaches the oracle's
// fixpoint — for min and max, vertex and pair keys — and the plans
// outside its premise stay FIFO: an improving edge under either
// aggregate, and a graph whose weights are all zero (Δ = 0).
func TestBucketSchedOracle(t *testing.T) {
	for _, tc := range bucketCases(t) {
		for _, mode := range mraModes {
			plan := compilePlan(t, tc.src, edgeDB("edge")(tc.g))
			res := runMode(t, plan, mode, 3)
			checkBucketRun(t, fmt.Sprintf("%s/%v", tc.name, mode), tc, res)
		}
	}
}

// epsSSSP is SSSP stopped by an ε clause instead of the fixpoint.
const epsSSSP = `
r1. sssp(X,d) :- X=0, d=0.
r2. sssp(Y,min[dy]) :- sssp(X,dx), edge(X,Y,dxy), dy = dx + dxy;
                    {sum[Δdy] < 0.0001}.`

// TestBucketSchedEpsilon: an ε stop takes the change of one round for a
// bound on what is left, which holds only when the round folded the whole
// dirty set. With its near keys stale, a bucket round changes nothing
// while the held keys are still dirty, and ε-SSSP under BSP once stopped,
// Converged, with reachable keys missing. internal/term now counts an ε
// window of a plan that holds keys only when the fleet reports clean, so
// the plan draws the bucket scheduler and reaches Dijkstra's fixpoint.
func TestBucketSchedEpsilon(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.Uniform(2000, 16000, 100, 1),
		gen.LocalChain(8000, 4, 40, 100, 2),
	} {
		want := vertexOracle(ref.Dijkstra(g, 0))
		for workers := 1; workers <= 3; workers++ {
			plan := compilePlan(t, epsSSSP, edgeDB("edge")(g))
			if plan.Termination.Epsilon == 0 {
				t.Fatal("the ε clause was not compiled")
			}
			res := runMode(t, plan, MRASync, workers)
			label := fmt.Sprintf("ε-sssp/%d vertices/%d workers", g.NumVertices(), workers)
			checkBucketRun(t, label, bucketCase{want: want}, res)
		}
	}
}

// TestBucketSchedEpsilonFollowsPremise: whether the schedule holds keys
// is read from the data at every epoch's start, not from the licence
// alone. An ε plan whose graph gains an improving edge drains FIFO, so
// internal/term is told nothing is held and the ε window stops the epoch
// as it would any FIFO run — at the oracle's fixpoint.
func TestBucketSchedEpsilonFollowsPremise(t *testing.T) {
	g := gen.LocalChain(600, 3, 20, 100, 7)
	shortcut := graph.Edge{Src: 5, Dst: 300, W: -40}
	mutated, err := graph.FromEdges(g.NumVertices(), append(g.Edges(), shortcut), true)
	if err != nil {
		t.Fatal(err)
	}
	want := vertexOracle(ref.DAGPath(mutated, 0, false))
	for _, mode := range []Mode{MRASync, MRASyncAsync} {
		// Apply splices into the graph: a fresh one per session.
		s, err := Open(compilePlan(t, epsSSSP, edgeDB("edge")(gen.LocalChain(600, 3, 20, 100, 7))), sessCfg(mode))
		if err != nil {
			t.Fatal(err)
		}
		if !termConfig(s.m.plan, s.m.cfg).Holds {
			t.Errorf("%v: the bucket schedule on non-negative weights holds nothing", mode)
		}
		res, err := s.Apply(Mutation{Inserts: []graph.Edge{shortcut}})
		if err != nil {
			t.Fatal(err)
		}
		if want := "fifo: edge 5→300 weighs -40, which improves on the value it carries"; res.Sched != want {
			t.Errorf("%v: sched=%q, want %q", mode, res.Sched, want)
		}
		if termConfig(s.m.plan, s.m.cfg).Holds {
			t.Errorf("%v: Holds after the improving insert, though the plan drains FIFO", mode)
		}
		expectSameFixpoint(t, mode.String(), res.Values, want, math.Inf(1), 1e-9)
		s.Close()
	}
}

// TestBucketSchedReducesRelaxations is the scheduler's point, on plperf's
// sssp-chain graph under BSP, where the counts repeat exactly: at most a
// fifth of the FIFO run's updates cross workers, in about as many rounds.
func TestBucketSchedReducesRelaxations(t *testing.T) {
	g := gen.LocalChain(8000, 4, 40, 100, 1)
	run := func() *Result {
		plan := compilePlan(t, progs.SSSP, edgeDB("edge")(g))
		res, err := Run(plan, Config{Workers: 2, Mode: MRASync, MaxWall: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("did not converge")
		}
		return res
	}
	var fifo *Result
	runFIFO(MRASync, func() { fifo = run() })
	bucket := run()
	t.Logf("fifo: %d KVs in %d rounds; bucket: %d KVs in %d rounds, %d batches gated, %d keys held",
		fifo.MessagesSent, fifo.Rounds, bucket.MessagesSent, bucket.Rounds,
		counterSum(bucket, "sched.bucket.passes"), counterSum(bucket, "sched.bucket.held"))
	if !strings.HasPrefix(fifo.Sched, "fifo") || !strings.HasPrefix(bucket.Sched, "bucket(Δ=") {
		t.Fatalf("sched: baseline %s, default %s", fifo.Sched, bucket.Sched)
	}
	if bucket.MessagesSent*5 > fifo.MessagesSent {
		t.Errorf("bucket run sent %d KVs, more than a fifth of FIFO's %d", bucket.MessagesSent, fifo.MessagesSent)
	}
	if d := bucket.Rounds - fifo.Rounds; d*10 > fifo.Rounds || -d*10 > fifo.Rounds {
		t.Errorf("bucket run took %d rounds, FIFO %d: more than 10 %% apart", bucket.Rounds, fifo.Rounds)
	}
}

// TestBucketSchedNoIdleStall: a pass that held keys and propagated no row
// must be followed by another at once. Falling into idleWait would park
// the worker on a timer while dirty keys sit in its table, and that timer
// fires about a millisecond late (worker.await). The worker's one timer
// is created by its first timed wait, so a nil timer is a worker that has
// never waited.
func TestBucketSchedNoIdleStall(t *testing.T) {
	for _, mode := range []Mode{MRAAsync, MRASyncAsync, MRASSP} {
		t.Run(mode.String(), func(t *testing.T) {
			g := gen.LocalChain(64, 2, 8, 100, 1)
			plan := compilePlan(t, progs.SSSP, edgeDB("edge")(g))
			w, _ := workerZero(t, plan, Config{
				Workers: 2, Mode: mode, Staleness: 1 << 20,
				Tau: time.Hour, CheckInterval: time.Hour, MaxWall: time.Hour,
			})
			// Key 2 already holds a better value than its delta, so folding
			// it improves nothing; key 4's delta is far behind it and waits.
			w.table.SetAcc(2, 1)
			w.table.FoldDelta(2, 5)
			w.table.FoldDelta(4, 1e6)
			stalled := 0
			for pass := 0; w.table.HasDirty(); pass++ {
				n := w.scanPass()
				if pass == 0 && (n != 0 || !w.table.HasDirty()) {
					t.Fatalf("first pass propagated %d rows, dirty=%v: want 0 rows and key 4 held", n, w.table.HasDirty())
				}
				if n == 0 {
					stalled++
				}
				dirty := w.table.HasDirty()
				if !w.pol.barrier.endPass(w, n > 0) {
					t.Fatal("endPass stopped the worker")
				}
				if dirty && w.timer != nil {
					t.Fatalf("pass %d: the worker idled with dirty keys in its table", pass)
				}
				if pass > 1000 {
					t.Fatal("the held key was never processed")
				}
			}
			if stalled == 0 {
				t.Fatal("no pass held keys without propagating: the test lost its subject")
			}
			if acc := w.table.Acc(4); acc != 1e6 {
				t.Errorf("key 4 = %v, want the held delta 1e6 folded", acc)
			}
			// With nothing dirty left the idle path is the right one.
			w.pol.barrier.endPass(w, false)
			if w.timer == nil {
				t.Error("an idle worker with a clean table did not wait")
			}
		})
	}
}

// TestBucketSchedFollowsMutations: a session that inserts an edge which
// improves on the value it carries — a negative weight under min — falls
// back to FIFO, naming the edge in Result.Sched, and draws the bucket
// scheduler again once the edge is deleted (compiler.Kernel.Step); so
// does a session opened on a graph with no edges when it gains some. Each reaches the oracle's fixpoint on
// the graph as mutated.
func TestBucketSchedFollowsMutations(t *testing.T) {
	bucketed := func(sched string) bool { return strings.HasPrefix(sched, "bucket(Δ=") }
	g := gen.LocalChain(600, 3, 20, 100, 7) // forward edges only: no cycle to go negative
	// The oracles' copies first: Apply splices into g itself.
	edges := g.Edges()
	shortcut := graph.Edge{Src: 5, Dst: 300, W: -40}
	mutated, err := graph.FromEdges(g.NumVertices(), append(g.Edges(), shortcut), true)
	if err != nil {
		t.Fatal(err)
	}
	want := vertexOracle(ref.Dijkstra(g, 0))

	s, err := Open(compilePlan(t, progs.SSSP, edgeDB("edge")(g)), sessCfg(MRASyncAsync))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if sched := s.Result().Sched; !bucketed(sched) {
		t.Fatalf("sched=%s before the insert, want the bucket scheduler", sched)
	}
	res, err := s.Apply(Mutation{Inserts: []graph.Edge{shortcut}})
	if err != nil {
		t.Fatal(err)
	}
	if want := "fifo: edge 5→300 weighs -40, which improves on the value it carries"; res.Sched != want {
		t.Errorf("sched=%q after inserting a negative weight, want %q", res.Sched, want)
	}
	expectSameFixpoint(t, "after the insert", res.Values, vertexOracle(ref.DAGPath(mutated, 0, false)), math.Inf(1), 1e-9)
	if res, err = s.Apply(Mutation{Deletes: []graph.Edge{shortcut}}); err != nil {
		t.Fatal(err)
	}
	if !bucketed(res.Sched) {
		t.Errorf("sched=%s after deleting the negative weight, want the bucket scheduler", res.Sched)
	}
	expectSameFixpoint(t, "after the delete", res.Values, want, math.Inf(1), 1e-9)

	empty, err := graph.FromEdges(g.NumVertices(), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(compilePlan(t, progs.SSSP, edgeDB("edge")(empty)), sessCfg(MRASyncAsync))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if sched, want := s2.Result().Sched, "fifo: no edge has a non-zero weight, so there is no bucket width"; sched != want {
		t.Fatalf("sched=%q on a graph with no edges, want %q", sched, want)
	}
	if res, err = s2.Apply(Mutation{Inserts: edges}); err != nil {
		t.Fatal(err)
	}
	if !bucketed(res.Sched) || counterSum(res, "sched.bucket.held") == 0 {
		t.Errorf("sched=%s, %d keys held after the graph gained its edges, want the bucket scheduler at work",
			res.Sched, counterSum(res, "sched.bucket.held"))
	}
	expectSameFixpoint(t, "after the first edges", res.Values, want, math.Inf(1), 1e-9)
}
