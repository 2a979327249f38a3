package runtime

import (
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"powerlog/internal/compiler"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/progs"
	"powerlog/internal/transport"
)

// reversedSSSP is SSSP over in-edges: the distances to vertex 0. Its plan
// propagates over the graph's transpose.
const reversedSSSP = `
r1. d(X,v) :- X=0, v=0.
r2. d(Y,min[v1]) :- d(X,v), edge(Y,X,w), v1 = v + w.`

// copyOf is g rebuilt on arrays of its own, its rows in g's order.
func copyOf(t testing.TB, g *graph.Graph) *graph.Graph {
	t.Helper()
	c, err := graph.FromEdges(g.NumVertices(), g.Edges(), g.Weighted())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sortedByTarget is edges, rows ascending, each row a stable sort by
// target of the row as listed.
func sortedByTarget(edges []graph.Edge) []graph.Edge {
	out := slices.Clone(edges)
	slices.SortStableFunc(out, func(a, b graph.Edge) int {
		if a.Src != b.Src {
			return int(a.Src - b.Src)
		}
		return int(a.Dst - b.Dst)
	})
	return out
}

// TestSharedGraphLaidOutOnce: plans compiled over one database start
// their first fixpoints at the same time — a Run, a session's Open, an
// in-neighbour Run over the transpose, and two RunWorkers beside a
// RunMaster, as a fleet in one process runs — and the first of them
// sorts the shared graph under the others. Each result equals the same
// program's run alone, on a graph of its own, and the shared graph ends
// up its loaded rows sorted by target. Under -race a sort that ran
// beside a reader fails here; graph.TestSortRowsOnce pins that the rows
// are sorted once.
func TestSharedGraphLaidOutOnce(t *testing.T) {
	g := gen.RMAT(12, 40000, 100, 5)
	loaded := g.Edges()
	cfg := Config{Workers: 2, Mode: MRASyncAsync, Tau: time.Millisecond, CheckInterval: 2 * time.Millisecond, MaxWall: time.Minute}
	alone := func(src string) map[int64]float64 {
		res, err := Run(compilePlan(t, src, edgeDB("edge")(copyOf(t, g))), cfg)
		if err != nil || !res.Converged {
			t.Fatalf("alone: %v (converged %v)", err, res != nil && res.Converged)
		}
		return res.Values
	}
	want, wantRev := alone(progs.SSSP), alone(reversedSSSP)

	db := edgeDB("edge")(g)
	run, open, rev := compilePlan(t, progs.SSSP, db), compilePlan(t, progs.SSSP, db), compilePlan(t, reversedSSSP, db)
	fleet := []*compiler.Plan{compilePlan(t, progs.SSSP, db), compilePlan(t, progs.SSSP, db), compilePlan(t, progs.SSSP, db)}
	net := transport.NewChannelNetwork(2, 4096)
	defer net.Close()

	got := make([]map[int64]float64, 4)
	shards := make([]map[int64]float64, 2)
	errs := make([]error, 6)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, f := range []func() error{
		func() error {
			res, err := Run(run, cfg)
			if err == nil {
				got[0] = res.Values
			}
			return err
		},
		func() error {
			s, err := Open(open, cfg)
			if err == nil {
				got[1] = s.Result().Values
				s.Close()
			}
			return err
		},
		func() error {
			res, err := Run(rev, cfg)
			if err == nil {
				got[2] = res.Values
			}
			return err
		},
		func() (err error) { shards[0], err = RunWorker(fleet[0], cfg, net.Conn(0)); return err },
		func() (err error) { shards[1], err = RunWorker(fleet[1], cfg, net.Conn(1)); return err },
		func() error {
			_, converged, err := RunMaster(fleet[2], cfg, net.Conn(2))
			if err == nil && !converged {
				t.Error("the fleet did not converge")
			}
			return err
		},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs[i] = f()
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	got[3] = maps.Clone(shards[0])
	maps.Copy(got[3], shards[1])
	for i, w := range []map[int64]float64{want, want, wantRev, want} {
		if !maps.Equal(got[i], w) {
			t.Errorf("run %d: %d values differ from the run alone's %d", i, len(got[i]), len(w))
		}
	}
	if !slices.Equal(g.Edges(), sortedByTarget(loaded)) {
		t.Error("the shared graph's rows are not its loaded rows sorted by target")
	}
}

// TestLayoutInPlace: after Open a forward plan's Graph, both kernels'
// rows and the database's graph are the one graph, its loaded rows
// sorted by target, and a second Layout allocates nothing. An Apply
// splices that one graph, moving what the same batch moves on a sorted
// copy of it. An in-neighbour plan leaves the database's graph in the
// order it was loaded and splices its transpose beside it.
func TestLayoutInPlace(t *testing.T) {
	cfg := Config{Workers: 2, Mode: MRASyncAsync, Tau: time.Millisecond, CheckInterval: 2 * time.Millisecond, MaxWall: time.Minute}
	r := rand.New(rand.NewSource(58))
	batch := func(g *graph.Graph) Mutation {
		var mut Mutation
		edges := g.Edges()
		for range 40 {
			e := edges[r.Intn(len(edges))]
			mut.Deletes = append(mut.Deletes, graph.Edge{Src: e.Src, Dst: e.Dst})
			mut.Inserts = append(mut.Inserts, graph.Edge{Src: e.Src, Dst: int32(r.Intn(g.NumVertices())), W: 1 + 99*r.Float64()})
		}
		return mut
	}
	// apply runs mut on the session and returns what it moved.
	apply := func(s *Session, mut Mutation) int {
		t.Helper()
		before := s.Result().Master.Counter("delta.edges.moved")
		if res, err := s.Apply(mut); err != nil || !res.Converged {
			t.Fatalf("Apply: %v", err)
		}
		return int(s.Result().Master.Counter("delta.edges.moved") - before)
	}
	// moves is what mut moves on a copy of g, laid out as g is.
	moves := func(g *graph.Graph, sorted bool, ins, del []graph.Edge) int {
		c := copyOf(t, g)
		if sorted {
			c.SortRows()
		}
		moved, err := c.ApplyEdgeMutations(ins, del)
		if err != nil {
			t.Fatal(err)
		}
		return moved
	}

	t.Run("forward", func(t *testing.T) {
		g := gen.RMAT(12, 40000, 100, 5)
		loaded := g.Edges()
		db := edgeDB("edge")(g)
		plan := compilePlan(t, progs.SSSP, db)
		s, err := Open(plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if base, _ := db.Graph("edge"); plan.Graph != g || base != g {
			t.Fatal("the plan or the database holds a graph other than the one loaded")
		}
		scratch := plan.NewScratch()
		for _, k := range []*compiler.Kernel{plan.Kernel, plan.FullKernel} {
			for v := int32(0); v < int32(g.NumVertices()); v++ {
				if ts, _ := g.Neighbors(v); len(ts) > 0 && &k.Row(scratch, int64(v), 1).Targets[0] != &ts[0] {
					t.Fatalf("a kernel's row %d is not the graph's", v)
				}
			}
		}
		if !slices.Equal(g.Edges(), sortedByTarget(loaded)) {
			t.Fatal("the graph's rows are not its loaded rows sorted by target")
		}
		if a := testing.AllocsPerRun(10, plan.Layout); a != 0 {
			t.Fatalf("a second Layout allocates %v times", a)
		}
		mut := batch(g)
		want := moves(g, true, mut.Inserts, mut.Deletes)
		if got := apply(s, mut); got != want || want == 0 {
			t.Fatalf("the Apply moved %d edges, a sorted copy of the graph %d", got, want)
		}
	})

	t.Run("reversed", func(t *testing.T) {
		g := gen.RMAT(12, 40000, 100, 5)
		loaded := g.Edges()
		plan := compilePlan(t, reversedSSSP, edgeDB("edge")(g))
		s, err := Open(plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if plan.Graph == g || !slices.Equal(g.Edges(), loaded) {
			t.Fatal("an in-neighbour plan's first fixpoint reordered the database's graph")
		}
		mut := batch(g)
		flip := func(edges []graph.Edge) []graph.Edge {
			out := make([]graph.Edge, len(edges))
			for i, e := range edges {
				out[i] = graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W}
			}
			return out
		}
		base := moves(g, false, mut.Inserts, mut.Deletes)
		twin := moves(plan.Graph, true, flip(mut.Inserts), flip(mut.Deletes))
		if got := apply(s, mut); got != base+twin || base == 0 || twin == 0 {
			t.Fatalf("the Apply moved %d edges, want %d on the graph and %d on its transpose", got, base, twin)
		}
	})
}
