package runtime

import (
	"cmp"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"powerlog/internal/compiler"
	"powerlog/internal/edb"
	"powerlog/internal/fault"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/progs"
	"powerlog/internal/transport"
)

// sessModes are the session-capable engine modes the equivalence matrix
// covers (the ISSUE's four: BSP, async, unified, SSP).
var sessModes = []Mode{MRASync, MRAAsync, MRASyncAsync, MRASSP}

func sessCfg(mode Mode) Config {
	return Config{
		Workers:       4,
		Mode:          mode,
		Tau:           200 * time.Microsecond,
		CheckInterval: 300 * time.Microsecond,
		MaxWall:       30 * time.Second,
	}
}

// sessionProg describes one oracle program for the equivalence matrix:
// how to build its base graph and database, the identity value absent
// keys stand for, the session-vs-scratch tolerance, and how mutations
// must be shaped (DAG programs only accept forward edges; weighted
// programs need weights from the right range).
type sessionProg struct {
	name  string
	src   string
	ident float64
	tol   float64
	dag   bool // inserts must keep src < dst (DAG and trellis programs)
	insW  func(r *rand.Rand) float64
	g     func() *graph.Graph
	db    func(g *graph.Graph) *edb.DB
}

func edgeDB(pred string) func(g *graph.Graph) *edb.DB {
	return func(g *graph.Graph) *edb.DB {
		db := edb.NewDB()
		db.SetGraph(pred, g)
		return db
	}
}

func vertexRel(name string, col []float64) *edb.Relation {
	r := edb.NewRelation(name, 2)
	for v, x := range col {
		r.Add(float64(v), x)
	}
	return r
}

func unitW(*rand.Rand) float64 { return 1 }

// smallW keeps inserted weights well below the normalised rows of the
// linear-limit programs, so their spectral radius stays < 1.
func smallW(r *rand.Rand) float64 { return 0.01 + 0.05*r.Float64() }

var sessionProgs = []sessionProg{
	{
		name: "SSSP", src: progs.SSSP, ident: math.Inf(1), tol: 1e-9,
		insW: func(r *rand.Rand) float64 { return 1 + 49*r.Float64() },
		g:    func() *graph.Graph { return gen.Uniform(200, 1200, 50, 11) },
		db:   edgeDB("edge"),
	},
	{
		name: "CC", src: progs.CC, ident: math.Inf(1), tol: 0,
		insW: unitW,
		g:    func() *graph.Graph { return gen.RMAT(8, 1000, 0, 13) },
		db:   edgeDB("edge"),
	},
	{
		name: "PageRank", src: progs.PageRank, ident: 0, tol: 1e-2,
		insW: unitW,
		g:    func() *graph.Graph { return gen.RMAT(7, 600, 0, 17) },
		db:   edgeDB("edge"),
	},
	{
		name: "Katz", src: progs.Katz, ident: 0, tol: 2e-2,
		insW: unitW,
		g:    func() *graph.Graph { return gen.Uniform(200, 1000, 0, 19) },
		db:   edgeDB("edge"),
	},
	{
		name: "Adsorption", src: progs.Adsorption, ident: 0, tol: 1e-2,
		insW: smallW,
		g: func() *graph.Graph {
			g := gen.Uniform(150, 900, 1, 23)
			gen.NormalizeWeightsByOut(g, 1)
			return g
		},
		db: func(g *graph.Graph) *edb.DB {
			n := g.NumVertices()
			db := edb.NewDB()
			db.SetGraph("A", g)
			db.AddRelation(vertexRel("pi", gen.VertexAttr(n, 0.1, 0.5, 41)))
			db.AddRelation(vertexRel("pc", gen.VertexAttr(n, 0.2, 0.8, 42)))
			return db
		},
	},
	{
		name: "BP", src: progs.BP, ident: 0, tol: 1e-2,
		insW: smallW,
		g: func() *graph.Graph {
			g := gen.Uniform(150, 900, 1, 29)
			gen.NormalizeWeightsByOut(g, 1)
			return g
		},
		db: func(g *graph.Graph) *edb.DB {
			n := g.NumVertices()
			db := edb.NewDB()
			db.SetGraph("E", g)
			db.AddRelation(vertexRel("I", gen.VertexAttr(n, 0.1, 1, 51)))
			db.AddRelation(vertexRel("H", gen.VertexAttr(n, 0.2, 0.9, 52)))
			return db
		},
	},
	{
		name: "PathsDAG", src: progs.PathsDAG, ident: 0, tol: 1e-9, dag: true,
		insW: unitW,
		g:    func() *graph.Graph { return gen.DAG(200, 2.5, 25, 0, 31) },
		db:   edgeDB("dagedge"),
	},
	{
		name: "Cost", src: progs.Cost, ident: 0, tol: 1e-6, dag: true,
		insW: func(r *rand.Rand) float64 { return 1 + 9*r.Float64() },
		g:    func() *graph.Graph { return gen.DAG(150, 2, 15, 10, 37) },
		db:   edgeDB("dagedge"),
	},
	{
		name: "Viterbi", src: progs.Viterbi, ident: 0, tol: 1e-9, dag: true,
		insW: func(r *rand.Rand) float64 { return 0.05 + 0.9*r.Float64() },
		g:    func() *graph.Graph { return gen.Trellis(10, 5, 43) },
		db:   edgeDB("trans"),
	},
	{
		name: "LCA", src: progs.LCA, ident: math.Inf(1), tol: 1e-9,
		insW: unitW,
		g:    func() *graph.Graph { return gen.Uniform(150, 600, 0, 47) },
		db:   edgeDB("parent"),
	},
	{
		name: "APSP", src: progs.APSP, ident: math.Inf(1), tol: 1e-9,
		insW: func(r *rand.Rand) float64 { return 1 + 19*r.Float64() },
		g:    func() *graph.Graph { return gen.Uniform(50, 300, 20, 53) },
		db:   edgeDB("edge"),
	},
	{
		name: "SimRank", src: progs.SimRank, ident: 0, tol: 1e-2,
		insW: smallW,
		g: func() *graph.Graph {
			g := gen.Uniform(150, 900, 1, 59)
			gen.NormalizeWeightsByOut(g, 1)
			return g
		},
		db: edgeDB("pairedge"),
	},
}

// randMutation draws a reproducible mutation batch against the current
// edge list and returns it together with the mutated mirror (deletes
// drop every parallel edge with the sampled endpoint pair, matching
// Mutation semantics; inserts are appended after deletes, matching
// ApplyEdgeMutations order).
func randMutation(r *rand.Rand, edges []graph.Edge, n, nIns, nDel int, dag bool, insW func(*rand.Rand) float64) (Mutation, []graph.Edge) {
	var mut Mutation
	if nDel > 0 && len(edges) > 0 {
		gone := map[int64]bool{}
		for i := 0; i < nDel; i++ {
			e := edges[r.Intn(len(edges))]
			key := int64(e.Src)<<32 | int64(uint32(e.Dst))
			if gone[key] {
				continue
			}
			gone[key] = true
			mut.Deletes = append(mut.Deletes, graph.Edge{Src: e.Src, Dst: e.Dst})
		}
		kept := make([]graph.Edge, 0, len(edges))
		for _, e := range edges {
			if !gone[int64(e.Src)<<32|int64(uint32(e.Dst))] {
				kept = append(kept, e)
			}
		}
		edges = kept
	}
	for i := 0; i < nIns; i++ {
		src, dst := r.Intn(n), r.Intn(n)
		if src == dst {
			continue
		}
		if dag && src > dst {
			src, dst = dst, src
		}
		e := graph.Edge{Src: int32(src), Dst: int32(dst), W: insW(r)}
		mut.Inserts = append(mut.Inserts, e)
		edges = append(edges, e)
	}
	return mut, edges
}

// expectSameFixpoint compares a session's table against a scratch
// recompute on the mutated EDB. Keys absent on either side stand for
// the aggregate identity (a combining correction can leave an exactly
// cancelled residual row the scratch run never creates).
func expectSameFixpoint(t *testing.T, label string, got, want map[int64]float64, ident, tol float64) {
	t.Helper()
	errs := 0
	seen := map[int64]bool{}
	check := func(k int64) {
		if seen[k] {
			return
		}
		seen[k] = true
		gv, ok := got[k]
		if !ok {
			gv = ident
		}
		wv, ok := want[k]
		if !ok {
			wv = ident
		}
		if gv == wv {
			return
		}
		// Identity against a finite value is a stale or missing row, never
		// a tolerance question (Inf-Inf is NaN, which no bound exceeds).
		if math.IsInf(gv, 0) || math.IsInf(wv, 0) || math.Abs(gv-wv) > tol*math.Max(1, math.Abs(wv)) {
			if errs < 5 {
				t.Errorf("%s: key %d = %v, want %v", label, k, gv, wv)
			}
			errs++
		}
	}
	for k := range got {
		check(k)
	}
	for k := range want {
		check(k)
	}
	if errs > 0 {
		t.Fatalf("%s: %d mismatches vs scratch recompute", label, errs)
	}
}

// scratchFixpoint is the correctness oracle: a cold run of the same
// program, in the same mode, on a fresh database built from the mutated
// edge list.
func scratchFixpoint(t *testing.T, p sessionProg, n int, edges []graph.Edge, weighted bool, cfg Config) map[int64]float64 {
	t.Helper()
	g, err := graph.FromEdges(n, append([]graph.Edge(nil), edges...), weighted)
	if err != nil {
		t.Fatal(err)
	}
	plan := compilePlan(t, p.src, p.db(g))
	res, err := Run(plan, cfg)
	if err != nil {
		t.Fatalf("scratch %v: %v", cfg.Mode, err)
	}
	if !res.Converged {
		t.Fatalf("scratch %v: did not converge", cfg.Mode)
	}
	return res.Values
}

func testSessionProgram(t *testing.T, p sessionProg, mode Mode, seed int64) {
	g := p.g()
	n := g.NumVertices()
	weighted := g.Weighted()
	edges := append([]graph.Edge(nil), g.Edges()...)
	cfg := sessCfg(mode)

	s, err := Open(compilePlan(t, p.src, p.db(g)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.Result().Converged {
		t.Fatal("initial fixpoint did not converge")
	}

	k := len(edges) / 50
	if k < 3 {
		k = 3
	}
	r := rand.New(rand.NewSource(seed))
	batches := []struct {
		kind       string
		nIns, nDel int
	}{
		{"insert", k, 0},
		{"delete", 0, k},
		{"mixed", k, k},
	}
	for _, b := range batches {
		var mut Mutation
		mut, edges = randMutation(r, edges, n, b.nIns, b.nDel, p.dag, p.insW)
		res, err := s.Apply(mut)
		if err != nil {
			t.Fatalf("%s: Apply: %v", b.kind, err)
		}
		if !res.Converged {
			t.Fatalf("%s: epoch did not converge", b.kind)
		}
		want := scratchFixpoint(t, p, n, edges, weighted, cfg)
		expectSameFixpoint(t, p.name+"/"+b.kind, res.Values, want, p.ident, p.tol)
	}
	if s.Epoch() != 1+len(batches) {
		t.Errorf("Epoch() = %d, want %d", s.Epoch(), 1+len(batches))
	}
	if s.MutEpoch() != len(batches) || s.Log().Len() != len(batches) {
		t.Errorf("MutEpoch() = %d, Log().Len() = %d, want %d", s.MutEpoch(), s.Log().Len(), len(batches))
	}
}

// TestSessionEquivalence is the CI equivalence matrix: every oracle
// program × insert/delete/mixed × every session mode, each Apply
// compared against a scratch recompute on the mutated EDB. Under -short
// each program runs one rotating mode instead of all four.
func TestSessionEquivalence(t *testing.T) {
	for pi, p := range sessionProgs {
		for mi, mode := range sessModes {
			if testing.Short() && mi != pi%len(sessModes) {
				continue
			}
			p, mode, seed := p, mode, int64(1009*pi+101*mi+7)
			t.Run(p.name+"/"+mode.String(), func(t *testing.T) {
				testSessionProgram(t, p, mode, seed)
			})
		}
	}
}

// TestSessionWorkerCounts parks and re-fixpoints fleets of several
// sizes, including the single-worker fleet whose park handshake has no
// peers to fence.
func TestSessionWorkerCounts(t *testing.T) {
	p := sessionProgs[0] // SSSP
	for _, workers := range []int{1, 2, 3} {
		g := p.g()
		n := g.NumVertices()
		edges := append([]graph.Edge(nil), g.Edges()...)
		cfg := sessCfg(MRASyncAsync)
		cfg.Workers = workers
		s, err := Open(compilePlan(t, p.src, p.db(g)), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var mut Mutation
		mut, edges = randMutation(rand.New(rand.NewSource(211)), edges, n, 8, 8, false, p.insW)
		res, err := s.Apply(mut)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := scratchFixpoint(t, p, n, edges, true, cfg)
		expectSameFixpoint(t, "workers", res.Values, want, p.ident, p.tol)
		s.Close()
	}
}

// TestSessionCoresPerWorker re-fixpoints with the intra-worker parallel
// scan forced on (forceFanOut: even tiny frontiers fan out).
func TestSessionCoresPerWorker(t *testing.T) {
	p := sessionProgs[0] // SSSP
	g := p.g()
	n := g.NumVertices()
	edges := append([]graph.Edge(nil), g.Edges()...)
	cfg := sessCfg(MRASyncAsync)
	cfg.CoresPerWorker = 4
	forceFanOut(t)
	s, err := Open(compilePlan(t, p.src, p.db(g)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := rand.New(rand.NewSource(223))
	for i := 0; i < 2; i++ {
		var mut Mutation
		mut, edges = randMutation(r, edges, n, 10, 10, false, p.insW)
		res, err := s.Apply(mut)
		if err != nil {
			t.Fatal(err)
		}
		want := scratchFixpoint(t, p, n, edges, true, cfg)
		expectSameFixpoint(t, "cores", res.Values, want, p.ident, p.tol)
	}
}

// TestSessionEmptyMutation: an Apply that changes nothing must converge
// immediately and leave the fixpoint untouched (it still advances the
// mutation log — the caller said "apply this", and replay must agree).
func TestSessionEmptyMutation(t *testing.T) {
	p := sessionProgs[0]
	g := p.g()
	s, err := Open(compilePlan(t, p.src, p.db(g)), sessCfg(MRAAsync))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := map[int64]float64{}
	for k, v := range s.Result().Values {
		before[k] = v
	}
	res, err := s.Apply(Mutation{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("empty mutation epoch did not converge")
	}
	expectSameFixpoint(t, "empty", res.Values, before, p.ident, 0)
	if s.Epoch() != 2 || s.MutEpoch() != 1 {
		t.Errorf("Epoch()=%d MutEpoch()=%d, want 2 and 1", s.Epoch(), s.MutEpoch())
	}
}

// TestSessionMutationValidation: an out-of-universe edge, and an insert
// with a NaN weight (every key it reached would end NaN and the run
// unconverged), are rejected with the edge named, the EDB untouched and
// the session still usable (non-sticky).
func TestSessionMutationValidation(t *testing.T) {
	p := sessionProgs[0]
	g := p.g()
	n := g.NumVertices()
	edges := append([]graph.Edge(nil), g.Edges()...)
	cfg := sessCfg(MRASync)
	s, err := Open(compilePlan(t, p.src, p.db(g)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.Apply(Mutation{Inserts: []graph.Edge{{Src: int32(n), Dst: 0, W: 1}}})
	if err == nil || !strings.Contains(err.Error(), "outside the vertex universe") {
		t.Fatalf("out-of-universe insert: err = %v", err)
	}
	_, err = s.Apply(Mutation{Inserts: []graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: math.NaN()}}})
	if err == nil || !strings.Contains(err.Error(), "insert edge (1,2) has a NaN weight") {
		t.Fatalf("NaN insert: err = %v", err)
	}
	if g.NumEdges() != len(edges) {
		t.Fatalf("a rejected batch changed the graph: %d edges, want %d", g.NumEdges(), len(edges))
	}
	if s.Err() != nil {
		t.Fatalf("validation failure must not poison the session: %v", s.Err())
	}
	if s.MutEpoch() != 0 {
		t.Fatalf("rejected mutation advanced MutEpoch to %d", s.MutEpoch())
	}
	var mut Mutation
	mut, edges = randMutation(rand.New(rand.NewSource(227)), edges, n, 5, 5, false, p.insW)
	res, err := s.Apply(mut)
	if err != nil {
		t.Fatalf("session unusable after rejected mutation: %v", err)
	}
	want := scratchFixpoint(t, p, n, edges, true, cfg)
	expectSameFixpoint(t, "after-reject", res.Values, want, p.ident, p.tol)
}

// TestSessionNaiveApplyRejected: naive evaluation re-derives from
// scratch and cannot re-fixpoint incrementally.
func TestSessionNaiveApplyRejected(t *testing.T) {
	p := sessionProgs[0]
	cfg := sessCfg(NaiveSync)
	s, err := Open(compilePlan(t, p.src, p.db(p.g())), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.Result().Converged {
		t.Fatal("naive initial fixpoint did not converge")
	}
	if _, err := s.Apply(Mutation{Inserts: []graph.Edge{{Src: 1, Dst: 2, W: 1}}}); err == nil ||
		!strings.Contains(err.Error(), "naive") {
		t.Fatalf("naive Apply: err = %v", err)
	}
}

func TestSessionApplyAfterClose(t *testing.T) {
	p := sessionProgs[0]
	s, err := Open(compilePlan(t, p.src, p.db(p.g())), sessCfg(MRAAsync))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close is not idempotent: %v", err)
	}
	if _, err := s.Apply(Mutation{}); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Apply after Close: err = %v", err)
	}
}

// TestSessionMetrics checks the session observability counters surface
// through the master's snapshot: engine.epoch per parked fixpoint,
// delta.reseed.keys and delete.invalidate.keys per Apply, and what the
// delta step read to find them.
func TestSessionMetrics(t *testing.T) {
	p := sessionProgs[0]
	g := p.g()
	edges := append([]graph.Edge(nil), g.Edges()...)
	s, err := Open(compilePlan(t, p.src, p.db(g)), sessCfg(MRASync))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Delete an edge on a shortest path, so the support closure is
	// guaranteed non-empty.
	init := s.Result().Values
	var del graph.Edge
	found := false
	for _, e := range edges {
		if d, ok := init[int64(e.Src)]; ok && d+e.W == init[int64(e.Dst)] {
			del, found = e, true
			break
		}
	}
	if !found {
		t.Fatal("no shortest-path edge to delete")
	}
	mut := Mutation{Deletes: []graph.Edge{{Src: del.Src, Dst: del.Dst}}}
	res, err := s.Apply(mut)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Master.Counters
	if c["engine.epoch"] < 2 {
		t.Errorf("engine.epoch = %d, want >= 2", c["engine.epoch"])
	}
	if c["delta.reseed.keys"] == 0 {
		t.Error("delta.reseed.keys = 0 after a delete Apply")
	}
	if c["delete.invalidate.keys"] == 0 {
		t.Error("delete.invalidate.keys = 0 after deleting a shortest-path edge")
	}
	if c["delta.border.rows"] == 0 || c["delta.edges.read"] < c["delta.border.rows"] {
		t.Errorf("delta.border.rows = %d, delta.edges.read = %d after an erasing delete",
			c["delta.border.rows"], c["delta.edges.read"])
	}
	if c["delta.index.rebuilds"] != 1 {
		t.Errorf("delta.index.rebuilds = %d after the first erasing delete, want 1", c["delta.index.rebuilds"])
	}
}

// TestSessionPoisonedApplyPublishesTraffic: an Apply whose epoch stops
// without parking — an injected master crash at round 3 of epoch 2 —
// publishes that epoch's traffic. The per-epoch counts of the Result it
// leaves behind are what the workers sent and flushed during the epoch.
func TestSessionPoisonedApplyPublishesTraffic(t *testing.T) {
	p := sessionProgs[0] // SSSP
	cfg := sessCfg(MRASync)
	cfg.Fault = fault.New(fault.Spec{CrashEpoch: 2, CrashRound: 3})
	s, err := Open(compilePlan(t, p.src, p.db(p.g())), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := s.Result()
	// Hang the two farthest vertices off the source, so the epoch has
	// rows to propagate before its crash round.
	var keys []int64
	for k, d := range before.Values {
		if !math.IsInf(d, 1) {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b int64) int { return cmp.Compare(before.Values[b], before.Values[a]) })
	ins := []graph.Edge{{Src: 0, Dst: int32(keys[0]), W: 0.5}, {Src: 0, Dst: int32(keys[1]), W: 0.5}}
	if _, err := s.Apply(Mutation{Inserts: ins}); err == nil {
		t.Fatal("Apply across the crash round succeeded")
	}
	after := s.Result()
	var sent, flushes int64
	for i := range after.Workers {
		sent += after.Workers[i].Sent - before.Workers[i].Sent
		flushes += after.Workers[i].Flushes - before.Workers[i].Flushes
	}
	if sent == 0 || after.MessagesSent != sent || after.Flushes != flushes {
		t.Errorf("published MessagesSent = %d, Flushes = %d; the epoch's workers sent %d KVs in %d flushes (want > 0, equal)",
			after.MessagesSent, after.Flushes, sent, flushes)
	}
}

// TestSessionLogCopiesBatch: the replay log must not alias the caller's
// batch. A streaming client refills one pair of buffers per Apply; the
// tail a restore replays has to hold what was applied.
func TestSessionLogCopiesBatch(t *testing.T) {
	p := sessionProgs[0]
	s, err := Open(compilePlan(t, p.src, p.db(p.g())), sessCfg(MRASync))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ins := []graph.Edge{{Src: 0, Dst: 7, W: 3}}
	del := []graph.Edge{{Src: 0, Dst: 7}}
	want := [2]graph.Edge{ins[0], del[0]}
	if _, err := s.Apply(Mutation{Inserts: ins, Deletes: del}); err != nil {
		t.Fatal(err)
	}
	ins[0], del[0] = graph.Edge{Src: 5, Dst: 6, W: 9}, graph.Edge{Src: 1, Dst: 2}
	got := s.Log().Since(0)
	if len(got) != 1 || len(got[0].Mut.Inserts) != 1 || len(got[0].Mut.Deletes) != 1 ||
		got[0].Mut.Inserts[0] != want[0] || got[0].Mut.Deletes[0] != want[1] {
		t.Fatalf("log holds %+v after the caller refilled its buffers, want insert %v delete %v", got, want[0], want[1])
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg   Config
		field string
	}{
		{Config{Staleness: -1}, "Staleness"},
		{Config{CoresPerWorker: -2}, "CoresPerWorker"},
		{Config{CollectTimeout: -time.Millisecond}, "CollectTimeout"},
		{Config{MaxWall: -time.Minute}, "MaxWall"},
		{Config{Workers: -3}, "Workers"},
		{Config{Tau: -time.Millisecond}, "Tau"},
		{Config{CheckInterval: -time.Millisecond}, "CheckInterval"},
		{Config{SnapshotEvery: -1}, "SnapshotEvery"},
		{Config{Mode: Mode(42)}, "Mode"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != c.field {
			t.Errorf("Validate(%s): err = %v, want ConfigError for %s", c.field, err, c.field)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	if err := (Config{PriorityThreshold: -1}).Validate(); err != nil {
		t.Errorf("negative PriorityThreshold is the documented disable, got %v", err)
	}
	// Run, Open, RunWorker and RunMaster all validate before touching the
	// plan — an unregistered mode included, which has no policies to build.
	p := sessionProgs[0]
	plan := compilePlan(t, p.src, p.db(p.g()))
	var ce *ConfigError
	if _, err := Run(plan, Config{Staleness: -1}); !errors.As(err, &ce) {
		t.Errorf("Run with bad config: err = %v", err)
	}
	if _, err := Open(plan, Config{CoresPerWorker: -1}); !errors.As(err, &ce) {
		t.Errorf("Open with bad config: err = %v", err)
	}
	net := transport.NewChannelNetwork(1, 0)
	defer net.Close()
	bad := Config{Mode: Mode(42)}
	if _, err := RunWorker(plan, bad, net.Conn(0)); !errors.As(err, &ce) || ce.Field != "Mode" {
		t.Errorf("RunWorker with an unregistered mode: err = %v, want ConfigError for Mode", err)
	}
	if _, _, err := RunMaster(plan, bad, net.Conn(transport.MasterID(1))); !errors.As(err, &ce) || ce.Field != "Mode" {
		t.Errorf("RunMaster with an unregistered mode: err = %v, want ConfigError for Mode", err)
	}
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	ents, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(from, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, ent.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionCrashRestoreReplay is the mid-session crash drill: a
// session takes one Apply cleanly, crashes (injected) during the next,
// and a restored session — opened from the park-boundary checkpoint
// plus a plan rebuilt at that checkpoint's mutation position — replays
// the trailing mutation-log entry and lands on the oracle fixpoint.
func TestSessionCrashRestoreReplay(t *testing.T) {
	base := gen.Uniform(200, 1200, 50, 83)
	n := base.NumVertices()
	edges0 := append([]graph.Edge(nil), base.Edges()...)
	insW := func(r *rand.Rand) float64 { return 1 + 49*r.Float64() }
	mkPlan := func(edges []graph.Edge) *compiler.Plan {
		g, err := graph.FromEdges(n, append([]graph.Edge(nil), edges...), true)
		if err != nil {
			t.Fatal(err)
		}
		db := edb.NewDB()
		db.SetGraph("edge", g)
		return compilePlan(t, progs.SSSP, db)
	}
	r := rand.New(rand.NewSource(991))
	mut1, edges1 := randMutation(r, edges0, n, 6, 6, false, insW)
	mut2, edges2 := randMutation(r, edges1, n, 6, 6, false, insW)
	cfg := sessCfg(MRASync)

	// Crash run: checkpointing on, master crashes at the first round of
	// the second Apply's epoch (epoch 1 is Open's fixpoint).
	dir, dirAt1 := t.TempDir(), t.TempDir()
	cfgB := cfg
	cfgB.SnapshotDir = dir
	cfgB.Fault = fault.New(fault.Spec{CrashEpoch: 3, CrashRound: 1})
	sB, err := Open(mkPlan(edges0), cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sB.Apply(mut1); err != nil {
		t.Fatalf("Apply before crash round: %v", err)
	}
	copyDir(t, dir, dirAt1) // checkpoint state as of mutation epoch 1
	if _, err := sB.Apply(mut2); err == nil {
		t.Fatal("Apply across the crash round succeeded")
	}
	if sB.Err() == nil {
		t.Fatal("crashed epoch did not poison the session")
	}
	if _, err := sB.Apply(mut2); err == nil {
		t.Fatal("poisoned session accepted another Apply")
	}
	sB.Close()

	// Restore from the epoch-1 checkpoint with a plan rebuilt at that
	// mutation position, then replay the trailing log entries.
	cfgC := cfg
	cfgC.RestoreDir = dirAt1
	sC, err := Open(mkPlan(edges1), cfgC)
	if err != nil {
		t.Fatal(err)
	}
	defer sC.Close()
	if sC.MutEpoch() != 1 {
		t.Fatalf("restored MutEpoch = %d, want 1", sC.MutEpoch())
	}
	trailing := sB.Log().Since(sC.MutEpoch())
	if len(trailing) != 1 {
		t.Fatalf("trailing log entries = %d, want 1", len(trailing))
	}
	for _, e := range trailing {
		if _, err := sC.Apply(Mutation{Inserts: e.Mut.Inserts, Deletes: e.Mut.Deletes}); err != nil {
			t.Fatalf("replaying mutation epoch %d: %v", e.Epoch, err)
		}
	}
	p := sessionProgs[0]
	want := scratchFixpoint(t, p, n, edges2, true, cfg)
	expectSameFixpoint(t, "restored", sC.Result().Values, want, math.Inf(1), 1e-9)
}
