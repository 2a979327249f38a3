package runtime

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"powerlog/internal/compiler"
	"powerlog/internal/edb"
	"powerlog/internal/fault"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/progs"
	"powerlog/internal/ref"
	"powerlog/internal/transport"
)

// The chaos suite replays the oracle algorithm suite under injected
// faults and asserts every run still converges to the fault-free
// fixpoint. Fault specs are fixed-seed (fault decisions are a pure
// function of seed, site, link, and event index — fault package), so a
// failure reproduces from the spec string in the test name.

// chaosModes are the evaluation modes the chaos matrix exercises: one
// BSP mode (superstep fences), the unified async default, and
// SSP (staleness gate) — one representative per synchronisation family.
var chaosModes = []Mode{MRASync, MRASyncAsync, MRASSP}

type chaosAlgo struct {
	name      string
	selective bool // drives which fault classes are sound (dup needs idempotent folds)
	short     bool // part of the -short subset
	src       string
	setup     func(db *edb.DB)
	check     func(t *testing.T, mode Mode, got map[int64]float64)
}

// chaosAlgos mirrors the 12-algorithm oracle suite on smaller fixtures
// (the matrix multiplies by modes and fault classes).
func chaosAlgos() []chaosAlgo {
	algos := make([]chaosAlgo, 0, 12)
	add := func(a chaosAlgo) { algos = append(algos, a) }

	{
		g := gen.Uniform(200, 1200, 50, 11)
		want := ref.Dijkstra(g, 0)
		add(chaosAlgo{
			name: "sssp", selective: true, short: true, src: progs.SSSP,
			setup: func(db *edb.DB) { db.SetGraph("edge", g) },
			check: func(t *testing.T, mode Mode, got map[int64]float64) {
				expectClose(t, mode, got, want, math.Inf(1), 1e-9)
			},
		})
	}
	{
		g := gen.RMAT(8, 1000, 0, 13)
		want := ref.MinLabelPropagation(g)
		add(chaosAlgo{
			name: "cc", selective: true, short: true, src: progs.CC,
			setup: func(db *edb.DB) { db.SetGraph("edge", g) },
			check: func(t *testing.T, mode Mode, got map[int64]float64) {
				expectClose(t, mode, got, want, math.Inf(1), 0)
			},
		})
	}
	{
		g := gen.RMAT(7, 600, 0, 17)
		want := ref.PageRank(g, 500, 1e-9)
		add(chaosAlgo{
			name: "pagerank", short: true, src: progs.PageRank,
			setup: func(db *edb.DB) { db.SetGraph("edge", g) },
			check: func(t *testing.T, mode Mode, got map[int64]float64) {
				expectClose(t, mode, got, want, math.NaN(), 5e-3)
			},
		})
	}
	{
		g := gen.Uniform(150, 750, 0, 19)
		want := ref.Katz(g, 0, 10000, 500, 1e-9)
		add(chaosAlgo{
			name: "katz", src: progs.Katz,
			setup: func(db *edb.DB) { db.SetGraph("edge", g) },
			check: func(t *testing.T, mode Mode, got map[int64]float64) {
				for v, w := range want {
					if w == 0 {
						continue
					}
					if math.Abs(got[int64(v)]-w) > 1e-2*math.Max(1, math.Abs(w)) {
						t.Fatalf("%v: katz[%d] = %v, want %v", mode, v, got[int64(v)], w)
					}
				}
			},
		})
	}
	{
		g := gen.Uniform(120, 720, 1, 23)
		gen.NormalizeWeightsByOut(g, 1)
		n := g.NumVertices()
		pi := gen.VertexAttr(n, 0.1, 0.5, 41)
		pc := gen.VertexAttr(n, 0.2, 0.8, 42)
		inj := make([]float64, n)
		for i := range inj {
			inj[i] = 1
		}
		want := ref.Adsorption(g, inj, pi, pc, 800, 1e-10)
		add(chaosAlgo{
			name: "adsorption", src: progs.Adsorption,
			setup: func(db *edb.DB) {
				db.SetGraph("A", g)
				piRel := edb.NewRelation("pi", 2)
				pcRel := edb.NewRelation("pc", 2)
				for v := 0; v < n; v++ {
					piRel.Add(float64(v), pi[v])
					pcRel.Add(float64(v), pc[v])
				}
				db.AddRelation(piRel)
				db.AddRelation(pcRel)
			},
			check: func(t *testing.T, mode Mode, got map[int64]float64) {
				expectClose(t, mode, got, want, math.NaN(), 5e-3)
			},
		})
	}
	{
		g := gen.Uniform(120, 720, 1, 29)
		gen.NormalizeWeightsByOut(g, 1)
		n := g.NumVertices()
		initial := gen.VertexAttr(n, 0.1, 1, 51)
		h := gen.VertexAttr(n, 0.2, 0.9, 52)
		want := ref.BeliefPropagation(g, initial, h, 800, 1e-10)
		add(chaosAlgo{
			name: "bp", src: progs.BP,
			setup: func(db *edb.DB) {
				db.SetGraph("E", g)
				iRel := edb.NewRelation("I", 2)
				hRel := edb.NewRelation("H", 2)
				for v := 0; v < n; v++ {
					iRel.Add(float64(v), initial[v])
					hRel.Add(float64(v), h[v])
				}
				db.AddRelation(iRel)
				db.AddRelation(hRel)
			},
			check: func(t *testing.T, mode Mode, got map[int64]float64) {
				expectClose(t, mode, got, want, math.NaN(), 5e-3)
			},
		})
	}
	{
		g := gen.DAG(200, 2.5, 30, 0, 31)
		want := ref.DAGPathCount(g, 0)
		add(chaosAlgo{
			name: "paths", src: progs.PathsDAG,
			setup: func(db *edb.DB) { db.SetGraph("dagedge", g) },
			check: func(t *testing.T, mode Mode, got map[int64]float64) {
				expectClose(t, mode, got, want, 0, 1e-9)
			},
		})
	}
	{
		g := gen.DAG(150, 2, 20, 10, 37)
		want := ref.DAGPathWeightSum(g)
		add(chaosAlgo{
			name: "cost", src: progs.Cost,
			setup: func(db *edb.DB) { db.SetGraph("dagedge", g) },
			check: func(t *testing.T, mode Mode, got map[int64]float64) {
				for v, w := range want {
					if w == 0 {
						continue
					}
					if math.Abs(got[int64(v)]-w) > 1e-6*math.Max(1, math.Abs(w)) {
						t.Fatalf("%v: cost[%d] = %v, want %v", mode, v, got[int64(v)], w)
					}
				}
			},
		})
	}
	{
		g := gen.Trellis(10, 5, 43)
		want := ref.ViterbiDP(g, 0)
		add(chaosAlgo{
			name: "viterbi", selective: true, short: true, src: progs.Viterbi,
			setup: func(db *edb.DB) { db.SetGraph("trans", g) },
			check: func(t *testing.T, mode Mode, got map[int64]float64) {
				expectClose(t, mode, got, want, 0, 1e-9)
			},
		})
	}
	{
		g := gen.Uniform(150, 600, 0, 47)
		want := ref.BFSDepth(g, 5)
		add(chaosAlgo{
			name: "lca", selective: true, src: progs.LCA,
			setup: func(db *edb.DB) { db.SetGraph("parent", g) },
			check: func(t *testing.T, mode Mode, got map[int64]float64) {
				expectClose(t, mode, got, want, math.Inf(1), 1e-9)
			},
		})
	}
	{
		g := gen.Uniform(40, 260, 20, 53)
		want := ref.FloydWarshall(g)
		add(chaosAlgo{
			name: "apsp", selective: true, src: progs.APSP,
			setup: func(db *edb.DB) { db.SetGraph("edge", g) },
			check: func(t *testing.T, mode Mode, got map[int64]float64) {
				for i := range want {
					for j := range want[i] {
						w := want[i][j]
						key := compiler.EncodePair(int64(i), int64(j))
						gv, ok := got[key]
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
			},
		})
	}
	{
		g := gen.Uniform(150, 900, 1, 59)
		gen.NormalizeWeightsByOut(g, 1)
		c := make([]float64, g.NumVertices())
		c[0] = 1
		want := ref.LinearLimit(g, func(src, e int32) float64 { return 0.8 * g.Weight(e) }, c, 800, 1e-10)
		add(chaosAlgo{
			name: "simrank", src: progs.SimRank,
			setup: func(db *edb.DB) { db.SetGraph("pairedge", g) },
			check: func(t *testing.T, mode Mode, got map[int64]float64) {
				expectClose(t, mode, got, want, 0, 5e-3)
			},
		})
	}
	return algos
}

// chaosClass is one fault class of the matrix.
type chaosClass struct {
	name, spec string
}

// chaosClasses are the fault classes of the matrix. Duplicate delivery
// is injected only for selective aggregates — their folds are idempotent
// (Theorem 3's replay tolerance), while a duplicated sum delta would
// genuinely change a combining result, so there is nothing to recover.
// It runs under every chaos mode: per-link sequence numbers let the
// receiver count each batch exactly once (worker.go), so the polling
// master's quiescence test (Σsent == Σrecv) stays sound even when the
// wire re-delivers.
func chaosClasses(selective bool) []chaosClass {
	classes := []chaosClass{
		{name: "stall", spec: "seed=1,stall=4:300us"},
		{name: "dropend", spec: "seed=2,dropend=0.25"},
		{name: "flaky", spec: "seed=3,sendfail=0.15,delay=0.1:100us"},
		{name: "partition", spec: "seed=4,partition=0-1:20:120"},
		{name: "mrestart", spec: "seed=5,mrestart=3"},
	}
	if selective {
		classes = append(classes, chaosClass{name: "dup", spec: "seed=6,sendfail=0.1,dup=0.2"})
	}
	return classes
}

// chaosRun is runMode plus a fault spec and optional config tweaks.
func chaosRun(t *testing.T, plan *compiler.Plan, mode Mode, spec string, tweak func(*Config)) (*Result, error) {
	t.Helper()
	fs, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatalf("spec %q: %v", spec, err)
	}
	cfg := Config{
		Workers:       4,
		Mode:          mode,
		Tau:           200 * time.Microsecond,
		CheckInterval: 300 * time.Microsecond,
		MaxWall:       30 * time.Second,
		Fault:         fault.New(fs),
	}
	if tweak != nil {
		tweak(&cfg)
	}
	return Run(plan, cfg)
}

// TestChaosMatrix: every algorithm x every mode x every fault class must
// converge to the fault-free fixpoint. -short runs a 4-algorithm subset.
func TestChaosMatrix(t *testing.T) {
	for _, algo := range chaosAlgos() {
		if testing.Short() && !algo.short {
			continue
		}
		for _, mode := range chaosModes {
			for _, class := range chaosClasses(algo.selective) {
				t.Run(fmt.Sprintf("%s/%v/%s", algo.name, mode, class.name), func(t *testing.T) {
					db := edb.NewDB()
					algo.setup(db)
					plan := compilePlan(t, algo.src, db)
					res, err := chaosRun(t, plan, mode, class.spec, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Converged {
						t.Fatalf("did not converge under %q (rounds=%d)", class.spec, res.Rounds)
					}
					algo.check(t, mode, res.Values)
				})
			}
		}
	}
}

// TestChaosNaiveSync: Naive+Sync, which chaosModes leaves out, reports a
// superstep on a FenceAck to its peers sent at the cut rather than on its
// mark. A lost or late mark must still heal by resend and every worker
// still judge each superstep with the fleet's reports.
func TestChaosNaiveSync(t *testing.T) {
	for _, algo := range chaosAlgos() {
		if algo.name != "pagerank" {
			continue
		}
		for _, class := range chaosClasses(false)[1:3] { // dropend, flaky
			t.Run(class.name, func(t *testing.T) {
				db := edb.NewDB()
				algo.setup(db)
				res, err := chaosRun(t, compilePlan(t, algo.src, db), NaiveSync, class.spec, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatalf("did not converge under %q (rounds=%d)", class.spec, res.Rounds)
				}
				algo.check(t, NaiveSync, res.Values)
			})
		}
	}
}

// TestChaosCrashPoisonsSession is a master crash inside an Apply in
// every chaos mode, on one selective algorithm (SSSP) and one combining
// algorithm (PageRank). The Apply across the crash round fails; the
// error is sticky, so the next Apply returns it without applying its
// batch or running an epoch; Result still answers; and Close returns.
func TestChaosCrashPoisonsSession(t *testing.T) {
	for _, p := range []sessionProg{sessionProgs[0], sessionProgs[2]} { // SSSP, PageRank
		for _, mode := range chaosModes {
			t.Run(fmt.Sprintf("%s/%v", strings.ToLower(p.name), mode), func(t *testing.T) {
				g := p.g()
				r := rand.New(rand.NewSource(7))
				mut1, edges1 := randMutation(r, append([]graph.Edge(nil), g.Edges()...), g.NumVertices(), 6, 6, p.dag, p.insW)
				mut2, _ := randMutation(r, edges1, g.NumVertices(), 6, 6, p.dag, p.insW)
				cfg := sessCfg(mode)
				cfg.Fault = fault.New(fault.Spec{Seed: 7, CrashEpoch: 2, CrashRound: 1})
				s, err := Open(compilePlan(t, p.src, p.db(g)), cfg)
				if err != nil {
					t.Fatal(err)
				}
				_, crashErr := s.Apply(mut1)
				if crashErr == nil {
					s.Close()
					t.Fatal("Apply across the crash round succeeded")
				}
				epoch, mutEpoch := s.Epoch(), s.MutEpoch()
				if _, err := s.Apply(mut2); err != crashErr {
					t.Errorf("Apply after the crash: err = %v, want the sticky %v", err, crashErr)
				}
				if s.Epoch() != epoch || s.MutEpoch() != mutEpoch {
					t.Errorf("Apply after the crash ran: Epoch %d → %d, MutEpoch %d → %d", epoch, s.Epoch(), mutEpoch, s.MutEpoch())
				}
				if res := s.Result(); res == nil || len(res.Values) == 0 {
					t.Errorf("Result after the crash = %v, want the crashed epoch's values", res)
				}
				closed := make(chan error, 1)
				go func() { closed <- s.Close() }()
				select {
				case <-closed:
				case <-time.After(cfg.MaxWall):
					t.Fatal("Close of the poisoned session did not return")
				}
			})
		}
	}
}

// TestMasterDetectsLostWorker kills a worker before it ever reports and
// requires RunMaster — the liveness rule with no Session to re-join into
// — to surface ErrWorkerLost within the collect deadline and its probe
// instead of hanging until MaxWall, in every mode. One live responder
// keeps the protocol moving so the timeout isolates the dead peer, not a
// stalled fleet: worker 0 answers every StatsRequest with a dirty report
// and, under MRA+Sync, reports a dirty first superstep; worker 1 stays
// silent. A naive worker acks a superstep only once it holds every peer's
// data, so under Naive+Sync no ack arrives and only the probe can tell
// the dead slot from the live one.
func TestMasterDetectsLostWorker(t *testing.T) {
	g := gen.Uniform(100, 600, 10, 91)
	db := edb.NewDB()
	db.SetGraph("edge", g)
	plan := compilePlan(t, progs.SSSP, db)
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			net := transport.NewChannelNetwork(2, 64)
			defer net.Close()
			responder := net.Conn(0)
			masterConn := net.Conn(transport.MasterID(2))
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				if modeBarriered[mode] && mode.MRA() {
					_ = responder.Send(transport.MasterID(2), transport.Message{Kind: transport.FenceAck,
						Fence: transport.FenceStep, Round: 1, Stats: transport.Stats{Dirty: true, AccDelta: 1}})
				}
				for {
					var m transport.Message
					var ok bool
					select {
					case m, ok = <-responder.Inbox():
					case <-stop:
						return
					}
					if !ok {
						return
					}
					switch m.Kind {
					case transport.StatsRequest:
						_ = responder.Send(transport.MasterID(2), transport.Message{
							Kind: transport.StatsReply, Round: m.Round,
							Stats: transport.Stats{Dirty: true, Sent: 1},
						})
					case transport.Stop:
						return
					default:
						// The fake worker only speaks the stats protocol;
						// everything else is dropped on the floor.
					}
				}
			}()
			cfg := Config{
				Mode:           mode,
				CheckInterval:  300 * time.Microsecond,
				CollectTimeout: 400 * time.Millisecond,
				MaxWall:        30 * time.Second,
			}
			start := time.Now()
			_, _, err := RunMaster(plan, cfg, masterConn)
			elapsed := time.Since(start)
			if !errors.Is(err, ErrWorkerLost) {
				t.Fatalf("master returned %v, want ErrWorkerLost", err)
			}
			if elapsed > 10*time.Second {
				t.Fatalf("detection took %v — the collect deadline (400ms) and the probe did not bound the wait", elapsed)
			}
		})
	}
}

// failingConn always fails Send — the worker's comm loop must exhaust
// its retries and surface the error through RunWorker rather than
// swallowing it and computing into a dead network.
type failingConn struct {
	inbox chan transport.Message
}

func (c *failingConn) ID() int      { return 0 }
func (c *failingConn) Workers() int { return 2 }
func (c *failingConn) Send(to int, m transport.Message) error {
	return fmt.Errorf("wire down to %d", to)
}
func (c *failingConn) Inbox() <-chan transport.Message { return c.inbox }
func (c *failingConn) Close() error                    { return nil }

func TestWorkerSurfacesSendErrors(t *testing.T) {
	g := gen.Uniform(100, 600, 10, 91)
	db := edb.NewDB()
	db.SetGraph("edge", g)
	plan := compilePlan(t, progs.SSSP, db)
	conn := &failingConn{inbox: make(chan transport.Message)}
	done := make(chan error, 1)
	go func() {
		_, err := RunWorker(plan, Config{Mode: MRASyncAsync, MaxWall: 10 * time.Second}, conn)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "send failed") {
			t.Fatalf("worker must surface the dead send path, got %v", err)
		}
		if !strings.Contains(err.Error(), "wire down") {
			t.Fatalf("underlying transport error lost: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("worker hung on a dead send path instead of surfacing the error")
	}
}

// scriptedConn fails its first fails Sends, each with its call number,
// then records what it delivers.
type scriptedConn struct {
	failingConn
	fails, calls int
	got          []transport.Message
}

func (c *scriptedConn) Send(to int, m transport.Message) error {
	if c.calls++; c.calls <= c.fails {
		return fmt.Errorf("scripted failure %d", c.calls)
	}
	c.got = append(c.got, m)
	return nil
}

// TestSendRetrying pins the one retry loop of a failed Send: a bounded
// number of calls, the last error, no call once the sender is stopped,
// and a failed batch left with its caller.
func TestSendRetrying(t *testing.T) {
	never := func() bool { return false }
	for k := 0; k <= sendAttempts+1; k++ {
		c := &scriptedConn{fails: k}
		err := sendRetrying(c, 1, transport.Message{Kind: transport.StatsReply}, never)
		switch {
		case k < sendAttempts && (err != nil || c.calls != k+1 || len(c.got) != 1):
			t.Errorf("k=%d: err=%v after %d calls, %d delivered; want delivery after %d calls", k, err, c.calls, len(c.got), k+1)
		case k >= sendAttempts && (err == nil || c.calls != sendAttempts ||
			err.Error() != fmt.Sprintf("scripted failure %d", sendAttempts)):
			t.Errorf("k=%d: err=%v after %d calls; want the last error after %d calls", k, err, c.calls, sendAttempts)
		}
	}

	c := &scriptedConn{fails: 100}
	if err := sendRetrying(c, 1, transport.Message{Kind: transport.StatsReply},
		func() bool { return c.calls > 0 }); err == nil || c.calls != 1 {
		t.Errorf("stopped sender: err=%v after %d calls, want an error after 1", err, c.calls)
	}

	kvs := append(transport.GetBatch(2), transport.KV{K: 3, V: 1.5}, transport.KV{K: 8, V: -2})
	c = &scriptedConn{fails: 100}
	if err := sendRetrying(c, 1, transport.Message{Kind: transport.Data, KVs: kvs}, never); err == nil {
		t.Fatal("a send that always fails must return its error")
	}
	if len(kvs) != 2 || kvs[0] != (transport.KV{K: 3, V: 1.5}) || kvs[1] != (transport.KV{K: 8, V: -2}) {
		t.Errorf("failed send touched the caller's batch: %+v", kvs)
	}
	transport.PutBatch(kvs)

	// The master's sends on a conn without TrySend (TCP) go through the
	// same loop.
	c = &scriptedConn{fails: 2}
	m := newMaster(Config{Workers: 2}, nil, c)
	m.sendTo(1, transport.Message{Kind: transport.Stop})
	if c.calls != 3 || len(c.got) != 1 || c.got[0].Kind != transport.Stop {
		t.Errorf("master sendTo: %d calls, delivered %+v; want one Stop on the third call", c.calls, c.got)
	}
}

// TestDedupWindow pins the delivered-once filter behind dup-tolerant
// termination: exact under FIFO redelivery, adversarial reordering, and
// both at once — and allocation-free on the fault-free in-order path.
func TestDedupWindow(t *testing.T) {
	cases := []struct {
		name string
		seqs []int64
		want []bool
	}{
		{"in-order", []int64{1, 2, 3, 4}, []bool{true, true, true, true}},
		{"fifo-redelivery", []int64{1, 1, 2, 2, 3}, []bool{true, false, true, false, true}},
		{"reordered", []int64{2, 1, 4, 3}, []bool{true, true, true, true}},
		{"reordered-dup", []int64{2, 1, 2, 1, 3}, []bool{true, true, false, false, true}},
		{"gap-then-fill", []int64{1, 3, 5, 2, 4, 5}, []bool{true, true, true, true, true, false}},
	}
	for _, tc := range cases {
		var d dedupWindow
		for i, seq := range tc.seqs {
			if got := d.fresh(seq); got != tc.want[i] {
				t.Errorf("%s: fresh(%d) at step %d = %v, want %v", tc.name, seq, i, got, tc.want[i])
			}
		}
		if len(cases[0].seqs) > 0 && tc.name == "gap-then-fill" && len(d.pending) != 0 {
			t.Errorf("%s: window retained %d pending entries after closing the gaps", tc.name, len(d.pending))
		}
	}
	var d dedupWindow
	d.fresh(1)
	if allocs := testing.AllocsPerRun(1000, func() {
		d.fresh(d.next)
	}); allocs != 0 {
		t.Errorf("in-order fresh allocates %v/op, want 0", allocs)
	}
}
