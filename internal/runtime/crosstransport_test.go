package runtime

import (
	"math"
	"sync"
	"testing"
	"time"

	"powerlog/internal/compiler"
	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/progs"
	"powerlog/internal/transport"
)

// runTCP executes plan on a freshly wired TCP cluster (everything in one
// process, one endpoint per "node") and returns the finished master and
// each worker's shard.
func runTCP(t *testing.T, newPlan func() *compiler.Plan, cfg Config, workers int) (*master, []map[int64]float64) {
	t.Helper()
	boot := make([]string, workers+1)
	for i := range boot {
		boot[i] = "127.0.0.1:0"
	}
	eps := make([]*transport.TCPConn, workers+1)
	for i := range eps {
		c, err := transport.NewTCPEndpoint(i, workers, boot)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = c
		defer c.Close()
	}
	addrs := make([]string, workers+1)
	for i, c := range eps {
		addrs[i] = c.Addr()
	}
	for _, c := range eps {
		c.SetAddressBook(addrs)
	}

	// Every plan is compiled before the first runs: newPlan may compile
	// over one graph, which a worker's first fixpoint sorts in place.
	plans := make([]*compiler.Plan, workers+1)
	for i := range plans {
		plans[i] = newPlan()
	}
	results := make([]map[int64]float64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			local, err := RunWorker(plans[i], cfg, eps[i])
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			results[i] = local
		}(i)
	}
	m, err := runMaster(plans[workers], cfg, eps[workers])
	if err != nil {
		t.Fatal(err)
	}
	if m.err != nil {
		t.Fatal(m.err)
	}
	wg.Wait()
	return m, results
}

// runOverTCP is runTCP for a run that must converge; it returns the
// merged result.
func runOverTCP(t *testing.T, newPlan func() *compiler.Plan, cfg Config, workers int) map[int64]float64 {
	t.Helper()
	m, results := runTCP(t, newPlan, cfg, workers)
	if !m.converged || m.rounds == 0 {
		t.Fatalf("TCP run: converged=%v rounds=%d (stop cause: %v)", m.converged, m.rounds, m.cause)
	}
	merged := map[int64]float64{}
	for _, local := range results {
		for k, v := range local {
			merged[k] = v
		}
	}
	return merged
}

// TestMaxWallAbortReturns: a wall-clock abort that lands while a worker's
// send queue is full must end the run. The peer leaves its run loop on
// Stop and no longer drains its inbox, so a sender that waited for room —
// the compute goroutine in enqueue, the comm goroutine in its TrySend
// back-off — waited for ever, and Run never returned: no Converged=false,
// no StopCause. Every such wait now reads worker.stopping.
func TestMaxWallAbortReturns(t *testing.T) {
	defer func(n int) { outQueueLen = n }(outQueueLen)
	outQueueLen = 1
	g := gen.RMAT(12, 40000, 0, 5)
	newPlan := func() *compiler.Plan {
		db := edb.NewDB()
		db.SetGraph("edge", g)
		return compilePlan(t, progs.PageRank, db)
	}
	// A priority threshold makes every update urgent: one message per KV,
	// so the first pass alone overruns the stopped peer's inbox.
	cfg := Config{Workers: 2, MaxWall: time.Millisecond, PriorityThreshold: 1e-7}
	reps := 50
	if testing.Short() {
		reps = 10
	}
	for _, tr := range []struct {
		name string
		run  func() (converged bool, cause StopCause)
	}{
		{"channel", func() (bool, StopCause) {
			res, err := Run(newPlan(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.Converged, res.StopCause
		}},
		{"tcp", func() (bool, StopCause) {
			m, _ := runTCP(t, newPlan, cfg, cfg.Workers)
			return m.converged, m.cause
		}},
	} {
		t.Run(tr.name, func(t *testing.T) {
			for i := 0; i < reps; i++ {
				start := time.Now()
				converged, cause := tr.run()
				if converged || cause != StopWall {
					t.Fatalf("run %d: converged=%v cause=%v, want an abort on the wall clock", i, converged, cause)
				}
				if d := time.Since(start); d > 2*time.Second {
					t.Fatalf("run %d: returned after %v, want under 2s", i, d)
				}
			}
		})
	}
}

// TestCrossTransportEquivalence runs the same program once over the
// in-process channel network and once over TCP (binary codec, pooled
// batches crossing a real wire) and demands the same answer — once for a
// fixpoint program (SSSP/min) and once for an ε-limit program
// (PageRank/sum), each under the BSP barrier (MRA and naive supersteps)
// and the unified mode's polling master. This pins the codec and the
// recycle contract to the engine's actual semantics, not just
// message-level round-trips.
func TestCrossTransportEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog string
		g    *graph.Graph
		// Both runs of an ε-limit program chase the same limit; they stop
		// at slightly different partial sums, so compare to ε order.
		tol float64
	}{
		{"fixpoint/SSSP", progs.SSSP, gen.Uniform(250, 1500, 40, 23), 1e-9},
		{"epsilon/PageRank", progs.PageRank, gen.RMAT(8, 1200, 0, 17), 1e-3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newPlan := func() *compiler.Plan {
				db := edb.NewDB()
				db.SetGraph("edge", tc.g)
				return compilePlan(t, tc.prog, db)
			}
			for _, mode := range []Mode{MRASync, NaiveSync, MRASyncAsync} {
				t.Run(mode.String(), func(t *testing.T) {
					cfg := Config{
						Mode:          mode,
						Tau:           300 * time.Microsecond,
						CheckInterval: 500 * time.Microsecond,
						MaxWall:       30 * time.Second,
					}
					chanCfg := cfg
					chanCfg.Workers = 3
					chanRes, err := Run(newPlan(), chanCfg)
					if err != nil {
						t.Fatal(err)
					}
					if !chanRes.Converged {
						t.Fatalf("channel run did not converge (stop cause: %v)", chanRes.StopCause)
					}
					compareResults(t, chanRes.Values, runOverTCP(t, newPlan, cfg, 3), tc.tol)
				})
			}
		})
	}
}

// compareResults checks the two transports produced the same keys and
// values to within tol (relative for large values).
func compareResults(t *testing.T, a, b map[int64]float64, tol float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Errorf("result sizes differ: channel %d keys, tcp %d keys", len(a), len(b))
	}
	errs := 0
	for k, av := range a {
		bv, ok := b[k]
		if !ok {
			errs++
			if errs <= 5 {
				t.Errorf("key %d present on channel, absent on tcp", k)
			}
			continue
		}
		scale := math.Max(1, math.Abs(av))
		if math.Abs(av-bv) > tol*scale {
			errs++
			if errs <= 5 {
				t.Errorf("key %d: channel %v, tcp %v", k, av, bv)
			}
		}
	}
	if errs > 0 {
		t.Fatalf("%d cross-transport mismatches", errs)
	}
}
