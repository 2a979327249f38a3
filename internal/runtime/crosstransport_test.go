package runtime

import (
	"math"
	"sync"
	"testing"
	"time"

	"powerlog/internal/compiler"
	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/progs"
	"powerlog/internal/transport"
)

// runOverTCP executes plan on a freshly wired TCP cluster (everything in
// one process, one endpoint per "node") and returns the merged result.
func runOverTCP(t *testing.T, newPlan func() *compiler.Plan, cfg Config, workers int) map[int64]float64 {
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

	results := make([]map[int64]float64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			local, err := RunWorker(newPlan(), cfg, eps[i])
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			results[i] = local
		}(i)
	}
	m, err := runMaster(newPlan(), cfg, eps[workers])
	if err != nil {
		t.Fatal(err)
	}
	if m.err != nil {
		t.Fatal(m.err)
	}
	wg.Wait()
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

// TestCrossTransportEquivalence runs the same program once over the
// in-process channel network and once over TCP (binary codec, pooled
// batches crossing a real wire) and demands the same answer — once for a
// fixpoint program (SSSP/min) and once for an ε-limit program
// (PageRank/sum). This pins the codec and the recycle contract to the
// engine's actual semantics, not just message-level round-trips.
func TestCrossTransportEquivalence(t *testing.T) {
	cfg := Config{
		Mode:          MRASyncAsync,
		Tau:           300 * time.Microsecond,
		CheckInterval: 500 * time.Microsecond,
		MaxWall:       30 * time.Second,
	}

	t.Run("fixpoint/SSSP", func(t *testing.T) {
		g := gen.Uniform(250, 1500, 40, 23)
		newPlan := func() *compiler.Plan {
			db := edb.NewDB()
			db.SetGraph("edge", g)
			return compilePlan(t, progs.SSSP, db)
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
		tcpRes := runOverTCP(t, newPlan, cfg, 3)
		compareResults(t, chanRes.Values, tcpRes, 1e-9)
	})

	t.Run("epsilon/PageRank", func(t *testing.T) {
		g := gen.RMAT(8, 1200, 0, 17)
		newPlan := func() *compiler.Plan {
			db := edb.NewDB()
			db.SetGraph("edge", g)
			return compilePlan(t, progs.PageRank, db)
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
		tcpRes := runOverTCP(t, newPlan, cfg, 3)
		// Both runs chase the same limit under the program's ε; they stop
		// at slightly different partial sums, so compare to ε order.
		compareResults(t, chanRes.Values, tcpRes, 1e-3)
	})
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
