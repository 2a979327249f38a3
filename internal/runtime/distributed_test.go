package runtime

import (
	"math"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"powerlog/internal/agg"
	"powerlog/internal/compiler"
	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/monotable"
	"powerlog/internal/progs"
	"powerlog/internal/ref"
	"powerlog/internal/transport"
)

// TestDistributedTCP runs the full engine across TCP endpoints — the
// multi-process deployment path exercised in one process. Each "process"
// compiles its own plan from the same seeded dataset, as real cluster
// nodes would.
func TestDistributedTCP(t *testing.T) {
	const workers = 3
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

	newPlan := func() *compiler.Plan {
		g := gen.Uniform(300, 1800, 40, 91)
		db := edb.NewDB()
		db.SetGraph("edge", g)
		return compilePlan(t, progs.SSSP, db)
	}

	cfg := Config{
		Mode:          MRASyncAsync,
		Tau:           300 * time.Microsecond,
		CheckInterval: 500 * time.Microsecond,
		MaxWall:       30 * time.Second,
	}

	results := make([]map[int64]float64, workers)
	plans := make([]*compiler.Plan, workers)
	for i := range plans {
		plans[i] = newPlan() // each "process" compiles independently
	}
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
	rounds, converged, err := RunMaster(newPlan(), cfg, eps[workers])
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if !converged || rounds == 0 {
		t.Fatalf("converged=%v rounds=%d", converged, rounds)
	}

	merged := map[int64]float64{}
	for _, local := range results {
		for k, v := range local {
			merged[k] = v
		}
	}
	g := gen.Uniform(300, 1800, 40, 91)
	want := ref.Dijkstra(g, 0)
	expectClose(t, MRASyncAsync, merged, want, math.Inf(1), 1e-9)
}

func TestRunWorkerRejectsEmptyPlan(t *testing.T) {
	net := transport.NewChannelNetwork(1, 8)
	defer net.Close()
	if _, err := RunWorker(&compiler.Plan{}, Config{}, net.Conn(0)); err == nil {
		t.Fatal("uncompiled plan should be rejected")
	}
}

// TestWorkerRefusesForeignKey: a worker's block follows its plan's N, so
// two RunWorkers whose plans disagree on it route some keys to a worker
// that does not own them. The first worker to receive one refuses it and
// returns an error, rather than folding it into a wrong slot, and the
// fleet ends without converging. (Its peer may be stopped by the master
// before any foreign key reaches it.)
func TestWorkerRefusesForeignKey(t *testing.T) {
	const n = 300
	net := transport.NewChannelNetwork(2, 64)
	defer net.Close()
	cfg := Config{
		Mode: MRASync, Tau: time.Millisecond, CheckInterval: time.Millisecond,
		CollectTimeout: 250 * time.Millisecond, MaxWall: 10 * time.Second,
	}
	plans := []*compiler.Plan{
		compilePlan(t, progs.PageRank, edgeDB("edge")(gen.Uniform(n, 6*n, 0, 91))),
		compilePlan(t, progs.PageRank, edgeDB("edge")(gen.Uniform(n+5, 6*n, 0, 91))),
	}
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for i, plan := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = RunWorker(plan, cfg, net.Conn(i))
		}()
	}
	_, converged, err := RunMaster(plans[0], cfg, net.Conn(len(plans)))
	wg.Wait()
	if converged || err == nil {
		t.Errorf("master: converged %v, err %v; want a lost worker", converged, err)
	}
	refused := 0
	for _, err := range errs {
		if err != nil && strings.Contains(err.Error(), "plans disagree") {
			refused++
		}
	}
	if refused == 0 {
		t.Fatalf("workers returned %v; want a refusal of a key outside the receiver's block", errs)
	}
}

// TestRunWorkerResultSized: RunWorker's result map is made at the shard's
// row count, so building it from a 4 000-row shard allocates no more than
// filling a map made at its final size — a map grown from empty allocates
// about twice that on the way.
func TestRunWorkerResultSized(t *testing.T) {
	const rows = 4000
	d := monotable.NewDense(agg.ByKind(agg.Min), rows, 1, 0)
	for k := range int64(rows) {
		d.SetAcc(k, float64(k))
	}
	w := &worker{table: d}
	// allocated is the least TotalAlloc delta of five calls of f.
	allocated := func(f func() map[int64]float64) uint64 {
		var least uint64 = math.MaxUint64
		var before, after goruntime.MemStats
		for range 5 {
			goruntime.ReadMemStats(&before)
			m := f()
			goruntime.ReadMemStats(&after)
			if len(m) != rows {
				t.Fatalf("%d rows, want %d", len(m), rows)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	got := allocated(func() map[int64]float64 { return values([]*worker{w}, w.table.Len()) })
	want := allocated(func() map[int64]float64 {
		m := make(map[int64]float64, rows)
		d.Range(func(k int64, v float64) bool {
			m[k] = v
			return true
		})
		return m
	})
	if float64(got) > 1.25*float64(want) {
		t.Fatalf("building the result allocated %d bytes, a map made at its final size %d", got, want)
	}
}
