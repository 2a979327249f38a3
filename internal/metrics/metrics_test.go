package metrics

import (
	"math"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one counter from many goroutines; the
// total must be exact and the race detector must stay quiet.
func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hits")
	const (
		writers = 8
		perG    = 10000
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != writers*perG {
		t.Fatalf("counter = %d, want %d", got, writers*perG)
	}
	if got := reg.Snapshot().Counter("hits"); got != writers*perG {
		t.Fatalf("snapshot counter = %d, want %d", got, writers*perG)
	}
}

// TestHistogramConcurrent checks that concurrent observers land every
// observation in the right bucket and that count/sum stay exact.
func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("sizes")
	const (
		writers = 8
		perG    = 4096
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(uint64(g)) // g ∈ [0,8): buckets 0..4
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != writers*perG {
		t.Fatalf("count = %d, want %d", s.Count, writers*perG)
	}
	wantSum := uint64(0+1+2+3+4+5+6+7) * perG
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	// bits.Len64 bucketing: 0→0, 1→1, {2,3}→2, {4..7}→3.
	wantBuckets := map[int]uint64{0: perG, 1: perG, 2: 2 * perG, 3: 4 * perG}
	for i, want := range wantBuckets {
		if s.Buckets[i] != want {
			t.Fatalf("bucket[%d] = %d, want %d", i, s.Buckets[i], want)
		}
	}
}

// TestSnapshotDuringWrite takes snapshots while writers are mid-flight;
// every snapshot must be internally sane (count never exceeds the final
// total, histogram bucket sum equals its count) and the run must be
// race-clean.
func TestSnapshotDuringWrite(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	h := reg.Histogram("h")
	g := reg.Gauge("g")
	const total = 50000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			c.Inc()
			h.Observe(uint64(i % 1024))
			g.Set(float64(i))
		}
	}()
	for i := 0; i < 200; i++ {
		s := reg.Snapshot()
		if s.Counter("c") > total {
			t.Fatalf("snapshot counter %d exceeds total %d", s.Counter("c"), total)
		}
		hs := s.Histograms["h"]
		var bucketSum uint64
		for _, b := range hs.Buckets {
			bucketSum += b
		}
		// Observe bumps the bucket before the count, so a snapshot can
		// see at most a few more bucket entries than counted ones.
		if bucketSum < hs.Count {
			t.Fatalf("bucket sum %d < count %d", bucketSum, hs.Count)
		}
	}
	<-done
	if got := reg.Snapshot().Counter("c"); got != total {
		t.Fatalf("final counter = %d, want %d", got, total)
	}
}

// TestHotPathAllocs is the acceptance gate: the counter, gauge, and
// histogram write paths must not allocate.
func TestHotPathAllocs(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h")
	if n := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(3) }); n != 0 {
		t.Fatalf("Counter write path allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(1.5) }); n != 0 {
		t.Fatalf("Gauge write path allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(137) }); n != 0 {
		t.Fatalf("Histogram write path allocates %v per op", n)
	}
}

// TestRegistryIdempotent checks that re-registering a name returns the
// same hot-path handle.
func TestRegistryIdempotent(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("x") != reg.Counter("x") {
		t.Fatal("Counter not idempotent")
	}
	if reg.Gauge("x") != reg.Gauge("x") {
		t.Fatal("Gauge not idempotent")
	}
	if reg.Histogram("x") != reg.Histogram("x") {
		t.Fatal("Histogram not idempotent")
	}
}

func TestHistQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(10) // bucket 4: [8,16)
	}
	h.Observe(1000) // bucket 10: [512,1024)
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 15 {
		t.Fatalf("p50 = %v, want 15", got)
	}
	if got := s.Quantile(1.0); got != 1023 {
		t.Fatalf("p100 = %v, want 1023", got)
	}
	if got, want := s.Mean(), (100*10.0+1000)/101.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("mean = %v, want %v", got, want)
	}
	var empty HistSnapshot
	if empty.Quantile(0.9) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := NewRegistry()
	a.Counter("c").Add(3)
	a.Gauge("g").Set(1.0)
	a.Histogram("h").Observe(4)
	b := NewRegistry()
	b.Counter("c").Add(5)
	b.Counter("only.b").Inc()
	b.Gauge("g").Set(2.5)
	b.Histogram("h").Observe(4)

	m := a.Snapshot().Merge(b.Snapshot())
	if m.Counter("c") != 8 {
		t.Fatalf("merged counter = %d, want 8", m.Counter("c"))
	}
	if m.Counter("only.b") != 1 {
		t.Fatalf("merged only.b = %d, want 1", m.Counter("only.b"))
	}
	if m.Gauges["g"] != 2.5 {
		t.Fatalf("merged gauge = %v, want max 2.5", m.Gauges["g"])
	}
	if m.Histograms["h"].Count != 2 || m.Histograms["h"].Sum != 8 {
		t.Fatalf("merged hist = %+v, want count 2 sum 8", m.Histograms["h"])
	}
	// Zero value as a merge seed.
	var zero Snapshot
	m2 := zero.Merge(a.Snapshot())
	if m2.Counter("c") != 3 {
		t.Fatalf("zero-seed merge counter = %d, want 3", m2.Counter("c"))
	}
}

func TestMergeHistogramsByPrefix(t *testing.T) {
	r := NewRegistry()
	r.Histogram("flush.size.dst0").Observe(8)
	r.Histogram("flush.size.dst1").Observe(16)
	r.Histogram("other").Observe(99)
	s := r.Snapshot()
	m := s.MergeHistograms("flush.size.dst")
	if m.Count != 2 || m.Sum != 24 {
		t.Fatalf("prefix merge = %+v, want count 2 sum 24", m)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}
