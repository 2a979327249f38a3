// Package metrics is PowerLog's lock-free, allocation-free runtime
// telemetry core. The policy layers (FlushPolicy / Scheduler /
// BarrierPolicy), the transport, and the master register named counters,
// gauges, and histograms into a Registry; the hot paths then write
// through pre-resolved pointers with single atomic operations — no map
// lookups, no locks, no allocations — and a Snapshot can be taken at any
// time, including concurrently with writers.
//
// Design constraints, in order:
//
//  1. The write path must be safe under the race detector and the
//     repo's atomicmix analyzer: every word is touched exclusively
//     through sync/atomic method receivers.
//  2. The write path must not allocate (the runtime's message path is
//     zero-allocation; telemetry must not be the regression).
//  3. Counters owned by one goroutine must not false-share with their
//     neighbours, so Counter and Gauge are padded to a cache line.
//  4. Snapshots are approximate-consistent: each value is read
//     atomically, but the set of values is not a cut. That is the right
//     trade for telemetry — a consistent cut would need a lock on the
//     write path.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
)

// cacheLine is the padding target for per-goroutine hot words. 64 bytes
// covers x86-64 and most arm64 parts; adjacent-line prefetchers are
// deliberately not padded against (128B doubles the footprint for a
// second-order effect).
const cacheLine = 64

// Counter is a monotonically increasing event counter, padded so two
// counters registered back-to-back never share a cache line.
type Counter struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a last-written float64 value (e.g. the current mean β).
type Gauge struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// Set stores x.
func (g *Gauge) Set(x float64) { g.v.Store(math.Float64bits(x)) }

// Load returns the last stored value (0 before any Set).
func (g *Gauge) Load() float64 { return math.Float64frombits(g.v.Load()) }

// histBuckets is the fixed bucket count of the log2 histogram: bucket i
// holds observations v with bits.Len64(v) == i, i.e. bucket 0 is exactly
// v == 0 and bucket i ≥ 1 covers [2^(i-1), 2^i). 65 buckets span the
// whole uint64 range, so Observe never branches on range.
const histBuckets = 65

// Histogram is a fixed-bucket log2 histogram of uint64 observations
// (batch sizes, microsecond waits). Observe is one predictable index
// computation plus three atomic adds; there is nothing to resize, so
// writers never coordinate. Buckets are not individually padded: a
// histogram is written by one goroutine in this runtime, and padding 65
// words would cost 4 KiB each.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Snapshot copies the histogram's current state (each word read
// atomically; the set of words is approximate-consistent, see the
// package comment).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram.
type HistSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [histBuckets]uint64
}

// Mean returns Sum/Count (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the
// inclusive upper edge of the bucket where the cumulative count crosses
// q·Count. Log2 buckets make it exact to within a factor of two — the
// right precision for "are flushes ~256 or ~4096 KVs" questions.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	target := q * float64(s.Count)
	cum := uint64(0)
	for i, b := range s.Buckets {
		cum += b
		if float64(cum) >= target {
			if i == 0 {
				return 0
			}
			if i >= 64 {
				return math.MaxUint64
			}
			return float64(uint64(1)<<uint(i)) - 1
		}
	}
	return math.MaxUint64
}

// Merge returns the bucket-wise sum of two snapshots (for aggregating
// per-worker or per-destination histograms).
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	return s
}

// String renders the snapshot compactly for text dumps.
func (s HistSnapshot) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50≤%.0f p99≤%.0f",
		s.Count, s.Mean(), s.Quantile(0.5), s.Quantile(0.99))
}

// Registry is a named set of metrics. Registration (Counter / Gauge /
// Histogram) takes a mutex and may allocate; it happens at setup time.
// The returned pointers are the hot-path handles. Snapshot may run
// concurrently with writers.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the counter registered under name, creating it on
// first use. Callers keep the pointer; the name exists for snapshots.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot copies every registered metric's current value. Safe to call
// while writers are running (each word is read atomically).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Snapshot is a point-in-time copy of a Registry (or a merge of
// several). The zero value is usable as a merge seed.
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]float64
	Histograms map[string]HistSnapshot
}

// Counter returns the named counter's value (0 when absent), so callers
// need not nil-check the map.
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// MergeHistograms returns the bucket-wise merge of every histogram whose
// name starts with prefix (e.g. all "flush.size.dst" destinations).
func (s Snapshot) MergeHistograms(prefix string) HistSnapshot {
	var out HistSnapshot
	for name, h := range s.Histograms {
		if strings.HasPrefix(name, prefix) {
			out = out.Merge(h)
		}
	}
	return out
}

// Merge returns the union of two snapshots: counters summed, histograms
// bucket-wise summed, gauges kept at the maximum (a gauge is a level,
// not a flow, so summing per-worker gauges would be meaningless).
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)+len(o.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)+len(o.Gauges)),
		Histograms: make(map[string]HistSnapshot, len(s.Histograms)+len(o.Histograms)),
	}
	for k, v := range s.Counters {
		out.Counters[k] = v
	}
	for k, v := range o.Counters {
		out.Counters[k] += v
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range o.Gauges {
		if v > out.Gauges[k] {
			out.Gauges[k] = v
		}
	}
	for k, v := range s.Histograms {
		out.Histograms[k] = v
	}
	for k, v := range o.Histograms {
		out.Histograms[k] = out.Histograms[k].Merge(v)
	}
	return out
}
