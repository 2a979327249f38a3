package server

import (
	"fmt"
	"sync"

	"powerlog/internal/metrics"
	"powerlog/internal/runtime"
)

// pool keeps one parked Session per (dataset, algo|source, mode) key.
// The entry map only grows (keys are bounded by the catalogue × mode
// product); what turns over is each entry's session, swapped atomically
// when a fresh fixpoint replaces the cached one. Handlers grab the
// current session pointer under the entry lock and then drive it
// UNLOCKED — runtime.Session serializes its own public API and returns
// typed ErrSessionBusy/ErrSessionClosed rejections, which is exactly
// the back-pressure signal the handlers translate to HTTP. A handler
// may therefore race a swap and Apply to a just-closed session; it sees
// ErrSessionClosed, re-fetches the pointer once, and only then gives
// up.
type pool struct {
	mu      sync.Mutex
	entries map[string]*entry
	closed  bool
	pooled  *metrics.Gauge // serve.session.pooled mirror
}

// entry is one pooled dataset/program/mode slot.
type entry struct {
	key string

	mu   sync.Mutex
	s    *runtime.Session // nil until the first fresh fixpoint lands
	last *runtime.Result  // the Result swap installed; outlives the session closeAll drains
}

func newPool(pooled *metrics.Gauge) *pool {
	return &pool{entries: map[string]*entry{}, pooled: pooled}
}

func poolKey(dataset, algo, source string, mode runtime.Mode) string {
	if source != "" {
		// Custom programs pool by source text: two tenants submitting
		// byte-identical programs share a parked fixpoint.
		algo = fmt.Sprintf("custom-%x", hashString(source))
	}
	return dataset + "|" + algo + "|" + mode.String()
}

// hashString is FNV-1a, inlined to keep the key helper allocation-free.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// lookup returns the entry for key, or nil if no fixpoint has been
// computed for it yet.
func (p *pool) lookup(key string) *entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.entries[key]
}

// ensure returns the entry for key, creating an empty one if needed.
// It fails once the pool is closed (server draining).
func (p *pool) ensure(key string) (*entry, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, runtime.ErrSessionClosed
	}
	e := p.entries[key]
	if e == nil {
		e = &entry{key: key}
		p.entries[key] = e
	}
	return e, nil
}

// session returns the entry's current session (possibly nil) without
// claiming it.
func (e *entry) session() *runtime.Session {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.s
}

// result returns the last published fixpoint Result, surviving swaps.
func (e *entry) result() *runtime.Result {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.s != nil {
		if r := e.s.Result(); r != nil {
			return r
		}
	}
	return e.last
}

// swap installs a freshly opened session and returns the displaced one
// for the caller to Close OUTSIDE the entry lock (Close blocks until an
// in-flight Apply finishes, and nothing that holds e.mu may wait that
// long).
func (e *entry) swap(s *runtime.Session, res *runtime.Result) *runtime.Session {
	e.mu.Lock()
	old := e.s
	e.s = s
	e.last = res
	e.mu.Unlock()
	return old
}

// install is swap plus the pooled-gauge bookkeeping, rejecting the new
// session if the pool closed while it was being opened (the caller gets
// it back to Close).
func (p *pool) install(e *entry, s *runtime.Session, res *runtime.Result) (old *runtime.Session, err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, runtime.ErrSessionClosed
	}
	old = e.swap(s, res)
	p.pooled.Set(float64(p.liveLocked()))
	p.mu.Unlock()
	return old, nil
}

// liveLocked counts entries holding a session; callers hold p.mu.
func (p *pool) liveLocked() int {
	n := 0
	for _, e := range p.entries {
		if e.session() != nil {
			n++
		}
	}
	return n
}

// closeAll drains the pool: marks it closed (no new installs), detaches
// every session, and Closes them outside all locks. Returns the first
// close error.
func (p *pool) closeAll() error {
	p.mu.Lock()
	p.closed = true
	var victims []*runtime.Session
	for _, e := range p.entries {
		if old := e.swap(nil, e.result()); old != nil {
			victims = append(victims, old)
		}
	}
	p.pooled.Set(0)
	p.mu.Unlock()
	var first error
	for _, s := range victims {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// engineSnapshots merges, per entry, the master and worker metric
// snapshots of the last fixpoint — the engine-side half of /metrics.
func (p *pool) engineSnapshots() metrics.Snapshot {
	p.mu.Lock()
	entries := make([]*entry, 0, len(p.entries))
	for _, e := range p.entries {
		entries = append(entries, e)
	}
	p.mu.Unlock()
	var merged metrics.Snapshot
	for _, e := range entries {
		res := e.result()
		if res == nil {
			continue
		}
		merged = merged.Merge(res.Master)
		for _, ws := range res.Workers {
			merged = merged.Merge(ws.Metrics)
		}
	}
	return merged
}
