package runtime

import (
	"math"
	"testing"
	"time"

	"powerlog/internal/agg"
	"powerlog/internal/gen"
	"powerlog/internal/metrics"
	"powerlog/internal/monotable"
	"powerlog/internal/progs"
	"powerlog/internal/transport"
)

// ---------------------------------------------------------------------------
// Flush-decision equivalence: replay synthetic event traces against a
// literal transcription of the pre-refactor emitAsync/timedFlush mode
// switches and require the policy layer's published (limit, urgent) to
// make the same call at every event, as the worker evaluates it. This is
// the refactor's bit-for-bit preservation contract.
// ---------------------------------------------------------------------------

// oldFlushRef transcribes the former mode switches (the emitAsync switch,
// adaptBuffers, and adaptAAP) exactly as they appeared before the policy
// refactor. Deliberately duplicated here rather than shared: the point is
// an independent oracle.
type oldFlushRef struct {
	mode      Mode
	selective bool
	cfg       Config
	self      int

	beta       []float64
	winCount   []int64
	inWindow   int64
	outWindow  int64
	winStart   time.Time
	aapDelayed bool
}

func newOldFlushRef(mode Mode, selective bool, cfg Config, start time.Time) *oldFlushRef {
	r := &oldFlushRef{
		mode: mode, selective: selective, cfg: cfg,
		beta:     make([]float64, cfg.Workers),
		winCount: make([]int64, cfg.Workers),
		winStart: start,
	}
	for j := range r.beta {
		r.beta[j] = float64(betaInit)
	}
	return r
}

// emit reproduces the old emitAsync decision for a buffer holding bufLen
// entries after the delta v was folded in. Barrier modes used
// emitBuffered, which never flushed on emit. One rule departs from the
// transcription on purpose: the unified mode sent a selective buffer at
// 64 entries, and now never on emit — it goes out when the pass ends
// (passFlush).
func (r *oldFlushRef) emit(dst, bufLen int, v float64) bool {
	if r.mode == NaiveSync || r.mode == MRASync {
		return false
	}
	r.winCount[dst]++
	if t := r.cfg.PriorityThreshold; t > 0 && agg.Abs(v) >= 8*t {
		return true
	}
	switch {
	case r.mode == MRAAsync:
		return bufLen >= asyncEagerBatch
	case r.mode == MRAAAP:
		return !r.aapDelayed && bufLen >= betaInit
	case r.selective:
		return false
	default:
		return float64(bufLen) >= r.beta[dst]
	}
}

// tick reproduces the old timedFlush adaptation calls.
func (r *oldFlushRef) tick(now time.Time) {
	if r.mode == MRASyncAsync {
		r.adaptBuffers(now)
	}
	if r.mode == MRAAAP {
		r.adaptAAP(now)
	}
}

func (r *oldFlushRef) adaptBuffers(now time.Time) {
	dT := now.Sub(r.winStart)
	if dT < 4*r.cfg.Tau {
		return
	}
	tau := r.cfg.Tau.Seconds()
	dts := dT.Seconds()
	for j := range r.beta {
		if j == r.self {
			continue
		}
		rate := float64(r.winCount[j]) / dts
		hi := betaR * r.beta[j] / tau
		lo := r.beta[j] / (betaR * tau)
		if rate > hi || rate < lo {
			b := betaAlpha * tau * rate
			if lowest := float64(betaInit) / 4; b < lowest {
				b = lowest
			}
			if highest := float64(2 * betaInit); b > highest {
				b = highest
			}
			r.beta[j] = b
		}
		r.winCount[j] = 0
	}
	r.winStart = now
}

func (r *oldFlushRef) adaptAAP(now time.Time) {
	dT := now.Sub(r.winStart)
	if dT < 4*r.cfg.Tau {
		return
	}
	r.aapDelayed = r.inWindow > r.outWindow
	r.inWindow, r.outWindow = 0, 0
	r.winStart = now
}

// lcg is a deterministic trace generator (no math/rand so traces are
// stable across Go versions).
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g >> 16)
}

func TestFlushLimitMatchesOnEmit(t *testing.T) {
	cases := []struct {
		name      string
		mode      Mode
		kind      agg.Kind
		threshold float64
	}{
		{"naive-sync", NaiveSync, agg.Min, 0},
		{"mra-sync", MRASync, agg.Min, 0},
		{"mra-async-selective", MRAAsync, agg.Min, 0},
		{"mra-async-combining", MRAAsync, agg.Sum, 0},
		{"mra-async-priority", MRAAsync, agg.Sum, 0.5},
		{"aap", MRAAAP, agg.Sum, 0},
		{"aap-priority", MRAAAP, agg.Sum, 0.5},
		{"unified-selective", MRASyncAsync, agg.Min, 0},
		{"unified-adaptive", MRASyncAsync, agg.Sum, 0},
		{"unified-adaptive-priority", MRASyncAsync, agg.Sum, 0.25},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const nw, self = 4, 0
			cfg := Config{
				Workers:           nw,
				Mode:              tc.mode,
				PriorityThreshold: tc.threshold,
			}.withDefaults()
			// The policies read the plan's aggregate and, for a schedule,
			// its kernel: a compiled plan of the case's aggregate.
			src := progs.SSSP
			if tc.kind == agg.Sum {
				src = progs.PageRank
			}
			plan := compilePlan(t, src, edgeDB("edge")(gen.Uniform(16, 48, 10, 1)))
			ps := policiesFor(cfg, plan, self, metrics.NewRegistry())

			clock := time.Unix(1000, 0)
			ref := newOldFlushRef(tc.mode, plan.Op.Selective(), cfg, clock)
			win := window{start: clock, counts: make([]int64, nw)}
			simLen := make([]int, nw)

			// The trace must reach what the limit form could get wrong: a
			// β that is not a whole number, and AAP's switch both ways.
			fractional, delays := false, 0
			rng := lcg(42)
			values := []float64{0.001, 0.04, 0.9, 7.5, 120}
			for step := 0; step < 60000; step++ {
				r := rng.next()
				// Every other 10 000 steps are a burst — a tick per ≈ 1000
				// emits — which takes β off its floor.
				emit, inbound := uint64(820), uint64(920)
				if step/10000%2 == 1 {
					emit, inbound = 990, 999
				}
				switch {
				case r%1000 < emit:
					dst := 1 + int(r>>8)%(nw-1)
					v := values[int(r>>24)%len(values)]
					if r>>40&1 == 1 {
						v = -v
					}
					simLen[dst]++
					win.counts[dst]++
					got := simLen[dst] >= ps.flush.limit(dst) || agg.Abs(v) >= ps.flush.urgent()
					want := ref.emit(dst, simLen[dst], v)
					if got != want {
						t.Fatalf("step %d: emit(dst=%d, len=%d, v=%g) = %v, old rule says %v",
							step, dst, simLen[dst], v, got, want)
					}
					if got {
						win.out += int64(simLen[dst])
						ref.outWindow += int64(simLen[dst])
						simLen[dst] = 0
					}
				case r%1000 < inbound: // inbound traffic (drives the AAP switch)
					n := int64(r>>8) % 400
					win.in += n
					ref.inWindow += n
				default: // timer tick; occasionally jump past the 4τ window
					adv := cfg.Tau/2 + time.Duration(r>>8)%(2*cfg.Tau)
					if r>>32%5 == 0 {
						adv += 5 * cfg.Tau
					}
					clock = clock.Add(adv)
					was := ref.aapDelayed
					ps.flush.onTick(clock, &win)
					ref.tick(clock)
					if ref.aapDelayed != was {
						delays++
					}
					for j := 1; j < nw; j++ {
						fractional = fractional || ref.beta[j] != math.Trunc(ref.beta[j])
					}
				}
			}
			if ap, ok := ps.flush.(*adaptiveBetaFlush); ok && !fractional {
				t.Errorf("β stayed whole throughout: %v", ap.beta)
			}
			if _, ok := ps.flush.(*fixedBetaFlush); ok && delays < 2 {
				t.Errorf("the AAP switch flipped %d times, want both ways", delays)
			}

			// The adaptive policy's β state must have tracked the old rule
			// exactly (same float ops in the same order).
			if ap, ok := ps.flush.(*adaptiveBetaFlush); ok {
				for j := range ap.beta {
					if j != self && ap.beta[j] != ref.beta[j] {
						t.Errorf("β[%d] = %v, old rule has %v", j, ap.beta[j], ref.beta[j])
					}
				}
			}
			if fp, ok := ps.flush.(*fixedBetaFlush); ok {
				if fp.delayed != ref.aapDelayed {
					t.Errorf("AAP delayed = %v, old rule has %v", fp.delayed, ref.aapDelayed)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Adaptive-β unit tests: the band and the clamp, directly.
// ---------------------------------------------------------------------------

func adaptiveForTest() (*adaptiveBetaFlush, Config) {
	cfg := Config{Workers: 2}.withDefaults()
	return newAdaptiveBetaFlush(cfg, 0, metrics.NewRegistry()), cfg
}

// feedWindow pushes a count for destination 1 through one full adaptation
// window of exactly 4τ and returns the resulting β(0,1).
func feedWindow(p *adaptiveBetaFlush, cfg Config, count int64) float64 {
	start := time.Unix(2000, 0)
	win := window{start: start, counts: make([]int64, cfg.Workers)}
	win.counts[1] = count
	p.adapt(start.Add(4*cfg.Tau), &win)
	return p.beta[1]
}

func TestAdaptiveBetaInBandNoChange(t *testing.T) {
	p, cfg := adaptiveForTest()
	// rate = β/τ sits in the middle of [β/(rτ), rβ/τ]: no adaptation.
	dts := (4 * cfg.Tau).Seconds()
	count := int64(float64(betaInit) / cfg.Tau.Seconds() * dts)
	if got := feedWindow(p, cfg, count); got != float64(betaInit) {
		t.Errorf("in-band rate moved β to %v", got)
	}
}

func TestAdaptiveBetaAboveBandResets(t *testing.T) {
	p, cfg := adaptiveForTest()
	// rate = 3β/τ > rβ/τ (r = 2): β resets to α·τ·rate = 3αβ, clamped to
	// the 2·betaInit ceiling — 3·0.8 = 2.4 > 2.
	dts := (4 * cfg.Tau).Seconds()
	count := int64(3 * float64(betaInit) / cfg.Tau.Seconds() * dts)
	want := float64(2 * betaInit)
	if got := feedWindow(p, cfg, count); got != want {
		t.Errorf("above-band β = %v, want ceiling %v", got, want)
	}
}

func TestAdaptiveBetaBelowBandResets(t *testing.T) {
	p, cfg := adaptiveForTest()
	// A trickle well below β/(rτ): α·τ·rate lands under the floor and is
	// clamped to betaInit/4.
	if got := feedWindow(p, cfg, 1); got != float64(betaInit)/4 {
		t.Errorf("below-band β = %v, want floor %v", got, float64(betaInit)/4)
	}
}

func TestAdaptiveBetaMidReset(t *testing.T) {
	p, cfg := adaptiveForTest()
	// A rate above the band whose α·τ·rate stays inside the clamp:
	// rate = 2.5β/τ → β' = 2αβ = 2β·0.8 = 2·0.8·256 = 409.6... compute:
	// α·τ·(2.5β/τ) = 2.5αβ = 2.5·0.8·256 = 512 — exactly the ceiling.
	// Use 2.2β/τ instead: 2.2·0.8·256 = 450.56, strictly inside.
	dts := (4 * cfg.Tau).Seconds()
	count := int64(2.2 * float64(betaInit) / cfg.Tau.Seconds() * dts)
	got := feedWindow(p, cfg, count)
	if got <= float64(betaInit) || got >= float64(2*betaInit) {
		t.Errorf("mid-band reset β = %v, want inside (%v, %v)", got, betaInit, 2*betaInit)
	}
}

// TestClosedWindowKeepsFolds: a window the β rule closes moves each
// peer's count into win.routed and leaves the worker's own, so
// WorkerStats.Folds, which adds the open window's peer counts to it,
// loses no fold to a window boundary.
func TestClosedWindowKeepsFolds(t *testing.T) {
	p, cfg := adaptiveForTest()
	start := time.Unix(2000, 0)
	win := window{start: start, counts: []int64{5, 7}}
	p.adapt(start.Add(4*cfg.Tau), &win)
	win.counts[1] += 3
	if win.routed != 7 || win.counts[0] != 5 || win.counts[1] != 3 {
		t.Fatalf("routed %d, counts %v after a closed window; want 7 and [5 3]", win.routed, win.counts)
	}
}

func TestAdaptiveBetaShortWindowSkipped(t *testing.T) {
	p, cfg := adaptiveForTest()
	start := time.Unix(2000, 0)
	win := window{start: start, counts: make([]int64, cfg.Workers)}
	win.counts[1] = 1 << 20
	p.adapt(start.Add(4*cfg.Tau-time.Nanosecond), &win)
	if p.beta[1] != float64(betaInit) {
		t.Errorf("β adapted before the 4τ window elapsed")
	}
	if win.counts[1] == 0 {
		t.Error("window counts reset before the 4τ window elapsed")
	}
}

// TestAdaptiveBetaZeroDeltaT is the flush-decision table's degenerate-
// window companion: two adaptation calls inside one clock tick (ΔT == 0,
// reachable when τ == 0 because the 4τ gate never filters) must leave β
// finite, clamped, and unchanged — before the guard, α·τ·|B|/ΔT produced
// Inf (counts > 0) or NaN (counts == 0) that slipped past the clamp
// comparisons. The window counts must survive the skipped update so the
// next real window adapts over them.
func TestAdaptiveBetaZeroDeltaT(t *testing.T) {
	cases := []struct {
		name  string
		tau   time.Duration
		count int64
	}{
		{"zero-dt-busy", 0, 1 << 16}, // rate would be +Inf
		{"zero-dt-idle", 0, 0},       // rate would be NaN (0/0)
		{"zero-dt-trickle", 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Construct directly (bypassing withDefaults) — the τ=0 path is
			// unreachable through Run, but tests and future callers can
			// build the policy with arbitrary configs.
			cfg := Config{Workers: 2, Tau: tc.tau}
			p := newAdaptiveBetaFlush(cfg, 0, metrics.NewRegistry())
			start := time.Unix(2000, 0)
			win := window{start: start, counts: make([]int64, cfg.Workers)}
			win.counts[1] = tc.count
			p.adapt(start, &win) // ΔT == 0: same instant
			p.adapt(start, &win) // and again, same tick
			if b := p.beta[1]; math.IsInf(b, 0) || math.IsNaN(b) {
				t.Fatalf("β escaped the clamp: %v", b)
			}
			if p.beta[1] != float64(betaInit) {
				t.Errorf("zero-ΔT window moved β to %v", p.beta[1])
			}
			if win.counts[1] != tc.count {
				t.Errorf("skipped window lost its counts: %d, want %d", win.counts[1], tc.count)
			}
		})
	}
}

func TestAdaptiveBetaWindowCountsReset(t *testing.T) {
	p, cfg := adaptiveForTest()
	start := time.Unix(2000, 0)
	win := window{start: start, counts: make([]int64, cfg.Workers)}
	win.counts[1] = 123
	now := start.Add(4 * cfg.Tau)
	p.adapt(now, &win)
	if win.counts[1] != 0 {
		t.Error("window counts not reset after adaptation")
	}
	if !win.start.Equal(now) {
		t.Error("window start not advanced after adaptation")
	}
	if len(p.betaTrajectory()) != 1 {
		t.Errorf("β trajectory has %d samples, want 1", len(p.betaTrajectory()))
	}
}

// hashBuf is the open-addressed flat combiner outBuf was for a
// destination without a Dense shard, kept as TestMirrorMatchesHash's
// oracle: a power-of-two slot table of indexes into dense key/value
// arrays, linear probing, no tombstones (a take re-indexes what it
// leaves), in first-touch order.
type hashBuf struct {
	op    *agg.Op
	keys  []int64   // first-touch order
	vals  []float64 // parallel to keys
	slots []int32   // hash table: index+1 into keys, 0 = empty
	mask  uint64
}

func newHashBuf(op *agg.Op) *hashBuf {
	return &hashBuf{op: op, slots: make([]int32, 256), mask: 255}
}

// hashKey mixes the key bits (Fibonacci multiplier + xor-fold).
func hashKey(k int64) uint64 {
	x := uint64(k) * 0x9E3779B97F4A7C15
	return x ^ (x >> 32)
}

func (b *hashBuf) add(key int64, v float64) {
	h := hashKey(key) & b.mask
	for {
		idx := b.slots[h]
		if idx == 0 {
			b.keys = append(b.keys, key)
			b.vals = append(b.vals, v)
			b.slots[h] = int32(len(b.keys))
			// Grow at 3/4 load so probe chains stay short.
			if uint64(len(b.keys)) >= b.mask/4*3 {
				b.slots = make([]int32, 2*len(b.slots))
				b.mask = uint64(len(b.slots) - 1)
				b.reindex()
			}
			return
		}
		if b.keys[idx-1] == key {
			b.vals[idx-1] = b.op.Fold(b.vals[idx-1], v)
			return
		}
		h = (h + 1) & b.mask
	}
}

// reindex fills a zeroed slot table from the dense entries.
func (b *hashBuf) reindex() {
	for i, k := range b.keys {
		h := hashKey(k) & b.mask
		for b.slots[h] != 0 {
			h = (h + 1) & b.mask
		}
		b.slots[h] = int32(i + 1)
	}
}

func (b *hashBuf) len() int { return len(b.keys) }

// take drains the first batchMax entries, first-touch order.
func (b *hashBuf) take() []transport.KV {
	n := min(b.len(), batchMax)
	if n == 0 {
		return nil
	}
	kvs := transport.GetBatch(n)
	for i, k := range b.keys[:n] {
		kvs = append(kvs, transport.KV{K: k, V: b.vals[i]})
	}
	b.keys = b.keys[:copy(b.keys, b.keys[n:])]
	b.vals = b.vals[:copy(b.vals, b.vals[n:])]
	clear(b.slots)
	b.reindex()
	return kvs
}

func (b *hashBuf) reset() {
	for b.len() > 0 {
		transport.PutBatch(b.take())
	}
}

// TestMirrorMatchesHash drives one seeded add / take / reset sequence
// through outBuf's mirror and the hash combiner it replaced (hashBuf) and
// requires the same len() after every step and bitwise the same batches
// from take(), order included: a peer must not be able to tell which one
// its sender ran. The values cover what
// a first-touch test by value would get wrong — ±0, ±Inf, NaN, a sum that
// cancels back to the identity and is touched again — and one key is
// folded more than 2¹⁶ times.
func TestMirrorMatchesHash(t *testing.T) {
	const n, stride, offset = 40000, 3, 1 // 13334 slots: a full buffer is four batches
	route := monotable.NewRoute(n, stride)
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1, -1}
	for _, kind := range []agg.Kind{agg.Sum, agg.Min, agg.Max} {
		op := agg.ByKind(kind)
		hash, mirror := newHashBuf(op), newMirrorBuf(op, route, offset)
		rng := lcg(uint64(kind) + 1)
		split := false // a take left keys behind
		add := func(key int64, v float64) {
			hash.add(key, v)
			mirror.add(key, v)
			if hash.len() != mirror.len() {
				t.Fatalf("%v: after add(%d, %v) hash holds %d keys, mirror %d", kind, key, v, hash.len(), mirror.len())
			}
		}
		take := func() {
			h, m := hash.take(), mirror.take()
			if len(h) > batchMax || len(h) != len(m) || hash.len() != mirror.len() {
				t.Fatalf("%v: take gave %d KVs (hash) and %d (mirror), %d and %d left", kind, len(h), len(m), hash.len(), mirror.len())
			}
			for i := range h {
				if h[i].K != m[i].K || math.Float64bits(h[i].V) != math.Float64bits(m[i].V) && !(h[i].V != h[i].V && m[i].V != m[i].V) {
					t.Fatalf("%v: take()[%d] = %v from the hash, %v from the mirror", kind, i, h[i], m[i])
				}
			}
			split = split || hash.len() > 0
			transport.PutBatch(h)
			transport.PutBatch(m)
		}
		for step := 0; step < 60000; step++ {
			r := rng.next()
			key := route.Key(offset, int(r>>8)%route.Size(offset))
			switch {
			case r%20000 < 2:
				take()
			case r%20000 == 2:
				hash.reset()
				mirror.reset()
			case r%10 == 3:
				add(key, specials[int(r>>32)%len(specials)])
			case r%10 == 4: // cancels to the identity of a sum, then comes back
				add(key, 2.5)
				add(key, -2.5)
				add(key, specials[int(r>>32)%len(specials)])
			default:
				add(key, float64(int64(r>>32)%2000-1000)/8)
			}
		}
		for i := 0; i < 1<<16+10; i++ {
			add(route.Key(offset, 0), float64(i%7))
		}
		for hash.len() > 0 || mirror.len() > 0 {
			take()
		}
		if !split {
			t.Errorf("%v: no take met more than batchMax keys", kind)
		}
	}
}

// TestFlushSplitsAtBatchMax: a buffer that outgrew batchMax while its slot
// was down — replayForDown fills it past any policy's limit — goes out at
// the release as batches of at most batchMax KVs, each with its own
// sequence number, so no frame can outgrow the transport's and the
// receiver's dedup window advances one batch at a time.
func TestFlushSplitsAtBatchMax(t *testing.T) {
	plan := compilePlan(t, progs.SSSP, edgeDB("edge")(gen.RMAT(15, 40000, 10, 3)))
	w, peers := workerZero(t, plan, Config{
		Workers: 2, Mode: MRASyncAsync,
		Tau: time.Hour, CheckInterval: time.Hour, MaxWall: time.Hour,
	})
	const held = 2*batchMax + 100
	member := &w.fences[transport.FenceMember]
	member.req = transition{class: transport.FenceMember, epoch: 1, down: []int{1}}
	key := func(k int) int64 { return w.sink.Route.Key(1, k) } // worker 1's k-th key
	for k := 0; k < held; k++ {
		w.buffer(1, key(k), float64(k))
	}
	if w.flushes != 0 || w.bufs[1].len() != held {
		t.Fatalf("down slot: %d flushes, %d keys held, want 0 and %d", w.flushes, w.bufs[1].len(), held)
	}
	member.done = 1 // the fence commits
	w.flush(1)
	var seen dedupWindow
	got := 0
	for seq := int64(1); got < held; seq++ {
		m := <-peers.net.Conn(1).Inbox()
		if len(m.KVs) == 0 || len(m.KVs) > batchMax {
			t.Fatalf("batch %d carries %d KVs, cap %d", seq, len(m.KVs), batchMax)
		}
		if int64(m.Round) != seq || !seen.fresh(seq) || seen.next != seq+1 {
			t.Fatalf("batch %d stamped %d, dedup window at %d", seq, m.Round, seen.next)
		}
		for i, kv := range m.KVs {
			if want := got + i; kv.K != key(want) || kv.V != float64(want) {
				t.Fatalf("batch %d entry %d = %v, want key %d value %d", seq, i, kv, key(want), want)
			}
		}
		got += len(m.KVs)
		transport.PutBatch(m.KVs)
	}
	if w.flushes != 3 || w.dataSeq[1] != 3 || w.sent != held {
		t.Fatalf("%d flushes, seq %d, %d KVs sent; want 3, 3, %d", w.flushes, w.dataSeq[1], w.sent, held)
	}
}

// ---------------------------------------------------------------------------
// Scheduler strategies.
// ---------------------------------------------------------------------------

func TestPriorityHoldCycle(t *testing.T) {
	reg := metrics.NewRegistry()
	s := &priorityHold{
		inner: fifoSched{}, threshold: 1.0,
		holds: reg.Counter("sched.hold"), releases: reg.Counter("sched.release"),
	}
	// held reports how many of the deltas, one a row of a sum shard, one
	// pass's drain holds back.
	held := func(vals ...float64) int {
		table := monotable.NewDense(agg.ByKind(agg.Sum), len(vals), 1, 0)
		for i, v := range vals {
			table.FoldDelta(int64(i), v)
		}
		run := admitDrain(table, s)
		for _, d := range run {
			if agg.Abs(d.val) < s.threshold && !s.off {
				t.Errorf("let the small delta %v through", d.val)
			}
		}
		return len(vals) - len(run)
	}
	if held(5) != 0 {
		t.Error("held an important delta")
	}
	if held(0.1, 7, -0.2) != 2 {
		t.Error("did not hold the small deltas")
	}
	if !s.holding() {
		t.Error("holding not reported")
	}
	// Idle: release lets small deltas through exactly once.
	if !s.release() {
		t.Error("release with held work returned false")
	}
	if held(0.1) != 0 {
		t.Error("held a delta after release")
	}
	if s.release() {
		t.Error("release with nothing held returned true")
	}
	// Progress rearms the threshold.
	s.rearm()
	if held(0.1) != 1 {
		t.Error("did not hold after rearm")
	}
	// The per-decision counters track the cycle.
	snap := reg.Snapshot()
	if got := snap.Counter("sched.hold"); got != 3 {
		t.Errorf("sched.hold = %d, want 3", got)
	}
	if got := snap.Counter("sched.release"); got != 1 {
		t.Errorf("sched.release = %d, want 1", got)
	}
}

// ---------------------------------------------------------------------------
// seenSet: dense bitset and sparse map behave identically.
// ---------------------------------------------------------------------------

func TestSeenSet(t *testing.T) {
	for _, dense := range []bool{true, false} {
		s := newSeenSet(dense, 200)
		for _, k := range []int64{0, 1, 63, 64, 199} {
			if s.has(k) {
				t.Errorf("dense=%v: fresh set has %d", dense, k)
			}
			s.add(k)
			if !s.has(k) {
				t.Errorf("dense=%v: added key %d missing", dense, k)
			}
		}
		// Out-of-range keys fall back to the map even in dense mode.
		s.add(1 << 40)
		if !s.has(1 << 40) {
			t.Errorf("dense=%v: out-of-range key missing", dense)
		}
		s.reset()
		for _, k := range []int64{0, 63, 199, 1 << 40} {
			if s.has(k) {
				t.Errorf("dense=%v: key %d survived reset", dense, k)
			}
		}
	}
}
