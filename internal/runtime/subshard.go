package runtime

import (
	"sync"
	"time"

	"powerlog/internal/compiler"
	"powerlog/internal/monotable"
)

// The MRA compute pass (paper Figure 7, DESIGN.md §9): drain the dirty
// keys in the Scheduler's order, fold each delta into its accumulation,
// propagate improvements through F'. There is one body, coreState.scanSub,
// and every worker owns a core 0 that runs it. The unit of propagation is
// a CSR row: the plan's kernel opens the drained key's row and fills in
// what F' yields along a chunk of its edges, and coreState.sink routes
// and folds the chunk. A pass over a small frontier is core 0 scanning
// the whole shard as one subshard, sinking remote updates straight into
// worker.buffer. A pass over a large one splits the table
// into subshards — contiguous slot ranges for Dense, stripe blocks for
// Sparse (monotable.ScanDirtyRange) — and deals every one of the
// P = Config.CoresPerWorker cores a contiguous block of them; a core
// that finishes its block steals from a sibling's, so one skewed range
// does not serialise the pass.
//
// Soundness of the fan-out is the paper's P1 property plus Theorem 3:
// MRA folds are commutative and associative, so draining and folding
// disjoint key ranges in any interleaving — including racing local
// re-emits into ranges another core has yet to scan — reaches the same
// fixpoint the one-core pass does.
//
// The hot path stays allocation-free: each core owns reused scan/drain
// slices, a kernel scratch, and its own outBuf per destination. In a
// fanned-out pass the cores buffer remote updates privately and the
// owner merges them serially after the join through worker.buffer, so
// batching, τ, and urgent-delta semantics are those of the direct pass.
// Per-core Σacc/stat deltas fold into the worker totals on the owner
// (worker.settle) — no shared hot counters.

// scanMinKeys gates fan-out by frontier size: waking P cores for fewer
// dirty keys than this costs more than it saves. A var only so that
// in-package tests can lower it to fan out small fixtures.
var scanMinKeys = 1024

// subshardFactor oversplits the table relative to the core count so the
// stealing deque has granularity: with 4 subshards per core a thief
// takes ~1/4 of a straggler's remaining block instead of all of it.
const subshardFactor = 4

// subDeque is one core's work-stealing deque of subshard ids for the
// current pass. Because each core's initial deal is one contiguous
// block of ids, the deque is just the live window [head, tail): the
// owner takes from the front (ascending ranges — sequential slot
// order), thieves take from the back (the work farthest from the
// owner's scan position). A tiny mutex arbitrates; it is uncontended
// except when a thief actually arrives, so it costs one uncontended
// lock per subshard — noise next to a 512-slot scan.
type subDeque struct {
	mu         sync.Mutex
	head, tail int
}

func (d *subDeque) reset(lo, hi int) {
	d.mu.Lock()
	d.head, d.tail = lo, hi
	d.mu.Unlock()
}

func (d *subDeque) popFront() (int, bool) {
	d.mu.Lock()
	if d.head >= d.tail {
		d.mu.Unlock()
		return 0, false
	}
	sub := d.head
	d.head++
	d.mu.Unlock()
	return sub, true
}

func (d *subDeque) popBack() (int, bool) {
	d.mu.Lock()
	if d.head >= d.tail {
		d.mu.Unlock()
		return 0, false
	}
	d.tail--
	sub := d.tail
	d.mu.Unlock()
	return sub, true
}

// coreState is one scan core's private working set. Everything here is
// touched only by the core that owns it during a pass, then read and
// reset by the worker's owner goroutine at the merge — no atomics
// needed on the counters themselves.
type coreState struct {
	w    *worker
	pool *scanPool
	idx  int

	// Reused pass storage: a steady-state subshard scan allocates nothing.
	drainBuf []drained

	// Per-destination combiners of a fanned-out pass, merged by the owner
	// after the join.
	bufs      []*outBuf
	winCounts []int64 // per-destination emit counts for the β window

	// Pass results, folded into the worker totals by scanPass and settle.
	n        int     // rows that propagated
	drained  int     // rows drained (feeds scanPool.lastDrained)
	folds    int64   // FoldAcc count (feeds worker.accFolds)
	accDelta float64 // Σ|acc change|
	accSum   float64 // Σ signed acc deltas

	// scratch is this core's kernel working memory (expression slots and
	// the chunk of row values between Fill and sink) — the reentrant
	// kernel keeps the fan-out allocation-free.
	scratch []float64
	kernel  *compiler.Kernel // the plan's F' kernel

	// Pre-bound: drainFn drains one scanned key into drainBuf, takeFn
	// appends one row Dense.DrainOwned drained.
	drainFn func(int64)
	takeFn  func(int64, float64)
}

// scanSub is the compute body, run over one subshard: drain its dirty
// keys into a snapshot, then fold each and propagate its row. A pass that
// did not fan out is the shard's only accessor (DESIGN.md §9), so on a
// Dense shard — vertex keys strided by the static modulo partition
// (worker.newTable), whose slots shardRoute.split resolves — it drains,
// folds and sinks by slot with plain loads and stores.
func (c *coreState) scanSub(sub int) {
	w := c.w
	dense, _ := w.table.(*monotable.Dense)
	owned := dense != nil && c.pool.nsub == 1
	c.drainBuf = c.drainBuf[:0]
	if owned {
		dense.DrainOwned(c.takeFn)
	} else {
		w.table.ScanDirtyRange(sub, c.pool.nsub, c.drainFn)
	}
	out := c.drainBuf
	// The Scheduler's order applies within the subshard; cross-subshard
	// order is whatever the deal and the steals produce, which P1 licenses.
	// What the schedule holds back — §5.4's small combining deltas, a
	// bucket schedule's far keys — is refolded: the rows are dirty again
	// and wait for a later pass.
	run := out[:w.pol.sched.arrange(out)]
	for _, d := range out[len(run):] {
		w.table.FoldDelta(d.key, d.val)
	}
	if owned {
		w.sink.Cols[w.id] = &dense.Column // the table is replaced on a rollback
	}
	for _, d := range run {
		var improved bool
		var change, signed float64
		if owned {
			slot, _ := w.sink.Route.Split(int32(d.key))
			improved, change, signed = dense.FoldAccOwned(slot, d.val)
		} else {
			improved, change, signed = w.table.FoldAcc(d.key, d.val)
		}
		c.folds++
		c.accDelta += change
		c.accSum += signed
		if !w.shouldPropagate(improved, d.val) {
			continue
		}
		c.n++
		r := c.kernel.Row(c.scratch, d.key, d.val)
		if owned && r.Form != monotable.Given {
			w.sinkOwned(r.Form, r.S, r.Targets, r.Weights)
			continue
		}
		for lo := 0; lo < len(r.Targets); lo += compiler.FillChunk {
			if vals := c.kernel.Fill(c.scratch, r, lo); owned {
				w.sinkOwned(monotable.Given, 0, r.Targets[lo:lo+len(vals)], vals)
			} else {
				c.sink(dense, r, lo, vals)
			}
		}
	}
	c.drained += len(out)
}

// sinkOwned folds a row — or a Fill chunk of one, whose values are given
// — in a pass that did not fan out over a Dense shard. Local and remote
// take the same steps (monotable.Sink.Fold): the route splits the key into
// its owner and its slot there, without a divide, and the value folds into
// the owner's column at that slot — the shard's own Intermediate, or the
// mirror that buffers for a peer (outBuf). A mirror whose newly staged
// slot brought it to the buffer's limit, or that was handed an urgent
// value, is flushed where the fold stops for it: the FlushPolicy's
// decision as worker.buffer takes it, asked when the count moves (the
// shard's own column stages nothing, and flushing buffer w.id sends
// nothing).
func (w *worker) sinkOwned(f monotable.Form, x float64, targets []int32, per []float64) {
	for i, o := 0, 0; i < len(targets); {
		if i, o = w.sink.Fold(f, x, targets, per, i); o >= 0 {
			w.flush(o)
		}
	}
}

// sink is sinkOwned for every other pass. A direct pass over a Sparse
// shard (pair keys) is worker.emit per edge: the route's owner, next to
// whose mutex and map a divide is noise, then the shard or
// worker.buffer. In a fanned-out pass a local key folds
// into the shard atomically — into the concrete Dense by slot when there
// is one — and a remote key is counted into the β window and buffered in
// this core's private combiner, which reaches worker.buffer at the merge.
func (c *coreState) sink(dense *monotable.Dense, r compiler.Row, lo int, vals []float64) {
	w := c.w
	for i, t := range r.Targets[lo : lo+len(vals)] {
		key, v := r.Hi|int64(t), vals[i]
		if c.pool.nsub == 1 {
			w.emit(key, v)
			continue
		}
		var o, slot int
		if dense != nil {
			slot, o = w.sink.Route.Split(t)
		} else {
			o = w.owner(key)
		}
		switch {
		case o != w.id:
			c.bufs[o].add(key, v)
			c.winCounts[o]++
		case dense == nil:
			w.table.FoldDelta(key, v)
		default:
			dense.FoldDeltaAt(slot, v)
		}
	}
}

// runCore drains this core's deque, then steals until the pass is dry.
// It times each subshard: the histogram is the skew the stealing absorbs,
// so the one-subshard direct pass stays out of it.
func (c *coreState) runCore() {
	p := c.pool
	d := &p.deques[c.idx]
	for {
		sub, ok := d.popFront()
		if !ok {
			sub, ok = p.steal(c.idx)
		}
		if !ok || c.w.halted() {
			return // a stopping worker leaves what is left of the deal dirty
		}
		start := time.Now()
		c.scanSub(sub)
		c.w.met.subPassUS.Observe(uint64(time.Since(start).Microseconds()))
	}
}

// scanPool is a worker's persistent set of scan cores. Core 0 is the
// worker's own compute goroutine; cores 1..P-1 are lazily-spawned
// goroutines that park on a shared sync.Cond between passes — a parked
// core costs nothing until the next broadcast, instead of spinning on
// an idle-poll loop the way worker.idleWait-style backoff would.
type scanPool struct {
	w *worker
	p int

	// lastDrained is the previous pass's drain size (the dirty count
	// after a seed, reseed or fence: worker.resetFrontier) — the observed
	// frontier that decides whether the next pass fans out.
	lastDrained int
	// nsub is the current pass's subshard count, written by the owner
	// before the wake broadcast (the cond's mutex orders it).
	nsub int

	cores  []*coreState
	deques []subDeque

	mu      sync.Mutex
	cond    *sync.Cond
	seq     uint64 // pass counter; a wake with an unseen seq starts a pass
	stop    bool
	started bool
	wg      sync.WaitGroup
}

func newScanPool(w *worker, p int) *scanPool {
	sp := &scanPool{w: w, p: p}
	sp.cond = sync.NewCond(&sp.mu)
	sp.cores = make([]*coreState, p)
	sp.deques = make([]subDeque, p)
	for i := range sp.cores {
		c := &coreState{w: w, pool: sp, idx: i, scratch: w.plan.NewScratch(), kernel: w.plan.Kernel}
		if p > 1 { // only a fanned-out pass buffers per core
			c.bufs = make([]*outBuf, len(w.bufs))
			c.winCounts = make([]int64, len(w.bufs))
			for j := range c.bufs {
				c.bufs[j] = newOutBuf(w.plan.Op)
			}
		}
		c.takeFn = func(k int64, v float64) { c.drainBuf = append(c.drainBuf, drained{k, v}) }
		c.drainFn = func(k int64) {
			if v, ok := w.table.Drain(k); ok {
				c.takeFn(k, v)
			}
		}
		sp.cores[i] = c
	}
	return sp
}

// scratch is the compute goroutine's propagation-expression buffer
// (plan.PropagateInto): core 0's.
func (w *worker) scratch() []float64 { return w.scan.cores[0].scratch }

// resetFrontier re-bases the fan-out gate on the table's dirty count,
// which stands in for "last pass's drain" whenever something other than
// a pass (seeding, a session's reseed, a membership fence) rewrote the
// dirty set.
func (w *worker) resetFrontier() { w.scan.lastDrained = w.table.DirtyApprox() }

// steal takes a subshard from the back of another core's deque,
// scanning siblings in ring order from the thief.
func (p *scanPool) steal(self int) (int, bool) {
	for off := 1; off < p.p; off++ {
		if sub, ok := p.deques[(self+off)%p.p].popBack(); ok {
			p.w.met.steals.Inc()
			return sub, true
		}
	}
	return 0, false
}

// begin wakes the parked cores for one pass. The owner has already
// written nsub and dealt the deques; publishing seq under the cond's
// mutex is the happens-before edge that makes those writes visible.
func (p *scanPool) begin() {
	if !p.started {
		p.started = true
		for i := 1; i < p.p; i++ {
			go p.serve(p.cores[i])
		}
	}
	p.wg.Add(p.p - 1)
	p.mu.Lock()
	p.seq++
	p.mu.Unlock()
	p.cond.Broadcast()
}

// serve is a parked core's life: wait for an unseen pass, run it, check
// back in, park again. Parking on the shared cond (not a sleep/poll
// loop) means an idle pool burns no cycles between passes.
func (p *scanPool) serve(c *coreState) {
	var last uint64
	p.mu.Lock()
	for {
		for !p.stop && p.seq == last {
			p.cond.Wait()
		}
		if p.stop {
			p.mu.Unlock()
			return
		}
		last = p.seq
		p.mu.Unlock()
		c.runCore()
		p.wg.Done()
		p.mu.Lock()
	}
}

// close parks the cores for good. Called from run()'s defer, after the
// last pass has joined, so no core is mid-pass.
func (p *scanPool) close() {
	p.mu.Lock()
	p.stop = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// scanPass is the MRA modes' compute pass (policySet.pass). The gate is
// the observed frontier: with more than one core and at least scanMinKeys
// keys drained last pass, the pass deals subshard blocks, runs core 0
// inline while cores 1..P-1 work their deals, joins, and merges the
// per-core buffers on the owner; otherwise core 0 alone scans the shard
// as a single subshard (ScanDirtyRange(0, 1) visits keys in ScanDirty's
// order) and sinks directly. It returns how many rows propagated.
func (w *worker) scanPass() int {
	p := w.scan
	c0 := p.cores[0]
	p.nsub = 1
	if p.p > 1 && p.lastDrained >= scanMinKeys {
		// A tiny Dense shard has one bitmap line and cannot split.
		p.nsub = w.table.Subshards(p.p * subshardFactor)
	}
	if p.nsub == 1 {
		c0.scanSub(0)
	} else {
		for i := 0; i < p.p; i++ {
			p.deques[i].reset(i*p.nsub/p.p, (i+1)*p.nsub/p.p)
		}
		p.begin()
		c0.runCore()
		p.wg.Wait()
		w.mergeBuffered()
		w.met.parallelPasses.Inc()
	}
	w.settle()
	n, total := 0, 0
	for _, c := range p.cores {
		n += c.n
		total += c.drained
		c.n, c.drained = 0, 0
	}
	p.lastDrained = total
	return n
}

// settle folds the cores' Σacc deltas into the worker totals: after
// every pass, and before a stats poll is answered — a flush inside a
// direct pass or the merge pumps the inbox, and the master's ε test must
// not read an aggregate that lags the folds already made. Only the
// owner goroutine calls it, and it pumps its inbox only while no other
// core is running.
func (w *worker) settle() {
	for _, c := range w.scan.cores {
		w.accDelta += c.accDelta
		w.accSum += c.accSum
		w.accFolds += c.folds
		c.accDelta, c.accSum, c.folds = 0, 0, 0
	}
}

// mergeBuffered moves what the cores buffered during a fanned-out pass
// into the worker's buffers, under the flush policy. Destination-major
// order keeps same-destination updates from different cores folding
// into one batch. The β window takes the per-core emit counts, not the
// merged ones: folding at the merge would undercount the signal.
func (w *worker) mergeBuffered() {
	for o := range w.bufs {
		if o == w.id {
			continue
		}
		for _, c := range w.scan.cores {
			b := c.bufs[o]
			if b.len() == 0 {
				continue // nothing emitted, nothing counted
			}
			for i, k := range b.keys {
				w.buffer(o, k, b.vals[i])
			}
			b.reset()
			w.win.counts[o] += c.winCounts[o]
			c.winCounts[o] = 0
		}
	}
}
