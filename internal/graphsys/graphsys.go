// Package graphsys is a hand-coded vertex-centric graph processing engine
// standing in for the systems the paper compares against in §6.4:
// PowerGraph (sync/async, used for CC and SSSP), Maiter (delta-based
// asynchronous accumulation, used for PageRank, Adsorption, Katz), and
// Prom (prioritized block updates, used for Belief Propagation). Unlike
// the Datalog engine, programs here are written directly in Go against
// arrays — the "tens of lines of code per algorithm" programming model
// the paper's introduction contrasts with Datalog's two rules.
package graphsys

import (
	"container/heap"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"powerlog/internal/agg"
	"powerlog/internal/graph"
	"powerlog/internal/term"
)

// Delta is an initial contribution to one vertex.
type Delta struct {
	V   int32
	Val float64
}

// Program is a delta-based vertex program: state folds with Op, and a
// drained delta scatters contributions along out-edges.
type Program struct {
	// Op is the state combiner (min for SSSP/CC, sum for the rest).
	Op *agg.Op
	// Init seeds the computation.
	Init []Delta
	// Scatter propagates a drained delta of v to its out-neighbors.
	Scatter func(g *graph.Graph, v int32, delta float64, emit func(dst int32, val float64))
	// Epsilon terminates limit programs when the round change drops below
	// it; 0 runs to fixpoint.
	Epsilon float64
	// MaxRounds caps the iteration count (default 10000).
	MaxRounds int
}

func (p *Program) maxRounds() int {
	if p.MaxRounds > 0 {
		return p.MaxRounds
	}
	return 10000
}

// state is the shared delta-accumulation state used by all three engines.
type state struct {
	op    *agg.Op
	value []uint64 // accumulated result bits
	delta []uint64 // pending delta bits
}

func newState(op *agg.Op, n int) *state {
	s := &state{op: op, value: make([]uint64, n), delta: make([]uint64, n)}
	for i := range s.value {
		agg.Store(&s.value[i], op.Identity())
		agg.Store(&s.delta[i], op.Identity())
	}
	return s
}

func (s *state) values() []float64 {
	out := make([]float64, len(s.value))
	for i := range out {
		out[i] = agg.Load(&s.value[i])
	}
	return out
}

// apply drains v's delta into its value; reports (delta, improved).
func (s *state) apply(v int32) (float64, bool) {
	d := s.op.AtomicExchangeIdentity(&s.delta[v])
	if d == s.op.Identity() {
		return d, false
	}
	improved := s.op.AtomicFold(&s.value[v], d)
	if s.op.Selective() {
		return d, improved
	}
	return d, d != 0
}

// RunSync executes the program with bulk-synchronous rounds over an
// active-vertex frontier (PowerGraph's sync engine).
func RunSync(g *graph.Graph, p *Program) []float64 {
	n := g.NumVertices()
	s := newState(p.Op, n)
	inFrontier := make([]bool, n)
	var frontier []int32
	push := func(v int32) {
		if !inFrontier[v] {
			inFrontier[v] = true
			frontier = append(frontier, v)
		}
	}
	for _, d := range p.Init {
		s.op.AtomicFold(&s.delta[d.V], d.Val)
		push(d.V)
	}
	for round := 0; len(frontier) > 0 && round < p.maxRounds(); round++ {
		cur := frontier
		frontier = nil
		for _, v := range cur {
			inFrontier[v] = false
		}
		roundChange := 0.0
		var next []int32
		nextSet := make([]bool, n)
		for _, v := range cur {
			d, improved := s.apply(v)
			if !improved {
				continue
			}
			roundChange += math.Abs(d)
			p.Scatter(g, v, d, func(dst int32, val float64) {
				if s.op.AtomicFold(&s.delta[dst], val) && !nextSet[dst] {
					nextSet[dst] = true
					next = append(next, dst)
				}
			})
		}
		frontier = next
		for _, v := range next {
			inFrontier[v] = true
		}
		if p.Epsilon > 0 && roundChange < p.Epsilon {
			break
		}
	}
	return s.values()
}

// RunAsync executes the program with a pool of workers sharing the state
// through atomics, PowerGraph's async engine / Maiter's execution model.
func RunAsync(g *graph.Graph, p *Program, workers int) []float64 {
	if workers <= 0 {
		workers = 4
	}
	n := g.NumVertices()
	s := newState(p.Op, n)
	for _, d := range p.Init {
		s.op.AtomicFold(&s.delta[d.V], d.Val)
	}
	var stop int32
	var idleCount int32
	var resumeEpoch int64
	// What each worker tells the ε coordinator: its accumulated |change|
	// and its completed passes (own cell each, so no CAS contention), and
	// whether it is parked idle.
	cells := make([]workerCell, workers)

	rangeClean := func(w int) bool {
		id := s.op.Identity()
		for v := int32(w); v < int32(n); v += int32(workers) {
			if agg.Load(&s.delta[v]) != id {
				return false
			}
		}
		return true
	}
	allClean := func() bool {
		id := s.op.Identity()
		for v := 0; v < n; v++ {
			if agg.Load(&s.delta[v]) != id {
				return false
			}
		}
		return true
	}

	// Quiescence protocol: an idle worker parks, watching only its own
	// range; a resuming worker bumps the epoch. The quiescence detector
	// below declares global termination only when every worker is idle,
	// the whole delta array is clean, and no resume happened during the
	// scan — while all workers are idle nothing can scatter, so a clean
	// scan bracketed by (idleCount == workers, unchanged epoch) is final.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for atomic.LoadInt32(&stop) == 0 {
				progressed := false
				for v := int32(w); v < int32(n); v += int32(workers) {
					d, improved := s.apply(v)
					if !improved {
						continue
					}
					progressed = true
					agg.Store(&cells[w].change, agg.Load(&cells[w].change)+math.Abs(d))
					p.Scatter(g, v, d, func(dst int32, val float64) {
						s.op.AtomicFold(&s.delta[dst], val)
					})
				}
				cells[w].passes.Add(1)
				if progressed {
					continue
				}
				cells[w].idle.Store(true)
				atomic.AddInt32(&idleCount, 1)
				for atomic.LoadInt32(&stop) == 0 {
					if !rangeClean(w) {
						atomic.AddInt64(&resumeEpoch, 1)
						atomic.AddInt32(&idleCount, -1)
						cells[w].idle.Store(false)
						break
					}
					runtime.Gosched()
				}
			}
		}(w)
	}
	// Quiescence detector.
	detectorDone := make(chan struct{})
	go func() {
		defer close(detectorDone)
		for atomic.LoadInt32(&stop) == 0 {
			if atomic.LoadInt32(&idleCount) == int32(workers) {
				e := atomic.LoadInt64(&resumeEpoch)
				if allClean() &&
					atomic.LoadInt64(&resumeEpoch) == e &&
					atomic.LoadInt32(&idleCount) == int32(workers) {
					atomic.StoreInt32(&stop, 1)
					return
				}
			}
			runtime.Gosched()
		}
	}()
	// ε coordinator: stop when the change accumulated per interval falls
	// below ε (limit programs never strictly quiesce on their own). The
	// decision is the runtime's stop machine (internal/term) sampled on a
	// 500µs grid: a worker's report is its accumulated change and pass
	// count, dirty unless it is parked idle over a clean range, so a window
	// in which a worker with pending deltas completed no pass is not
	// judged. Nothing is sent or received here, so sent = recv = 0.
	if p.Epsilon > 0 {
		go func() {
			live := make([]bool, workers)
			for w := range live {
				live[w] = true
			}
			det := term.New(term.Config{Epsilon: p.Epsilon, MaxIters: p.maxRounds(), Interval: 500 * time.Microsecond},
				live, time.Now())
			for wave := 1; atomic.LoadInt32(&stop) == 0; {
				now := time.Now()
				switch dec := det.Next(now); dec.Action {
				case term.Stop:
					atomic.StoreInt32(&stop, 1)
				case term.Wait:
					time.Sleep(dec.Until.Sub(now))
				case term.StartWave:
					det.Begin(wave, now)
					for w := range cells {
						c := &cells[w]
						det.Report(w, wave, term.Report{
							Passes: c.passes.Load(),
							AccSum: agg.Load(&c.change),
							Dirty:  !c.idle.Load() || !rangeClean(w),
						}, now)
					}
					wave++
				}
			}
		}()
	}
	wg.Wait()
	atomic.StoreInt32(&stop, 1)
	<-detectorDone
	return s.values()
}

// workerCell is one async worker's report to the ε coordinator. Only
// the worker writes it; the pad keeps neighbours off its cache line.
type workerCell struct {
	change uint64 // accumulated |change| bits
	passes atomic.Int64
	idle   atomic.Bool
	_      [40]byte
}

// RunPrioritized executes the program with a max-|delta| priority queue —
// the PrIter/Maiter/Prom scheduling insight that large deltas matter most
// for convergence. Sequential; the priority effect, not parallelism, is
// what the Figure-10 comparison exercises.
func RunPrioritized(g *graph.Graph, p *Program) []float64 {
	n := g.NumVertices()
	s := newState(p.Op, n)
	pq := &deltaHeap{}
	inQueue := make([]bool, n)
	push := func(v int32) {
		if !inQueue[v] {
			inQueue[v] = true
			heap.Push(pq, prioVertex{v, math.Abs(agg.Load(&s.delta[v]))})
		}
	}
	for _, d := range p.Init {
		s.op.AtomicFold(&s.delta[d.V], d.Val)
		push(d.V)
	}
	totalSinceCheck := 0.0
	steps := 0
	checkEvery := n + 1
	for pq.Len() > 0 {
		pv := heap.Pop(pq).(prioVertex)
		inQueue[pv.v] = false
		d, improved := s.apply(pv.v)
		if !improved {
			continue
		}
		totalSinceCheck += math.Abs(d)
		p.Scatter(g, pv.v, d, func(dst int32, val float64) {
			if s.op.AtomicFold(&s.delta[dst], val) {
				push(dst)
			}
		})
		steps++
		if steps%checkEvery == 0 {
			if p.Epsilon > 0 && totalSinceCheck < p.Epsilon {
				break
			}
			totalSinceCheck = 0
			if steps/checkEvery > p.maxRounds() {
				break
			}
		}
	}
	return s.values()
}

type prioVertex struct {
	v    int32
	prio float64
}

type deltaHeap []prioVertex

func (h deltaHeap) Len() int            { return len(h) }
func (h deltaHeap) Less(i, j int) bool  { return h[i].prio > h[j].prio }
func (h deltaHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *deltaHeap) Push(x interface{}) { *h = append(*h, x.(prioVertex)) }
func (h *deltaHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
