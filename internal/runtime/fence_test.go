package runtime

import (
	"errors"
	"sync"
	"testing"
	"time"

	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/progs"
	"powerlog/internal/term"
	"powerlog/internal/transport"
)

// These tests drive the fence primitive (fence.go) on its own: workers
// with no compute loop join one fence over a channel network while the
// test plays the master through a real master's collectAcks or drive.
// Faults are injected per link by a filtering conn.

// markFilter decides what happens to a FenceMark sent to slot `to`.
type markFilter func(to int, m transport.Message) (drop, dup bool)

type filterConn struct {
	transport.Conn
	filter markFilter
}

func (c *filterConn) Send(to int, m transport.Message) error {
	if m.Kind == transport.FenceMark {
		drop, dup := c.filter(to, m)
		if drop {
			return nil
		}
		if dup {
			if err := c.Conn.Send(to, m); err != nil {
				return err
			}
		}
	}
	return c.Conn.Send(to, m)
}

type fenceRig struct {
	t    *testing.T
	m    *master
	ws   []*worker
	done chan int // worker ids, as each leaves its fence
	wg   sync.WaitGroup
}

// newFenceRig stands up n workers and a master; each worker joins one
// fence of class c — a superstep's opens at the worker's first superstep
// end, the others at the master's request. The workers in `absent` get
// no goroutine (they model a crashed or wedged peer). filter, when
// non-nil, sees worker `from`'s outgoing FenceMarks.
func newFenceRig(t *testing.T, n int, c transport.FenceClass, absent map[int]bool,
	filter func(from int) markFilter) *fenceRig {
	t.Helper()
	return newRig(t, n, absent, filter, func(w *worker) {
		if c == transport.FenceStep {
			// A seeded shard stays dirty, so no superstep is judged the
			// last and the worker leaves the gate with no Stop. It runs
			// two: a lost mark for superstep 1 is re-sent from gate 2.
			w.seed(w.plan.InitMRA)
			_ = endSuperstep(w) && endSuperstep(w)
		} else if w.foldUntil(func() bool { return w.fencePending(c) }, func() {}) {
			w.fence(c)
		}
	})
}

// endSuperstep runs a BSP worker's superstep end on a rig worker, which
// has no compute loop: count the superstep, end it at the gate.
func endSuperstep(w *worker) bool {
	if w.bar == nil {
		w.bar = term.NewBarrier(termConfig(w.plan, w.cfg))
	}
	w.rounds++
	return (&bspBarrier{}).endPass(w, false)
}

// newRig is newFenceRig with the workers' part spelled out: body runs on
// each present worker's goroutine.
func newRig(t *testing.T, n int, absent map[int]bool, filter func(from int) markFilter, body func(w *worker)) *fenceRig {
	t.Helper()
	db := edb.NewDB()
	db.SetGraph("edge", gen.Uniform(40, 120, 10, 5))
	plan := compilePlan(t, progs.SSSP, db)
	// A short CollectTimeout bounds the clean-up's Stop to a worker whose
	// inbox nobody drains (an absent one, filled by re-sent marks).
	cfg := Config{Workers: n, CollectTimeout: time.Second}.withDefaults()
	net := transport.NewChannelNetwork(n, 256)
	r := &fenceRig{t: t, done: make(chan int, n)}
	r.m = newMaster(cfg, plan, net.Conn(transport.MasterID(n)))
	for i := 0; i < n; i++ {
		var conn transport.Conn = net.Conn(i)
		if filter != nil {
			conn = &filterConn{Conn: conn, filter: filter(i)}
		}
		w := newWorker(i, cfg, plan, conn)
		r.ws = append(r.ws, w)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer func() {
				close(w.out)
				close(w.outCtrl)
				<-w.commDone
			}()
			if absent[w.id] {
				return
			}
			body(w)
			r.done <- w.id
		}()
	}
	t.Cleanup(func() {
		r.m.bcast(transport.Message{Kind: transport.Stop})
		r.wg.Wait()
		net.Close()
	})
	return r
}

// request opens fence (c, e) — except a superstep's, which each worker
// opens itself.
func (r *fenceRig) request(c transport.FenceClass, e int) {
	if c != transport.FenceStep {
		r.m.bcast(transition{class: c, epoch: e}.request())
	}
}

func (r *fenceRig) release(c transport.FenceClass, e int) {
	r.m.bcast(transport.Message{Kind: transport.FenceRelease, Fence: c, Round: e})
}

// run drives fence (c, e) to completion and fails the test unless
// exactly `need` acks arrive and as many workers leave the fence — a
// superstep's on their own verdict, any other after its release.
func (r *fenceRig) run(c transport.FenceClass, e, need int) {
	r.t.Helper()
	r.request(c, e)
	got, open := r.m.collectAcks(c, e, need, 10*time.Second)
	if !open || got != need {
		r.t.Fatalf("fence %d: %d/%d acks (network open: %v)", e, got, need, open)
	}
	// Every ack is in; one more would be a duplicate.
	if extra, _ := r.m.collectAcks(c, e, 1, 20*time.Millisecond); extra != 0 {
		r.t.Fatalf("fence %d: a worker acked twice", e)
	}
	if c != transport.FenceStep {
		r.release(c, e)
	}
	r.leave(need)
}

// leave waits for n workers to leave their fence.
func (r *fenceRig) leave(n int) {
	r.t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-r.done:
		case <-time.After(10 * time.Second):
			r.t.Fatalf("only %d/%d workers left the fence", i, n)
		}
	}
}

func TestMarkClock(t *testing.T) {
	c := make(markClock, 4)
	c.observe(1, 5)
	c.observe(1, 3) // stale duplicate: max-merge keeps 5
	c.observe(1, 5) // exact duplicate
	c.observe(9, 7) // outside the clock
	c.observe(-1, 7)
	if c[1] != 5 {
		t.Fatalf("max-merge lost a stamp: %v", c)
	}
	c.observe(2, 4)
	self := func(j int) bool { return j == 0 }
	if got := c.min(self); got != 0 {
		t.Errorf("slot 3 never marked: min = %d, want 0", got)
	}
	if got := c.min(func(j int) bool { return j == 0 || j == 3 }); got != 4 {
		t.Errorf("cohort {1,2}: min = %d, want 4", got)
	}
	if got := c.min(func(int) bool { return true }); got != maxSteps {
		t.Errorf("nobody left to wait for: min = %d, want maxSteps", got)
	}
	c.resetUpTo(1, 4) // 5 is above the bound: a newer incarnation's stamp
	c.resetUpTo(2, 4)
	if c[1] != 5 || c[2] != 0 {
		t.Errorf("resetUpTo(·, 4) left %v, want slot 1 kept and slot 2 cleared", c)
	}
}

// Duplicated markers are idempotent: the fence completes once, every
// worker acks once.
func TestFenceDuplicateMarks(t *testing.T) {
	dupAll := func(int) markFilter {
		return func(int, transport.Message) (bool, bool) { return false, true }
	}
	for _, c := range []transport.FenceClass{transport.FencePark, transport.FenceMember, transport.FenceStep} {
		r := newFenceRig(t, 3, c, nil, dupAll)
		r.run(c, 1, 3)
	}
}

// A dropped first marker is healed by the re-send — for every class.
func TestFenceDroppedMarkHealsByResend(t *testing.T) {
	for _, c := range []transport.FenceClass{transport.FencePark, transport.FenceMember, transport.FenceStep} {
		var mu sync.Mutex
		dropped := 0
		dropFirst := func(from int) markFilter {
			return func(to int, _ transport.Message) (bool, bool) {
				mu.Lock()
				defer mu.Unlock()
				if from == 0 && to == 1 && dropped == 0 {
					dropped++
					return true, false
				}
				return false, false
			}
		}
		r := newFenceRig(t, 2, c, nil, dropFirst)
		r.run(c, 1, 2)
		if dropped != 1 {
			t.Fatalf("class %d: the filter never dropped a mark", c)
		}
	}
}

// A slot that dies inside a fence does not hold the survivors: the
// fence's collect falls short, the liveness rule finds the silent slot
// lost — the survivors answer its probe from inside the cut — and
// releases the fence before anything else. With no Session to replace
// the slot, the run then ends with ErrWorkerLost, and both survivors
// leave.
func TestFenceOrphanLeavesCohort(t *testing.T) {
	c := transport.FenceMember
	r := newFenceRig(t, 3, c, map[int]bool{2: true}, nil)
	r.m.cfg.CollectTimeout = 50 * time.Millisecond
	if r.m.drive(transition{class: c, epoch: 1}, time.Now()) {
		t.Fatal("a fence short of a dead worker's ack completed")
	}
	if !errors.Is(r.m.err, ErrWorkerLost) || r.m.cause != StopWorkerLost {
		t.Fatalf("err %v, stop cause %v; want ErrWorkerLost", r.m.err, r.m.cause)
	}
	r.leave(2)
	for _, w := range r.ws[:2] {
		// The release precedes the Stop on the master's link.
		if f := &w.fences[c]; f.released != 1 {
			t.Errorf("worker %d left fence 1 with release %d: the rule did not release it", w.id, f.released)
		}
	}
}

// A park whose acks arrive after CollectTimeout — one report's deadline —
// still parks: a first mark that takes 80 ms to leave its sender keeps
// the cut past a 50 ms CollectTimeout, the workers answer the liveness
// rule's probe from inside the cut, and the master neither stops the run
// nor calls a worker lost.
// Released, the fleet leaves the park.
func TestFenceParkOutlastsCollectTimeout(t *testing.T) {
	c := transport.FencePark
	slow := func(int) markFilter {
		var once sync.Once
		return func(int, transport.Message) (bool, bool) {
			once.Do(func() { time.Sleep(80 * time.Millisecond) })
			return false, false
		}
	}
	r := newFenceRig(t, 2, c, nil, slow)
	r.m.cfg.CollectTimeout = 50 * time.Millisecond
	r.m.park, r.m.converged = true, true
	start := time.Now()
	r.m.finish(StopConverged)
	if !r.m.parked || r.m.err != nil || r.m.cause != StopConverged {
		t.Fatalf("parked=%v err=%v cause=%v after %v, want a park", r.m.parked, r.m.err, r.m.cause, time.Since(start))
	}
	if waited := time.Since(start); waited < r.m.cfg.CollectTimeout {
		t.Fatalf("the park took %v, under CollectTimeout: the test lost its subject", waited)
	}
	if h := r.m.met.reg.Snapshot().Histograms["master.fence.park_us"]; h.Count != 1 {
		t.Errorf("master.fence.park_us has %d samples, want 1", h.Count)
	}
	r.release(c, r.m.parks)
	r.leave(2)
}

// A release that overtakes the cut (the liveness rule giving a fence up
// on a lost peer) ends the fence: no action, no ack, the worker resumes.
// The membership fence's action zeroes the traffic counters, so counters
// that survive the fence show it never ran.
func TestFenceReleaseBeforeCutAbandons(t *testing.T) {
	c := transport.FenceMember
	r := newRig(t, 2, map[int]bool{1: true}, nil, func(w *worker) {
		w.sent, w.recv = 7, 7
		if w.foldUntil(func() bool { return w.fencePending(c) }, func() {}) {
			w.fence(c)
		}
	})
	r.request(c, 1)
	r.release(c, 1)
	select {
	case <-r.done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker 0 still waits for worker 1's mark after the release")
	}
	w := r.ws[0]
	if w.fencePending(c) {
		t.Error("abandoned fence is still pending")
	}
	if w.sent != 7 || w.recv != 7 {
		t.Error("abandoned fence still ran its action at a cut that never completed")
	}
	if got, _ := r.m.collectAcks(c, 1, 1, 20*time.Millisecond); got != 0 {
		t.Error("abandoned fence was acked")
	}
}

// A renewed slot's marker for the fence now running is already in the
// clock when the cut resets the link. The reset must clear what the
// slot's previous incarnation announced (up to the last fence this worker
// finished, e) and keep the marker of fence e+1.
func TestFenceSuccessorMarkSurvivesReset(t *testing.T) {
	r := newFenceRig(t, 3, transport.FenceMember, map[int]bool{0: true, 1: true, 2: true}, nil)
	w := r.ws[0]
	f := &w.fences[transport.FenceMember]
	const e = 4
	f.done = e
	f.marks.observe(1, e)   // slot 1's old incarnation, the last fence
	f.marks.observe(2, e+1) // slot 2's new incarnation, this fence
	steps := w.fences[transport.FenceStep].marks
	steps.observe(2, 17)
	w.renewLinks(transition{class: transport.FenceMember, epoch: e + 1, down: []int{1, 2}})
	if f.marks[1] != 0 {
		t.Errorf("replaced slot 1 keeps its old incarnation's stamp %d", f.marks[1])
	}
	if f.marks[2] != e+1 {
		t.Errorf("the running fence's first marker was wiped: stamp %d", f.marks[2])
	}
	if steps[2] != 0 {
		t.Errorf("replaced slot 2 keeps superstep clock %d; its new incarnation counts from zero", steps[2])
	}
}

// A worker holding a stop verdict at the gate yields to a park: the
// master parks the fleet at the superstep that converged (nothing is
// dirty, so superstep 1 is judged the last), and once the park is
// released, the worker's next superstep opens the next step fence.
// Without the yield the workers wait at the gate for ever and the park's
// collect runs out.
func TestFenceStepYieldsToPark(t *testing.T) {
	step, park := transport.FenceStep, transport.FencePark
	r := newRig(t, 2, nil, nil, func(w *worker) {
		if endSuperstep(w) && w.fencePending(park) && w.fence(park) {
			w.seed(w.plan.InitMRA)
			endSuperstep(w)
		}
	})
	if got, _ := r.m.collectAcks(step, 1, 2, 10*time.Second); got != 2 {
		t.Fatalf("superstep 1: %d/2 acks", got)
	}
	select {
	case id := <-r.done:
		t.Fatalf("worker %d left the gate on a stop verdict with no Stop or park", id)
	case <-time.After(20 * time.Millisecond):
	}
	r.request(park, 1)
	if got, _ := r.m.collectAcks(park, 1, 2, 5*time.Second); got != 2 {
		t.Fatalf("%d/2 workers reached the park: a park request must end the wait at the gate", got)
	}
	r.release(park, 1)
	if got, _ := r.m.collectAcks(step, 2, 2, 10*time.Second); got != 2 {
		t.Fatalf("superstep 2: %d/2 acks after the park's release", got)
	}
	r.leave(2)
}

// A replacement's cut forgets the Data windows a survivor's pre-request
// flushes left it, so the survivor's post-release sequence — restarted at
// its own cut — is counted whichever end commits first; the survivor
// renews its end of the link, and a link between two survivors keeps
// its continuity.
func TestFenceRenewsReplacedLinks(t *testing.T) {
	r := newFenceRig(t, 3, transport.FenceMember, map[int]bool{0: true, 1: true, 2: true}, nil)
	repair := transition{class: transport.FenceMember, epoch: 1, down: []int{1}}
	survivor, replacement := r.ws[0], r.ws[1]
	for _, seq := range []int64{1, 2} {
		survivor.dataSeen[2].fresh(seq)
	}
	survivor.dataSeq[1], survivor.dataSeq[2] = 40, 7
	replacement.dataSeen[0].fresh(41) // flushed into the fresh inbox before the request
	survivor.renewLinks(repair)
	replacement.renewLinks(repair)
	if survivor.dataSeq[1] != 0 || survivor.dataSeq[2] != 7 || survivor.dataSeen[2].next != 3 {
		t.Errorf("survivor: seq to the replacement %d (want 0), to a survivor %d (want 7), window %d (want 3)",
			survivor.dataSeq[1], survivor.dataSeq[2], survivor.dataSeen[2].next)
	}
	for seq := int64(1); seq <= 41; seq++ {
		if !replacement.dataSeen[0].fresh(seq) {
			t.Fatalf("the replacement counts the survivor's renewed batch %d as a duplicate", seq)
		}
	}
}
