package runtime

import (
	"os"
	"sync"
	"testing"
	"time"

	"powerlog/internal/ckpt"
	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/progs"
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
			endSuperstep(w)
		} else if w.foldUntil(func() bool { return w.fencePending(c) }, func() {}) {
			w.fence(c)
		}
	})
}

// endSuperstep runs a BSP worker's superstep end on a rig worker, which
// has no compute loop: count the superstep, open its fence.
func endSuperstep(w *worker) bool {
	w.rounds++
	return bspBarrier{}.endPass(w, false)
}

// newRig is newFenceRig with the workers' part spelled out: body runs on
// each present worker's goroutine.
func newRig(t *testing.T, n int, absent map[int]bool, filter func(from int) markFilter, body func(w *worker)) *fenceRig {
	t.Helper()
	db := edb.NewDB()
	db.SetGraph("edge", gen.Uniform(40, 120, 10, 5))
	plan := compilePlan(t, progs.SSSP, db)
	cfg := Config{Workers: n, CoresPerWorker: 1, SnapshotDir: t.TempDir()}.withDefaults()
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
		r.m.bcast(r.m.transition(c, e).request())
	}
}

func (r *fenceRig) release(c transport.FenceClass, e int) {
	r.m.bcast(transport.Message{Kind: transport.FenceRelease, Fence: c, Round: e})
}

// run drives fence (c, e) to completion and fails the test unless
// exactly `need` acks arrive and as many workers leave the fence.
func (r *fenceRig) run(c transport.FenceClass, e, need int) {
	r.t.Helper()
	r.request(c, e)
	got, _, open := r.m.collectAcks(c, e, need, 10*time.Second, false)
	if !open || got != need {
		r.t.Fatalf("fence %d: %d/%d acks (network open: %v)", e, got, need, open)
	}
	// Every ack is in; one more would be a duplicate.
	if extra, _, _ := r.m.collectAcks(c, e, 1, 20*time.Millisecond, false); extra != 0 {
		r.t.Fatalf("fence %d: a worker acked twice", e)
	}
	r.release(c, e)
	for i := 0; i < need; i++ {
		select {
		case <-r.done:
		case <-time.After(10 * time.Second):
			r.t.Fatalf("fence %d: only %d/%d workers left the fence after its release", e, i, need)
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
	for _, c := range []transport.FenceClass{transport.FenceSnapshot, transport.FencePark, transport.FenceMember, transport.FenceStep} {
		r := newFenceRig(t, 3, c, nil, dupAll)
		r.run(c, 1, 3)
	}
}

// A dropped first marker is healed by the re-send — for every class,
// including the snapshot fence, whose hand-rolled predecessor never
// re-sent a mark (and ignored the master's release while waiting for
// one).
func TestFenceDroppedMarkHealsByResend(t *testing.T) {
	for _, c := range []transport.FenceClass{transport.FenceSnapshot, transport.FencePark, transport.FenceMember, transport.FenceStep} {
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
		if c == transport.FenceSnapshot {
			for _, w := range r.ws {
				if _, err := os.Stat(ckpt.ShardPath(w.cfg.SnapshotDir, 1, w.id)); err != nil {
					t.Errorf("snapshot fence healed but worker %d wrote no shard: %v", w.id, err)
				}
			}
		}
	}
}

// A slot named lost by a membership FenceRequest drops out of another
// class's cohort minimum: the survivors complete the cut without the dead
// worker's mark.
func TestFenceOrphanLeavesCohort(t *testing.T) {
	c := transport.FenceSnapshot
	r := newFenceRig(t, 3, c, map[int]bool{2: true}, nil)
	r.request(c, 1)
	if got, _, _ := r.m.collectAcks(c, 1, 1, 50*time.Millisecond, false); got != 0 {
		t.Fatal("a survivor acked while worker 2's mark was still owed")
	}
	repair := r.m.transition(transport.FenceMember, 1)
	repair.down = []int{2}
	r.m.bcast(repair.request())
	if got, _, _ := r.m.collectAcks(c, 1, 2, 10*time.Second, false); got != 2 {
		t.Fatalf("%d/2 survivors reached the cut after the request naming worker 2 lost", got)
	}
	r.release(c, 1)
	<-r.done
	<-r.done
}

// A park whose acks arrive after CollectTimeout — one report's deadline —
// but inside the fence deadline still parks: a first mark that takes
// 80 ms to leave its sender keeps the cut past a 50 ms CollectTimeout,
// and the master neither stops the run nor calls a worker lost.
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
	r.release(c, r.m.epoch)
	for i := 0; i < 2; i++ {
		select {
		case <-r.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d/2 workers left the park after its release", i)
		}
	}
}

// A release that overtakes the cut (the master's episode timeout) ends
// the fence: no action, no ack, the worker resumes.
func TestFenceReleaseBeforeCutAbandons(t *testing.T) {
	c := transport.FenceSnapshot
	r := newFenceRig(t, 2, c, map[int]bool{1: true}, nil)
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
	if _, err := os.Stat(ckpt.ShardPath(w.cfg.SnapshotDir, 1, 0)); err == nil {
		t.Error("abandoned fence still ran its action at a cut that never completed")
	}
	if got, _, _ := r.m.collectAcks(c, 1, 1, 20*time.Millisecond, false); got != 0 {
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

// A worker waiting for its superstep's release leaves the fence when a
// park is requested instead — the master parks the fleet at the
// superstep that converged, and never releases it — and once the park
// is released, its next superstep opens the next step fence. Without
// the yield the workers wait for a release that never comes and the
// park's collect runs out.
func TestFenceStepYieldsToPark(t *testing.T) {
	step, park := transport.FenceStep, transport.FencePark
	r := newRig(t, 2, nil, nil, func(w *worker) {
		if endSuperstep(w) && w.fencePending(park) && w.fence(park) {
			endSuperstep(w)
		}
	})
	if got, _, _ := r.m.collectAcks(step, 1, 2, 10*time.Second, false); got != 2 {
		t.Fatalf("superstep 1: %d/2 acks", got)
	}
	r.request(park, 1)
	if got, _, _ := r.m.collectAcks(park, 1, 2, 5*time.Second, false); got != 2 {
		t.Fatalf("%d/2 workers reached the park: a park request must end the wait for a step release", got)
	}
	r.release(park, 1)
	if got, _, _ := r.m.collectAcks(step, 2, 2, 10*time.Second, false); got != 2 {
		t.Fatalf("superstep 2: %d/2 acks after the park's release", got)
	}
	r.release(step, 2)
	for i := 0; i < 2; i++ {
		select {
		case <-r.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d/2 workers left superstep 2 after its release", i)
		}
	}
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
