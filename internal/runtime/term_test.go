package runtime

import (
	"testing"
	"time"

	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/progs"
	"powerlog/internal/transport"
)

// The machine's own unit and property tests live in internal/term; these
// are the runtime's half of the event-driven detector: the worker's idle
// reports and the master that stops on them (`make test-term` runs both
// at 1, 2 and 4 procs).

// TestTermSessionApplyNeedsNoTimer is the regression test for the floor
// that sat under every Session.Apply, without a wall clock in it: an
// empty Apply and a delete of an edge that does not exist fold nothing,
// so the fleet's idle reports are the whole epoch — the master must stop
// on them, in at most two waves, never having waited out a CheckInterval
// (here a second long: a timer wave would also show as a slow test).
func TestTermSessionApplyNeedsNoTimer(t *testing.T) {
	for _, mode := range []Mode{MRASyncAsync, MRAAsync, MRASSP} {
		t.Run(mode.String(), func(t *testing.T) {
			g := gen.Uniform(300, 1800, 50, 5)
			cfg := sessCfg(mode)
			cfg.CheckInterval = time.Second
			s, err := Open(compilePlan(t, progs.SSSP, edgeDB("edge")(g)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			absent := graph.Edge{Src: 1, Dst: 1}
			for _, e := range g.Edges() {
				if e.Src == absent.Src && e.Dst == absent.Dst {
					t.Fatal("fixture has the edge the test deletes as absent")
				}
			}
			for name, mut := range map[string]Mutation{
				"empty":              {},
				"absent-edge delete": {Deletes: []graph.Edge{absent}},
			} {
				before := s.Result().Master
				res, err := s.Apply(mut)
				if err != nil || !res.Converged {
					t.Fatalf("%s: %v (result %+v)", name, err, res)
				}
				timer := res.Master.Counter("master.wave.timer") - before.Counter("master.wave.timer")
				idle := res.Master.Counter("master.wave.idle") - before.Counter("master.wave.idle")
				if timer != 0 || idle == 0 || res.Rounds > 2 {
					t.Errorf("%s: %d timer waves, %d idle waves, %d rounds; want 0, >= 1, <= 2", name, timer, idle, res.Rounds)
				}
			}
		})
	}
}

// TestTermIdleReportRationing pins when a worker volunteers a report:
// once per distinct (sent, recv) state, never with work pending, freely
// until the master's first poll of the fixpoint, then the next idle state
// and one per idleEvery polls — and afresh after a fence starts a new
// fixpoint.
func TestTermIdleReportRationing(t *testing.T) {
	g := gen.Uniform(20, 60, 10, 3)
	plan := compilePlan(t, progs.SSSP, edgeDB("edge")(g))
	net := transport.NewChannelNetwork(1, 256)
	cfg := Config{Workers: 1, Mode: MRAAsync, Tau: time.Hour, CheckInterval: time.Hour, MaxWall: time.Hour}
	w := newWorker(0, cfg.withDefaults(), plan, net.Conn(0))
	defer func() {
		close(w.out)
		close(w.outCtrl)
		<-w.commDone
	}()
	master := net.Conn(transport.MasterID(1)).Inbox()
	// told reads what has reached the master since the last call: every
	// reply up to the one a sentinel poll produces, in the order sent.
	sentinel := 1000
	told := func() (idle int) {
		t.Helper()
		sentinel++
		w.replyStats(sentinel)
		for m := range master {
			switch {
			case m.Kind != transport.StatsReply:
				t.Fatalf("master got %v", m.Kind)
			case m.Round == sentinel:
				return idle
			case m.Round == 0:
				if m.Stats.Dirty {
					t.Fatal("an idle report says work is pending")
				}
				idle++
			}
		}
		return idle
	}
	step := func(what string, want int, f func()) {
		t.Helper()
		f()
		if got := told(); got != want {
			t.Fatalf("%s: %d idle reports, want %d", what, got, want)
		}
	}
	poll := func() { w.handle(transport.Message{Kind: transport.StatsRequest, Round: 7}) }

	step("first idle state", 1, w.reportIdle)
	step("same state again", 0, w.reportIdle)
	step("new state before any poll", 1, func() { w.sent++; w.reportIdle() })
	step("work pending", 0, func() { w.recv++; w.table.FoldDelta(3, 1); w.reportIdle() })
	w.table.ScanDirty(func(k int64) { w.table.Drain(k) })
	step("a pass in progress", 0, func() { w.inPass = true; w.reportIdle(); w.inPass = false })
	step("drained", 1, w.reportIdle)
	step("first idle state after the first poll", 1, func() { poll(); w.recv++; w.reportIdle() })
	step("the next one is rationed", 0, func() { w.recv++; w.reportIdle() })
	step("still rationed a poll short", 0, func() {
		for i := 0; i < idleEvery-1; i++ {
			poll()
		}
		w.reportIdle()
	})
	step("due after idleEvery polls", 1, func() { poll(); w.reportIdle() })
	step("a new fixpoint starts over", 1, func() { w.idle = newIdleReports(); w.reportIdle() })
}

// TestTermControlTrafficIsNotProgress: a drained inbox counts as progress
// only if it brought rows. Polls and markers must leave the pass counter
// alone, or an idle SSP fleet trading markers never shows the master the
// same pass count twice.
func TestTermControlTrafficIsNotProgress(t *testing.T) {
	g := gen.Uniform(20, 60, 10, 3)
	w := standaloneWorker(t, compilePlan(t, progs.SSSP, edgeDB("edge")(g)),
		Config{Mode: MRASSP, Tau: time.Hour, CheckInterval: time.Hour, MaxWall: time.Hour})
	send := func(m transport.Message) {
		t.Helper()
		if err := w.conn.Send(0, m); err != nil {
			t.Fatal(err)
		}
	}
	send(transport.Message{Kind: transport.FenceMark, Fence: transport.FenceStep, Round: 1})
	send(transport.Message{Kind: transport.StatsRequest, Round: 1})
	if w.drainInbox() {
		t.Fatal("a marker and a poll counted as progress")
	}
	send(transport.Message{Kind: transport.FenceMark, Fence: transport.FenceStep, Round: 2})
	send(transport.Message{Kind: transport.Data, Round: 1, KVs: append(transport.GetBatch(1), transport.KV{K: 3, V: 1})})
	if !w.drainInbox() {
		t.Fatal("a Data batch did not count as progress")
	}
}
