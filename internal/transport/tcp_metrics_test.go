package transport

import (
	"testing"
	"time"

	"powerlog/internal/metrics"
)

// TestTCPMetricsRetryAndBreaker drives the dead-peer path and checks that
// the endpoint's counters track what the breaker actually did: extra
// attempts counted as retries, exactly one closed→open transition, and a
// half-open probe once the cooldown elapses.
func TestTCPMetricsRetryAndBreaker(t *testing.T) {
	dead := reservePort(t)
	w0, err := NewTCPEndpoint(0, 1, []string{"127.0.0.1:0", dead})
	if err != nil {
		t.Fatal(err)
	}
	defer w0.Close()
	reg := metrics.NewRegistry()
	w0.SetMetrics(reg)
	w0.SetRetry(RetryPolicy{Attempts: 2, Backoff: 100 * time.Microsecond,
		BreakAfter: 2, Cooldown: 5 * time.Millisecond, DialTimeout: time.Second})

	// One failed send: 2 attempts → 1 retry, 2 link failures → breaker
	// opens on the second (BreakAfter = 2).
	if err := w0.Send(1, Message{Kind: StatsRequest}); err == nil {
		t.Fatal("send to a dead peer should fail")
	}
	snap := reg.Snapshot()
	if got := snap.Counter("tcp.send.retry"); got != 1 {
		t.Errorf("tcp.send.retry = %d, want 1", got)
	}
	if got := snap.Counter("tcp.breaker.open"); got != 1 {
		t.Errorf("tcp.breaker.open = %d, want 1", got)
	}
	if got := snap.Counter("tcp.breaker.halfopen"); got != 0 {
		t.Errorf("tcp.breaker.halfopen = %d before cooldown, want 0", got)
	}

	// While open, sends fail fast without dialing: no new retries.
	if err := w0.Send(1, Message{Kind: StatsRequest}); err == nil {
		t.Fatal("open breaker should fail the send")
	}
	if got := reg.Snapshot().Counter("tcp.send.retry"); got != 1 {
		t.Errorf("tcp.send.retry = %d after fast-fail, want still 1", got)
	}

	// After the cooldown a send probes the link (half-open). The peer is
	// still dead, so the probe fails and the breaker re-arms — which must
	// NOT count as a second open transition.
	time.Sleep(10 * time.Millisecond)
	if err := w0.Send(1, Message{Kind: StatsRequest}); err == nil {
		t.Fatal("half-open probe to a dead peer should fail")
	}
	snap = reg.Snapshot()
	if got := snap.Counter("tcp.breaker.halfopen"); got == 0 {
		t.Error("tcp.breaker.halfopen = 0 after cooldown probe, want > 0")
	}
	if got := snap.Counter("tcp.breaker.open"); got != 1 {
		t.Errorf("tcp.breaker.open = %d after re-arm, want still 1", got)
	}
	if got := snap.Counter("tcp.breaker.close"); got != 0 {
		t.Errorf("tcp.breaker.close = %d with peer still dead, want 0", got)
	}
}

// TestTCPMetricsPerPeerTraffic checks the per-peer delivery counters on a
// live pair, and that a recovered link counts a breaker close.
func TestTCPMetricsPerPeerTraffic(t *testing.T) {
	w0, w1, _ := tcpTrio(t)
	reg := metrics.NewRegistry()
	w0.SetMetrics(reg)

	kvs := []KV{{K: 1, V: 2.5}, {K: 9, V: -3}}
	if err := w0.Send(1, Message{Kind: Data, Round: 1, KVs: kvs}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-w1.Inbox():
	case <-time.After(2 * time.Second):
		t.Fatal("timeout")
	}
	snap := reg.Snapshot()
	if got := snap.Counter("tcp.peer1.batch"); got != 1 {
		t.Errorf("tcp.peer1.batch = %d, want 1", got)
	}
	if got := snap.Counter("tcp.peer1.bytes"); got == 0 {
		t.Error("tcp.peer1.bytes = 0 after a delivered batch, want > 0")
	}
	if got := snap.Counter("tcp.peer0.batch"); got != 0 {
		t.Errorf("tcp.peer0.batch = %d, want 0 (nothing sent to self)", got)
	}
	if got := snap.Counter("tcp.send.retry"); got != 0 {
		t.Errorf("tcp.send.retry = %d on a healthy link, want 0", got)
	}
}

// TestTCPMetricsBreakerClose exercises open → half-open → closed: the
// peer comes up after the breaker opened, and the successful probe must
// count exactly one close.
func TestTCPMetricsBreakerClose(t *testing.T) {
	addr := reservePort(t)
	w0, err := NewTCPEndpoint(0, 1, []string{"127.0.0.1:0", addr})
	if err != nil {
		t.Fatal(err)
	}
	defer w0.Close()
	reg := metrics.NewRegistry()
	w0.SetMetrics(reg)
	w0.SetRetry(RetryPolicy{Attempts: 2, Backoff: 100 * time.Microsecond,
		BreakAfter: 2, Cooldown: 5 * time.Millisecond, DialTimeout: time.Second})
	if err := w0.Send(1, Message{Kind: StatsRequest}); err == nil {
		t.Fatal("send before the peer exists should fail")
	}
	w1, err := NewTCPEndpoint(1, 1, []string{"127.0.0.1:0", addr})
	if err != nil {
		t.Skipf("could not rebind reserved port %s: %v", addr, err)
	}
	defer w1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err = w0.Send(1, Message{Kind: StatsRequest, Round: 7}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("send never recovered after peer came up: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("tcp.breaker.close"); got != 1 {
		t.Errorf("tcp.breaker.close = %d after recovery, want 1", got)
	}
	if got := snap.Counter("tcp.peer1.batch"); got != 1 {
		t.Errorf("tcp.peer1.batch = %d after recovery, want 1", got)
	}
}
