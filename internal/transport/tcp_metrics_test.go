package transport

import (
	"testing"
	"time"

	"powerlog/internal/metrics"
)

// TestTCPMetricsPerPeerTraffic checks the per-peer delivery counters on a
// live pair.
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
}
