package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

func TestChannelNetworkBasic(t *testing.T) {
	net := NewChannelNetwork(2, 16)
	defer net.Close()
	w0, w1, master := net.Conn(0), net.Conn(1), net.Conn(MasterID(2))
	if w0.ID() != 0 || w1.ID() != 1 || master.ID() != 2 {
		t.Fatal("ids wrong")
	}
	if w0.Workers() != 2 {
		t.Fatal("workers wrong")
	}
	if err := w0.Send(1, Message{Kind: Data, KVs: []KV{{K: 7, V: 1.5}}}); err != nil {
		t.Fatal(err)
	}
	m := <-w1.Inbox()
	if m.Kind != Data || m.From != 0 || len(m.KVs) != 1 || m.KVs[0].K != 7 {
		t.Fatalf("got %+v", m)
	}
	if err := w1.Send(2, Message{Kind: StatsReply, Stats: Stats{Sent: 3, Dirty: true}}); err != nil {
		t.Fatal(err)
	}
	m = <-master.Inbox()
	if m.Kind != StatsReply || m.Stats.Sent != 3 || !m.Stats.Dirty {
		t.Fatalf("got %+v", m)
	}
}

func TestChannelNetworkOrdering(t *testing.T) {
	net := NewChannelNetwork(1, 128)
	defer net.Close()
	sender, receiver := net.Conn(1), net.Conn(0) // master → worker 0
	for i := 0; i < 100; i++ {
		if err := sender.Send(0, Message{Kind: Data, Round: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		m := <-receiver.Inbox()
		if m.Round != i {
			t.Fatalf("out of order: got %d at %d", m.Round, i)
		}
	}
}

func TestChannelNetworkSendErrors(t *testing.T) {
	net := NewChannelNetwork(1, 4)
	defer net.Close()
	if err := net.Conn(0).Send(99, Message{}); err == nil {
		t.Error("send to missing endpoint should fail")
	}
}

func TestChannelNetworkCloseIdempotent(t *testing.T) {
	net := NewChannelNetwork(1, 4)
	net.Close()
	net.Close() // must not panic
	// Send after close must not panic either (recover path).
	_ = net.Conn(0).Send(1, Message{})
}

func tcpTrio(t *testing.T) (*TCPConn, *TCPConn, *TCPConn) {
	t.Helper()
	// Start on ephemeral ports, then rewire the address books.
	boot := []string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"}
	w0, err := NewTCPEndpoint(0, 2, boot)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := NewTCPEndpoint(1, 2, boot)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewTCPEndpoint(2, 2, boot)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{w0.Addr(), w1.Addr(), m.Addr()}
	w0.SetAddressBook(addrs)
	w1.SetAddressBook(addrs)
	m.SetAddressBook(addrs)
	t.Cleanup(func() { w0.Close(); w1.Close(); m.Close() })
	return w0, w1, m
}

func TestTCPRoundTrip(t *testing.T) {
	w0, w1, master := tcpTrio(t)
	// Send takes ownership of the KV slice (the TCP path sorts it in
	// place and recycles it), so keep an independent copy to assert on.
	kvs := []KV{{K: 1, V: 2.5}, {K: 9, V: -3}}
	want := make([]KV, len(kvs))
	copy(want, kvs)
	if err := w0.Send(1, Message{Kind: Data, Round: 4, KVs: kvs}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-w1.Inbox():
		if m.Kind != Data || m.From != 0 || m.Round != 4 || len(m.KVs) != 2 || m.KVs[1] != want[1] {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout")
	}
	// Worker → master control message.
	if err := w1.Send(2, Message{Kind: StatsReply, Stats: Stats{Recv: 2, AccDelta: 0.5, Dirty: true}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-master.Inbox():
		if m.Stats.Recv != 2 || m.Stats.AccDelta != 0.5 || !m.Stats.Dirty {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout")
	}
}

func TestTCPManyMessagesOrdered(t *testing.T) {
	w0, w1, _ := tcpTrio(t)
	const n = 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := w0.Send(1, Message{Kind: Data, Round: i, KVs: []KV{{K: int64(i), V: float64(i)}}}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		select {
		case m := <-w1.Inbox():
			if m.Round != i {
				t.Fatalf("out of order: %d at %d", m.Round, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timeout")
		}
	}
	wg.Wait()
}

func TestTCPConcurrentSenders(t *testing.T) {
	w0, w1, master := tcpTrio(t)
	const per = 200
	var wg sync.WaitGroup
	for s, conn := range []*TCPConn{w0, master} {
		wg.Add(1)
		go func(s int, c *TCPConn) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := c.Send(1, Message{Kind: Data, KVs: []KV{{K: int64(s), V: 1}}}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s, conn)
	}
	got := 0
	for got < 2*per {
		select {
		case <-w1.Inbox():
			got++
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout after %d messages", got)
		}
	}
	wg.Wait()
}

func TestTCPErrors(t *testing.T) {
	if _, err := NewTCPEndpoint(0, 2, []string{"127.0.0.1:0"}); err == nil {
		t.Error("short address book should fail")
	}
	if _, err := NewTCPEndpoint(5, 2, []string{"a", "b", "c"}); err == nil {
		t.Error("bad id should fail")
	}
	w0, _, _ := tcpTrio(t)
	if err := w0.Send(99, Message{}); err == nil {
		t.Error("send to missing endpoint should fail")
	}
	if err := w0.Send(-1, Message{}); err == nil {
		t.Error("send to negative endpoint should fail")
	}
}

func TestTCPCloseUnblocksReaders(t *testing.T) {
	boot := []string{"127.0.0.1:0", "127.0.0.1:0"}
	w0, err := NewTCPEndpoint(0, 1, boot)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for range w0.Inbox() {
		}
		close(done)
	}()
	if err := w0.Close(); err != nil && err.Error() == "" {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("inbox not closed on Close")
	}
	// Double close is fine.
	_ = w0.Close()
}

func TestTCPAddrFormat(t *testing.T) {
	w0, _, _ := tcpTrio(t)
	if _, err := fmt.Sscanf(w0.Addr(), "127.0.0.1:%d", new(int)); err != nil {
		t.Errorf("Addr = %q", w0.Addr())
	}
}

// reservePort grabs an ephemeral loopback port and releases it, so tests
// can point an address book at a port with no listener (dial refused)
// and later resurrect a listener on the same address.
func reservePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func TestTCPSendFailsWithoutListener(t *testing.T) {
	dead := reservePort(t)
	w0, err := NewTCPEndpoint(0, 1, []string{"127.0.0.1:0", dead})
	if err != nil {
		t.Fatal(err)
	}
	defer w0.Close()
	w0.SetRetry(RetryPolicy{Attempts: 3, Backoff: 100 * time.Microsecond,
		BreakAfter: 100, Cooldown: time.Minute, DialTimeout: time.Second})
	if err := w0.Send(1, Message{Kind: StatsRequest}); err == nil {
		t.Fatal("send to a dead peer should exhaust its retries and fail")
	}
}

func TestTCPBreakerOpensThenFailsFast(t *testing.T) {
	dead := reservePort(t)
	w0, err := NewTCPEndpoint(0, 1, []string{"127.0.0.1:0", dead})
	if err != nil {
		t.Fatal(err)
	}
	defer w0.Close()
	w0.SetRetry(RetryPolicy{Attempts: 2, Backoff: 100 * time.Microsecond,
		BreakAfter: 3, Cooldown: time.Minute, DialTimeout: time.Second})
	var sawOpen bool
	for i := 0; i < 10; i++ {
		err := w0.Send(1, Message{Kind: StatsRequest})
		if err == nil {
			t.Fatal("dead peer send succeeded")
		}
		if errors.Is(err, ErrPeerUnavailable) {
			sawOpen = true
			break
		}
	}
	if !sawOpen {
		t.Fatal("breaker never opened after repeated dial failures")
	}
	// While open, sends fail fast — no dial, no retry sleeps.
	start := time.Now()
	if err := w0.Send(1, Message{Kind: StatsRequest}); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("open breaker should fail fast with ErrPeerUnavailable, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("fast-fail took %v", elapsed)
	}
}

func TestTCPBreakerHalfOpenRecovers(t *testing.T) {
	addr := reservePort(t)
	w0, err := NewTCPEndpoint(0, 1, []string{"127.0.0.1:0", addr})
	if err != nil {
		t.Fatal(err)
	}
	defer w0.Close()
	w0.SetRetry(RetryPolicy{Attempts: 2, Backoff: 100 * time.Microsecond,
		BreakAfter: 2, Cooldown: 5 * time.Millisecond, DialTimeout: time.Second})
	if err := w0.Send(1, Message{Kind: StatsRequest}); err == nil {
		t.Fatal("send before the peer exists should fail")
	}
	// The peer comes up on the reserved address; after the cooldown the
	// breaker's half-open probe redials and delivery succeeds.
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
	select {
	case m := <-w1.Inbox():
		if m.Kind != StatsRequest || m.Round != 7 {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recovered send never arrived")
	}
}

func TestTCPSendErrorKeepsOwnership(t *testing.T) {
	dead := reservePort(t)
	w0, err := NewTCPEndpoint(0, 1, []string{"127.0.0.1:0", dead})
	if err != nil {
		t.Fatal(err)
	}
	defer w0.Close()
	w0.SetRetry(RetryPolicy{Attempts: 1, Backoff: 100 * time.Microsecond,
		BreakAfter: 100, Cooldown: time.Minute, DialTimeout: time.Second})
	kvs := GetBatch(1)
	kvs = append(kvs, KV{K: 5, V: 9})
	msg := Message{Kind: Data, KVs: kvs}
	if err := w0.Send(1, msg); err == nil {
		t.Fatal("send to a dead peer should fail")
	}
	// On error the batch was not consumed: still intact, caller recycles.
	if len(kvs) != 1 || kvs[0].K != 5 || kvs[0].V != 9 {
		t.Fatalf("failed send corrupted the caller's batch: %+v", kvs)
	}
	PutBatch(kvs)
}
