package transport

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// ChannelNetwork is the in-process transport: one buffered channel per
// endpoint. Endpoint n (the last) is the master.
//
// Endpoints can be replaced while the network is live (ResetConn) so a
// crashed worker's slot can be re-pointed at a fresh inbox: senders
// always resolve the destination's *current* channel under the lock,
// while each conn keeps the inbox it was born with — a stale conn held
// by a dead worker's goroutines can never steal messages addressed to
// its replacement.
type ChannelNetwork struct {
	mu     sync.RWMutex
	chans  []chan Message
	conns  []*channelConn
	bufCap int
	closed bool
}

// NewChannelNetwork creates a network with n workers plus a master
// endpoint. bufCap is the per-endpoint inbox capacity; at 0 it is the
// transport's inboxCap.
func NewChannelNetwork(n int, bufCap int) *ChannelNetwork {
	if bufCap <= 0 {
		bufCap = inboxCap
	}
	net := &ChannelNetwork{
		chans:  make([]chan Message, n+1),
		conns:  make([]*channelConn, n+1),
		bufCap: bufCap,
	}
	for i := range net.chans {
		net.chans[i] = make(chan Message, bufCap)
		net.conns[i] = &channelConn{net: net, id: i, workers: n, inbox: net.chans[i]}
	}
	return net
}

// Conn returns endpoint i's connection (workers 0..n-1, master n).
func (n *ChannelNetwork) Conn(i int) Conn {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.conns[i]
}

// ResetConn replaces endpoint i with a fresh inbox and returns the new
// connection. The old inbox is closed (unblocking any stale reader) and
// any messages still queued in it are dropped — exactly the semantics of
// a worker crash. Messages sent to i after the reset land in the new
// inbox.
func (n *ChannelNetwork) ResetConn(i int) Conn {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return n.conns[i]
	}
	old := n.chans[i]
	n.chans[i] = make(chan Message, n.bufCap)
	n.conns[i] = &channelConn{net: n, id: i, workers: n.conns[i].workers, inbox: n.chans[i]}
	close(old)
	return n.conns[i]
}

// Close shuts the network down, closing every inbox.
func (n *ChannelNetwork) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	for _, ch := range n.chans {
		close(ch)
	}
}

type channelConn struct {
	net     *ChannelNetwork
	id      int
	workers int
	inbox   chan Message
}

func (c *channelConn) ID() int      { return c.id }
func (c *channelConn) Workers() int { return c.workers }

// trySend performs one non-blocking delivery attempt under the network
// read lock. Holding the lock across the channel operation (the select
// never blocks) is what makes it sound against ResetConn and Close:
// both close channels only under the write lock, after unlinking them
// from chans, so a channel resolved here cannot be closed mid-send — no
// send-on-closed panic, no race.
func (c *channelConn) trySend(to int, m Message) (bool, error) {
	c.net.mu.RLock()
	defer c.net.mu.RUnlock()
	if to < 0 || to >= len(c.net.chans) {
		return false, fmt.Errorf("transport: no endpoint %d", to)
	}
	// Sending on a closed network after Stop is benign for the caller;
	// report it as an error rather than crashing the worker goroutine.
	if c.net.closed {
		return false, fmt.Errorf("transport: network closed")
	}
	// Generation fence: once ResetConn has replaced this endpoint, the
	// stale conn a dead (or presumed-dead) worker still holds must not
	// inject into the network — its slot's replacement starts from fresh
	// sequence numbers, so a late delivery from the old generation would
	// corrupt the receivers' dedup windows and the global send/recv
	// accounting. Failing the send here makes the fencing total: it
	// covers messages to *every* destination, not just the reset slot.
	if c.net.conns[c.id] != c {
		return false, fmt.Errorf("transport: endpoint %d was reset; this connection is fenced off", c.id)
	}
	m.From = c.id
	select {
	case c.net.chans[to] <- m:
		return true, nil
	default:
		return false, nil
	}
}

// TrySend attempts a non-blocking delivery; it reports false when the
// destination inbox is full. The runtime uses it to keep control traffic
// flowing while bulk data is back-pressured.
func (c *channelConn) TrySend(to int, m Message) (bool, error) {
	return c.trySend(to, m)
}

// Send blocks until delivery by retrying the locked non-blocking send
// under a Backoff. The lock is never held while waiting, so a
// back-pressured destination cannot stall a concurrent ResetConn — and
// a destination that is reset out from under a blocked Send surfaces as
// the fence error on the next attempt instead of wedging forever.
func (c *channelConn) Send(to int, m Message) error {
	var bo Backoff
	for {
		ok, err := c.trySend(to, m)
		if ok || err != nil {
			return err
		}
		bo.Wait()
	}
}

func (c *channelConn) Inbox() <-chan Message { return c.inbox }

func (c *channelConn) Close() error { return nil }

// Backoff is the escalating wait of a back-pressure loop: a few pure
// spins (the common case resolves within microseconds), then scheduler
// yields, then sleeps that grow to a 200µs ceiling — so a stalled
// destination costs neither latency in the common case nor a burned
// core in the worst one.
type Backoff struct{ n int }

// Wait waits one step longer than the last call.
func (b *Backoff) Wait() {
	b.n++
	switch {
	case b.n <= 4:
		// Spin: the inbox often drains within a few hundred ns.
	case b.n <= 16:
		runtime.Gosched()
	default:
		time.Sleep(min(time.Duration(b.n-16)*10*time.Microsecond, 200*time.Microsecond))
	}
}

// Reset starts the escalation over, after progress.
func (b *Backoff) Reset() { b.n = 0 }
