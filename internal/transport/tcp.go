package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"powerlog/internal/metrics"
)

// ErrPeerUnavailable is returned by TCPConn.Send while a peer's circuit
// breaker is open: the link failed BreakAfter consecutive times and is in
// its cooldown, so sends fail fast instead of re-dialling a dead peer.
// The message was not consumed; the caller may retry after the cooldown.
var ErrPeerUnavailable = errors.New("transport: peer unavailable (circuit open)")

// RetryPolicy bounds TCPConn.Send's redial-and-retry behaviour.
type RetryPolicy struct {
	// Attempts is the number of delivery attempts per Send call.
	Attempts int
	// Backoff is the sleep before the first retry; it doubles per retry.
	Backoff time.Duration
	// BreakAfter consecutive link failures open the circuit breaker.
	BreakAfter int
	// Cooldown is how long the breaker stays open before a half-open
	// probe is allowed through.
	Cooldown time.Duration
	// DialTimeout bounds each dial attempt.
	DialTimeout time.Duration
}

// DefaultRetryPolicy is tuned so a transient hiccup (peer restarting, a
// dropped connection) heals within a few milliseconds while a dead peer
// costs each sender at most Attempts dials before the breaker opens.
var DefaultRetryPolicy = RetryPolicy{
	Attempts:    4,
	Backoff:     2 * time.Millisecond,
	BreakAfter:  8,
	Cooldown:    250 * time.Millisecond,
	DialTimeout: 2 * time.Second,
}

// TCPConn is a network endpoint over TCP with the length-prefixed binary
// codec of codec.go — the multi-process stand-in for the original
// system's OpenMPI layer. Every endpoint listens on its own address and
// lazily dials peers; one TCP connection per (sender, receiver) pair
// preserves pairwise ordering.
type TCPConn struct {
	id      int
	workers int

	listener net.Listener
	inbox    chan Message

	retry RetryPolicy
	met   *tcpMetrics // nil until SetMetrics; hot-path reads are nil-checked

	mu       sync.Mutex
	addrs    []string // len workers+1; index = endpoint id
	outs     map[int]*outConn
	accepted []net.Conn
	done     chan struct{}
	closed   atomic.Bool
	wg       sync.WaitGroup
	cerr     error
	close    sync.Once
}

// outConn is one peer link. Dialling runs lazily under the link's own
// mutex — never under the endpoint-wide one — so a slow or unreachable
// peer stalls only its own senders, not sends to every destination. A
// failed link is redialled on the next attempt until fails reaches the
// retry policy's BreakAfter, which opens the circuit until openUntil.
type outConn struct {
	addr string

	mu        sync.Mutex
	c         net.Conn
	buf       []byte // reusable frame-encode buffer, guarded by mu
	fails     int    // consecutive dial/write failures
	openUntil time.Time
}

// NewTCPEndpoint starts endpoint id of a TCP network whose endpoints live
// at addrs (workers 0..n-1 then the master at index n). The endpoint
// listens immediately; peers are dialled on first send, so endpoints may
// start in any order as long as sends begin after all peers listen.
func NewTCPEndpoint(id, workers int, addrs []string) (*TCPConn, error) {
	if len(addrs) != workers+1 {
		return nil, fmt.Errorf("transport: need %d addresses, got %d", workers+1, len(addrs))
	}
	if id < 0 || id > workers {
		return nil, fmt.Errorf("transport: bad endpoint id %d", id)
	}
	l, err := net.Listen("tcp", addrs[id])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addrs[id], err)
	}
	t := &TCPConn{
		id:       id,
		workers:  workers,
		addrs:    addrs,
		listener: l,
		inbox:    make(chan Message, 4096),
		outs:     map[int]*outConn{},
		done:     make(chan struct{}),
		retry:    DefaultRetryPolicy,
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the address the endpoint is actually listening on (useful
// when addrs contained ":0").
func (t *TCPConn) Addr() string { return t.listener.Addr().String() }

// SetAddressBook replaces the peer address table. Call it before any
// Send when endpoints were started on ephemeral (":0") ports and the
// real addresses were exchanged out of band.
func (t *TCPConn) SetAddressBook(addrs []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addrs = append([]string(nil), addrs...)
}

// ID implements Conn.
func (t *TCPConn) ID() int { return t.id }

// Workers implements Conn.
func (t *TCPConn) Workers() int { return t.workers }

// Inbox implements Conn.
func (t *TCPConn) Inbox() <-chan Message { return t.inbox }

func (t *TCPConn) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		// A conn accepted after Close took its copy of accepted would
		// never be closed, and Close would wait on its readLoop until the
		// remote end hung up. Close sets closed before it takes mu, so
		// under mu either Close has not copied yet or closed is visible.
		t.mu.Lock()
		if t.closed.Load() {
			t.mu.Unlock()
			c.Close()
			return
		}
		t.accepted = append(t.accepted, c)
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(c)
	}
}

func (t *TCPConn) readLoop(c net.Conn) {
	defer t.wg.Done()
	defer c.Close()
	r := bufio.NewReaderSize(c, 64<<10)
	var payload []byte
	for {
		plen, err := binary.ReadUvarint(r)
		if err != nil || plen > maxFrame {
			return
		}
		if uint64(cap(payload)) < plen {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(r, payload); err != nil {
			return
		}
		m, err := decodePayload(payload)
		if err != nil {
			return
		}
		select {
		case t.inbox <- m:
		case <-t.done:
			if m.Kind == Data {
				PutBatch(m.KVs)
			}
			return
		}
	}
}

// SetRetry replaces the endpoint's retry policy. Call before any Send.
func (t *TCPConn) SetRetry(p RetryPolicy) { t.retry = p }

// tcpMetrics is the endpoint's pre-resolved metric handles (DESIGN.md
// §8): retry pressure, circuit-breaker transitions, and per-peer
// traffic. All writes are single atomic ops on registered counters.
type tcpMetrics struct {
	retries      *metrics.Counter // tcp.send.retry: extra attempts beyond the first
	breakerOpen  *metrics.Counter // tcp.breaker.open: closed→open transitions
	breakerHalf  *metrics.Counter // tcp.breaker.halfopen: post-cooldown probes
	breakerClose *metrics.Counter // tcp.breaker.close: open→closed (probe succeeded)
	peerBatches  []*metrics.Counter
	peerBytes    []*metrics.Counter
}

// SetMetrics registers the endpoint's transport counters into reg. Like
// SetRetry, call it before any Send (the hot path reads t.met without a
// lock). nil disables instrumentation again.
func (t *TCPConn) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		t.met = nil
		return
	}
	tm := &tcpMetrics{
		retries:      reg.Counter("tcp.send.retry"),
		breakerOpen:  reg.Counter("tcp.breaker.open"),
		breakerHalf:  reg.Counter("tcp.breaker.halfopen"),
		breakerClose: reg.Counter("tcp.breaker.close"),
	}
	for j := 0; j <= t.workers; j++ {
		tm.peerBatches = append(tm.peerBatches, reg.Counter(fmt.Sprintf("tcp.peer%d.batch", j)))
		tm.peerBytes = append(tm.peerBytes, reg.Counter(fmt.Sprintf("tcp.peer%d.bytes", j)))
	}
	t.met = tm
}

// Send implements Conn. A failed dial or write is retried with
// exponential backoff up to the retry policy's attempt budget; past
// BreakAfter consecutive link failures the per-peer circuit breaker
// opens and sends fail fast with ErrPeerUnavailable until the cooldown
// elapses. On success the Data batch is recycled into the batch pool
// once encoded onto the wire (see the contract in batch.go); on error
// ownership stays with the caller.
func (t *TCPConn) Send(to int, m Message) error {
	m.From = t.id
	oc, err := t.peer(to)
	if err != nil {
		return err
	}
	backoff := t.retry.Backoff
	for attempt := 0; ; attempt++ {
		err = t.attempt(to, oc, &m)
		if err == nil {
			if m.Kind == Data {
				PutBatch(m.KVs)
			}
			return nil
		}
		// A closed endpoint or an open breaker will not heal within
		// this call's backoff budget: fail fast.
		if attempt+1 >= t.retry.Attempts ||
			errors.Is(err, ErrPeerUnavailable) || errors.Is(err, net.ErrClosed) {
			return err
		}
		if t.met != nil {
			t.met.retries.Inc()
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// attempt makes one delivery attempt: breaker check, lazy (re)dial,
// encode, write. It runs entirely under the link's mutex, so concurrent
// senders to the same peer serialise (preserving pairwise ordering)
// while sends to other peers proceed.
func (t *TCPConn) attempt(to int, oc *outConn, m *Message) error {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if t.closed.Load() {
		return net.ErrClosed
	}
	now := time.Now()
	if oc.fails >= t.retry.BreakAfter {
		if now.Before(oc.openUntil) {
			return fmt.Errorf("transport: endpoint %d at %s: %w", to, oc.addr, ErrPeerUnavailable)
		}
		// Cooldown elapsed with the breaker still open: this attempt is
		// the half-open probe.
		if t.met != nil {
			t.met.breakerHalf.Inc()
		}
	}
	if oc.c == nil {
		c, err := net.DialTimeout("tcp", oc.addr, t.retry.DialTimeout)
		if err != nil {
			t.linkFailed(oc, now)
			return fmt.Errorf("transport: dial endpoint %d at %s: %w", to, oc.addr, err)
		}
		if t.closed.Load() { // Close raced the dial; do not resurrect the link
			c.Close()
			return net.ErrClosed
		}
		oc.c = c
	}
	buf, start := appendFrame(oc.buf, m)
	oc.buf = buf
	if _, err := oc.c.Write(buf[start:]); err != nil {
		oc.c.Close()
		oc.c = nil // force a redial on the next attempt
		t.linkFailed(oc, now)
		return fmt.Errorf("transport: write endpoint %d: %w", to, err)
	}
	if t.met != nil {
		if oc.fails >= t.retry.BreakAfter {
			// A successful write through an open breaker closes it.
			t.met.breakerClose.Inc()
		}
		if to >= 0 && to < len(t.met.peerBatches) {
			t.met.peerBatches[to].Inc()
			t.met.peerBytes[to].Add(uint64(len(buf[start:])))
		}
	}
	oc.fails = 0
	return nil
}

// linkFailed records one more consecutive failure on a link, opening
// (or re-arming, for a failed half-open probe) its circuit breaker once
// the count reaches BreakAfter. Callers hold oc.mu.
func (t *TCPConn) linkFailed(oc *outConn, now time.Time) {
	oc.fails++
	if oc.fails >= t.retry.BreakAfter {
		// Count only the closed→open transition, not re-arms from failed
		// half-open probes.
		if t.met != nil && oc.fails == t.retry.BreakAfter {
			t.met.breakerOpen.Inc()
		}
		oc.openUntil = now.Add(t.retry.Cooldown)
	}
}

// peer returns the link to endpoint `to`, creating (not dialling) it on
// first use. The endpoint-wide mutex covers only the map lookup; dials
// happen lazily inside attempt under the link's own mutex.
func (t *TCPConn) peer(to int) (*outConn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	oc, ok := t.outs[to]
	if !ok {
		if to < 0 || to >= len(t.addrs) {
			return nil, fmt.Errorf("transport: no endpoint %d", to)
		}
		oc = &outConn{addr: t.addrs[to]}
		t.outs[to] = oc
	}
	return oc, nil
}

// Close implements Conn.
func (t *TCPConn) Close() error {
	t.close.Do(func() {
		// The closed flag pins every link dead before the sockets come
		// down: a racing Send observes it under the link mutex and
		// cannot dial a fresh connection after Close.
		t.closed.Store(true)
		close(t.done)
		t.cerr = t.listener.Close()
		t.mu.Lock()
		outs := make([]*outConn, 0, len(t.outs))
		for _, oc := range t.outs {
			outs = append(outs, oc)
		}
		accepted := t.accepted
		t.mu.Unlock()
		for _, oc := range outs {
			oc.mu.Lock()
			if oc.c != nil {
				oc.c.Close()
				oc.c = nil
			}
			oc.mu.Unlock()
		}
		for _, c := range accepted {
			c.Close()
		}
		t.wg.Wait()
		close(t.inbox)
	})
	return t.cerr
}
