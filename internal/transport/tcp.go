package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"powerlog/internal/metrics"
)

// dialTimeout bounds one dial of a peer link.
const dialTimeout = 2 * time.Second

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

	met *tcpMetrics // nil until SetMetrics; hot-path reads are nil-checked

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
// failed write drops the connection, so the next Send redials.
type outConn struct {
	addr string

	mu  sync.Mutex
	c   net.Conn
	buf []byte // reusable frame-encode buffer, guarded by mu
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
		inbox:    make(chan Message, inboxCap),
		outs:     map[int]*outConn{},
		done:     make(chan struct{}),
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
	// A frame longer than the buffer bypasses it in io.ReadFull, so the
	// buffer need only batch the reads of small frames.
	r := bufio.NewReaderSize(c, 8<<10)
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

// tcpMetrics is the endpoint's pre-resolved per-peer traffic counters
// (DESIGN.md §8). All writes are single atomic ops on registered counters.
type tcpMetrics struct {
	peerBatches []*metrics.Counter
	peerBytes   []*metrics.Counter
}

// SetMetrics registers the endpoint's transport counters into reg. Call
// it before any Send (the hot path reads t.met without a lock). nil
// disables instrumentation again.
func (t *TCPConn) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		t.met = nil
		return
	}
	tm := &tcpMetrics{}
	for j := 0; j <= t.workers; j++ {
		tm.peerBatches = append(tm.peerBatches, reg.Counter(fmt.Sprintf("tcp.peer%d.batch", j)))
		tm.peerBytes = append(tm.peerBytes, reg.Counter(fmt.Sprintf("tcp.peer%d.bytes", j)))
	}
	t.met = tm
}

// Send implements Conn with one delivery attempt: a lazy (re)dial, then
// encode and write. A failed write drops the link, so the next Send
// redials; retrying is the caller's. The whole attempt runs under the
// link's mutex, so concurrent senders to the same peer serialise
// (preserving pairwise ordering) while sends to other peers proceed. On
// success the Data batch is recycled into the batch pool once encoded
// onto the wire (see the contract in batch.go); on error ownership stays
// with the caller.
func (t *TCPConn) Send(to int, m Message) error {
	m.From = t.id
	oc, err := t.peer(to)
	if err != nil {
		return err
	}
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if t.closed.Load() {
		return net.ErrClosed
	}
	if oc.c == nil {
		c, err := net.DialTimeout("tcp", oc.addr, dialTimeout)
		if err != nil {
			return fmt.Errorf("transport: dial endpoint %d at %s: %w", to, oc.addr, err)
		}
		if t.closed.Load() { // Close raced the dial; do not resurrect the link
			c.Close()
			return net.ErrClosed
		}
		oc.c = c
	}
	buf, start := appendFrame(oc.buf, &m)
	oc.buf = buf
	if _, err := oc.c.Write(buf[start:]); err != nil {
		oc.c.Close()
		oc.c = nil
		return fmt.Errorf("transport: write endpoint %d: %w", to, err)
	}
	if t.met != nil && to < len(t.met.peerBatches) {
		t.met.peerBatches[to].Inc()
		t.met.peerBytes[to].Add(uint64(len(buf) - start))
	}
	if m.Kind == Data {
		PutBatch(m.KVs)
	}
	return nil
}

// peer returns the link to endpoint `to`, creating (not dialling) it on
// first use. The endpoint-wide mutex covers only the map lookup; dials
// happen lazily inside Send under the link's own mutex.
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
