package fault

import (
	"errors"
	"time"

	"powerlog/internal/transport"
)

// ErrInjected is the error returned by a fault-wrapped Send whose
// delivery was suppressed. Per the transport contract, the message was
// NOT consumed: ownership of a Data batch stays with the caller, whose
// retry path is expected to heal the fault.
var ErrInjected = errors.New("fault: injected send failure")

// Wrap decorates conn with the injector's data-plane faults. The
// wrapper preserves the TrySender capability when the inner conn has
// it, so the runtime's back-pressure handling is unchanged. Wrapped
// conns inherit the transport's concurrency contract (Send is safe for
// concurrent use) except for the fault event counters, which assume the
// runtime's one-comm-goroutine-per-conn discipline — the counters exist
// only to make injection decisions reproducible, and the runtime never
// sends on a worker conn from two goroutines.
func (i *Injector) Wrap(conn transport.Conn) transport.Conn {
	if i == nil {
		return conn
	}
	fc := &faultConn{inner: conn, inj: i, counts: make([]int, conn.Workers()+1)}
	if try, ok := conn.(transport.TrySender); ok {
		return &faultTryConn{faultConn: fc, try: try}
	}
	return fc
}

// faultConn interposes on the data plane: Data batches and superstep
// markers between workers. Master-bound traffic and control kinds pass
// through untouched (see the package comment for why).
type faultConn struct {
	inner  transport.Conn
	inj    *Injector
	counts []int // per-destination event counter (single comm goroutine)
}

func (c *faultConn) ID() int                         { return c.inner.ID() }
func (c *faultConn) Workers() int                    { return c.inner.Workers() }
func (c *faultConn) Inbox() <-chan transport.Message { return c.inner.Inbox() }
func (c *faultConn) Close() error                    { return c.inner.Close() }

// faultable limits injection to worker↔worker Data and end-of-superstep
// marks (the step class's FenceMarks: the BSP barrier's and the SSP
// gate's). The other fence classes' marks are spared: they belong to the
// recovery machinery itself, which models coordinator-adjacent loss via
// CrashRound instead.
func (c *faultConn) faultable(to int, m *transport.Message) bool {
	return to >= 0 && to < c.inner.Workers() && (m.Kind == transport.Data || stepMark(m))
}

func stepMark(m *transport.Message) bool {
	return m.Kind == transport.FenceMark && m.Fence == transport.FenceStep
}

// next returns the link's event index and advances it.
func (c *faultConn) next(to int) int {
	idx := c.counts[to]
	c.counts[to] = idx + 1
	return idx
}

// decide rolls the injection decisions for one event. dropped swallows
// the message (lost marker), failed suppresses delivery with an error
// or back-pressure, dup asks for a duplicate delivery of a Data batch.
func (c *faultConn) decide(to int, m *transport.Message, idx int) (dropped, failed, dup bool) {
	i := c.inj
	s := i.spec
	from := c.inner.ID()
	if stepMark(m) && s.DropEndPhase > 0 &&
		i.roll(siteDrop, from, to, idx) < s.DropEndPhase {
		return true, false, false
	}
	if i.partitioned(from, to, idx) ||
		(s.SendFail > 0 && i.roll(siteFail, from, to, idx) < s.SendFail) {
		return false, true, false
	}
	if s.DelayProb > 0 && i.roll(siteDelay, from, to, idx) < s.DelayProb {
		time.Sleep(s.DelayDur)
	}
	dup = m.Kind == transport.Data && s.DupData > 0 && i.roll(siteDup, from, to, idx) < s.DupData
	return false, false, dup
}

// sendDup delivers a copy of a Data batch through send, recycling the
// copy when delivery reports failure (undelivered = ownership back to
// this caller). Duplicate delivery models a retransmission racing its
// original — sound for selective aggregates, whose folds are
// idempotent.
func sendDup(m transport.Message, send func(transport.Message) bool) {
	dupKVs := transport.GetBatch(len(m.KVs))
	dupKVs = append(dupKVs, m.KVs...)
	dupMsg := transport.Message{Kind: transport.Data, From: m.From, Round: m.Round, KVs: dupKVs}
	if !send(dupMsg) {
		transport.PutBatch(dupKVs)
	}
}

func (c *faultConn) Send(to int, m transport.Message) error {
	if !c.faultable(to, &m) {
		return c.inner.Send(to, m)
	}
	dropped, failed, dup := c.decide(to, &m, c.next(to))
	if dropped {
		return nil // the marker is gone; duplicates from retransmission heal it
	}
	if failed {
		return ErrInjected // not delivered; the caller keeps ownership and retries
	}
	if dup {
		sendDup(m, func(d transport.Message) bool { return c.inner.Send(to, d) == nil })
	}
	return c.inner.Send(to, m)
}

// faultTryConn adds the TrySender capability on top of faultConn.
// Injected failures surface as back-pressure (false, nil): the sender's
// existing retry loop re-attempts, each attempt advances the link's
// event counter, and windowed faults (the partition) heal underneath it.
type faultTryConn struct {
	*faultConn
	try transport.TrySender
}

func (c *faultTryConn) TrySend(to int, m transport.Message) (bool, error) {
	if !c.faultable(to, &m) {
		return c.try.TrySend(to, m)
	}
	dropped, failed, dup := c.decide(to, &m, c.next(to))
	if dropped {
		return true, nil // swallowed: the sender believes it delivered
	}
	if failed {
		return false, nil // looks like back-pressure; the sender retries
	}
	if dup {
		sendDup(m, func(d transport.Message) bool {
			ok, err := c.try.TrySend(to, d)
			return ok && err == nil
		})
	}
	return c.try.TrySend(to, m)
}
