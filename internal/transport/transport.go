// Package transport carries messages between PowerLog's distributed
// workers and the master. It replaces the OpenMPI layer of the original
// system with two interchangeable implementations: an in-process channel
// network (used by tests and benches) and a TCP network on net plus a
// hand-rolled length-prefixed binary codec (used by the multi-process
// cluster example). The engine is written against the Conn interface
// only: eight message kinds — data, the termination protocol and one
// four-kind fence protocol of three classes (the step class is the BSP
// barrier). Data
// messages carry pooled KV batches under the recycle contract documented
// in batch.go, so the steady-state update path allocates nothing.
package transport

import "fmt"

// inboxCap is an endpoint's inbox capacity in messages: the TCP
// endpoint's, and a channel network's unless it is given one. It is sized
// for the messages a fleet has in flight, not for a backlog: a full inbox
// only holds its senders back until the owner drains it, and every slot,
// 104 bytes, is allocated with the endpoint and resident for as long as it
// lives — a parked session's included.
const inboxCap = 256

// KV is one key/value update travelling between workers (a delta to fold
// into the destination row's Intermediate entry).
type KV struct {
	K int64
	V float64
}

// Kind discriminates messages.
type Kind uint8

// Message kinds. Data carries folded deltas; StatsRequest through Stop
// are the termination-control protocol (paper §5.3–5.4); the four Fence
// kinds are the one consistent-cut protocol (DESIGN.md "The fence") that
// BSP supersteps, session parking and crash re-join all instantiate,
// told apart by Message.Fence. A kind means the
// same thing whoever sends it.
const (
	Data         Kind = iota // worker → worker: KV batch (Round = per-link sequence number)
	StatsRequest             // master → workers: report stats for round Round
	StatsReply               // worker → master: Stats for round Round
	Stop                     // master → workers: terminate
	FenceRequest             // master → workers: open fence Round of class Fence (Member: the lost slots)
	FenceMark                // worker → worker, data lane: cut marker of fence Round (step class: + Stats)
	FenceAck                 // worker → master (step class at the cut: and peers): reached the cut of fence Round and ran its action (+ Stats)
	FenceRelease             // master → workers: fence Round is over, resume

	numKinds = int(iota) // sentinel: sizes kindNames, so a new kind without a name fails the codec table test
)

var kindNames = [numKinds]string{"Data", "StatsRequest", "StatsReply", "Stop",
	"FenceRequest", "FenceMark", "FenceAck", "FenceRelease"}

// String names the message kind.
func (k Kind) String() string {
	if int(k) < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// FenceClass says which protocol a fence message belongs to. The three
// classes share the wire protocol; they differ in who opens them, in
// what runs at the cut, and in when the master releases — a superstep
// never.
type FenceClass uint8

const (
	FencePark   FenceClass = iota // session epoch boundary (Round = session epoch); held until the next Apply
	FenceMember                   // crash repair: lost slots replaced in place (Round = fence number)
	// FenceStep is the end of a BSP superstep (Round = superstep, counted
	// across a session's epochs). Each worker opens it itself; its mark
	// (or, where the report is ready only at the cut, its ack) carries the
	// superstep's Stats to the peers, who judge the superstep, and its ack
	// carries them to the master. The SSP staleness gate reads the same
	// marks as its superstep clock. Nobody releases it.
	FenceStep

	NumFenceClasses = int(iota)
)

// Stats is a worker's progress report.
type Stats struct {
	Sent     int64   // cumulative KVs sent
	Recv     int64   // cumulative KVs received
	AccDelta float64 // Σ|accumulation change| since last report
	AccSum   float64 // aggregate over the local Accumulation column (§5.4's termination thread)
	Passes   int64   // compute-loop passes completed (progress gating for ε checks)
	Dirty    bool    // dirty rows, held deltas or unflushed buffers: local work is pending
}

// Message is the single wire format for data and control traffic. It
// travels by value through every channel send, so the fence class shares
// Kind's word and a membership request's lost slots sit behind one
// pointer (13 words in all).
type Message struct {
	Kind   Kind
	Fence  FenceClass // Fence* kinds: the fence's class
	From   int
	Round  int
	Member *Membership // FenceRequest of class FenceMember only
	KVs    []KV
	Stats  Stats // StatsReply, FenceAck and a step-class FenceMark only
}

// carriesStats reports whether m's kind has a Stats payload: a report,
// an ack, or a superstep's mark, which carries the superstep's report.
func (m *Message) carriesStats() bool {
	return m.Kind == StatsReply || m.Kind == FenceAck || m.Kind == FenceMark && m.Fence == FenceStep
}

// Membership is what a FenceMember request asks of the fleet: which lost
// slots are replaced in place, and — for a barriered fleet — the last
// superstep the master collected whole, from which every worker resumes.
// How the fleet repairs its state follows from the aggregate class, which
// every worker knows.
type Membership struct {
	Down []int32 // lost slots, each replaced in place
	Base int32   // barriered modes: the fleet resumes at superstep Base+1
}

// Conn is one endpoint's connection to the network. Inbox returns a
// single stream of all incoming messages. Send must be safe for
// concurrent use; messages between a fixed (sender, receiver) pair are
// delivered in order.
type Conn interface {
	// ID is this endpoint's index: workers are 0..Workers-1, the master
	// is Workers.
	ID() int
	// Workers is the number of worker endpoints.
	Workers() int
	// Send delivers m to endpoint `to`. On success (nil error) Send
	// takes ownership of the message: the caller must not touch it
	// (including the KV slice) afterwards. A Data batch is recycled
	// into the batch pool by whoever sees it last — the receiver after
	// folding it, or the transport itself once it is encoded onto a
	// wire. An error means this one attempt did not deliver — a dead or
	// reset link, a closed endpoint — and the message was NOT consumed:
	// ownership stays with the caller, who may retry the same message or
	// recycle the batch. A transport does not retry a failed send
	// itself; the runtime's sendRetrying is the one retry loop.
	Send(to int, m Message) error
	// Inbox is the endpoint's receive stream. It is closed when the
	// network shuts down.
	Inbox() <-chan Message
	// Close releases the endpoint.
	Close() error
}

// TrySender is an optional Conn capability: non-blocking sends, so a
// sender can interleave other work while a destination is back-pressured.
type TrySender interface {
	TrySend(to int, m Message) (bool, error)
}

// MasterID returns the endpoint index of the master for a network with n
// workers.
func MasterID(n int) int { return n }
