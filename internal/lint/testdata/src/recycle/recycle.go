// Package fixture seeds violations of the batch-recycle contract for
// the recycle analyzer's golden test. Each want-annotated line must be
// flagged with a matching message; every other line must stay silent.
package fixture

import "powerlog/internal/transport"

func useAfterPut() float64 {
	kvs := transport.GetBatch(4)
	kvs = append(kvs, transport.KV{K: 1, V: 2})
	transport.PutBatch(kvs)
	return kvs[0].V // want "batch kvs used after PutBatch"
}

func doublePut(kvs []transport.KV) {
	transport.PutBatch(kvs)
	transport.PutBatch(kvs) // want "batch kvs used after PutBatch"
}

func useAfterSend(c transport.Conn, kvs []transport.KV) int {
	_ = c.Send(1, transport.Message{Kind: transport.Data, KVs: kvs})
	return len(kvs) // want "batch kvs used after Send"
}

func messageAfterSend(c transport.Conn, m transport.Message) int {
	_ = c.Send(1, m)
	return len(m.KVs) // want `batch m.KVs used after Send`
}

func channelHandoff(out chan transport.Message, kvs []transport.KV) {
	out <- transport.Message{Kind: transport.Data, KVs: kvs}
	kvs = kvs[:0] // want "batch kvs used after Send"
	_ = kvs
}

// siblingBranches must stay silent: the kill in the Data case must not
// poison the StatsRequest case, which handles a different message.
func siblingBranches(m transport.Message) int {
	switch m.Kind {
	case transport.Data:
		transport.PutBatch(m.KVs)
		return 1
	case transport.StatsRequest:
		return len(m.KVs)
	}
	return 0
}

// revive must stay silent: reassigning the variable gives it a fresh
// batch, and the earlier recycle no longer applies.
func revive() {
	kvs := transport.GetBatch(2)
	transport.PutBatch(kvs)
	kvs = transport.GetBatch(8)
	kvs = append(kvs, transport.KV{K: 3, V: 4})
	transport.PutBatch(kvs)
}

// nilOut must stay silent: codec-style `recycle then clear the field`
// revives m.KVs before anyone reads it.
func nilOut(m *transport.Message) {
	transport.PutBatch(m.KVs)
	m.KVs = nil
	_ = len(m.KVs)
}

// --- interprocedural: kills through helper calls ---

// recycleHelper kills its parameter; callers lose the batch.
func recycleHelper(b []transport.KV) {
	transport.PutBatch(b)
}

// forwardHelper hands the batch off two levels down.
func forwardHelper(b []transport.KV) {
	recycleHelper(b)
}

// borrowHelper only reads; callers keep the batch.
func borrowHelper(b []transport.KV) int {
	return len(b)
}

// maybeRecycle kills on one branch: may-kill still poisons callers.
func maybeRecycle(b []transport.KV, done bool) {
	if done {
		transport.PutBatch(b)
	}
}

// drainMessage recycles the batch inside a Message parameter.
func drainMessage(m transport.Message) {
	transport.PutBatch(m.KVs)
}

func useAfterHelper() float64 {
	kvs := transport.GetBatch(4)
	recycleHelper(kvs)
	return kvs[0].V // want "batch kvs used after call to recycleHelper"
}

func useAfterNestedHelper() {
	kvs := transport.GetBatch(4)
	forwardHelper(kvs)
	kvs = append(kvs, transport.KV{K: 1, V: 2}) // want "batch kvs used after call to forwardHelper"
	_ = kvs
}

func useAfterMaybe(done bool) int {
	kvs := transport.GetBatch(4)
	maybeRecycle(kvs, done)
	return len(kvs) // want "batch kvs used after call to maybeRecycle"
}

func messageThroughHelper(m transport.Message) int {
	drainMessage(m)
	return len(m.KVs) // want `batch m.KVs used after call to drainMessage`
}

// borrowIsFine must stay silent: the helper only reads the batch.
func borrowIsFine() {
	kvs := transport.GetBatch(4)
	_ = borrowHelper(kvs)
	kvs = append(kvs, transport.KV{K: 1, V: 2})
	transport.PutBatch(kvs)
}

// deferredHelper must stay silent before the function returns: the
// deferred call runs at exit, after the uses.
func deferredHelper() int {
	kvs := transport.GetBatch(4)
	defer recycleHelper(kvs)
	kvs = append(kvs, transport.KV{K: 1, V: 2})
	return len(kvs)
}

// reviveAfterHelper must stay silent: reassignment gives a fresh batch.
func reviveAfterHelper() {
	kvs := transport.GetBatch(2)
	recycleHelper(kvs)
	kvs = transport.GetBatch(8)
	transport.PutBatch(kvs)
}
