package runtime

import (
	"time"

	"powerlog/internal/transport"
)

// Snapshot episodes give the async family and SSP a consistent cut for
// combining aggregates (sum/count), where a stale snapshot is NOT safe
// to restore: re-delivered deltas would be double-counted. An episode is
// a fence of class FenceSnapshot (fence.go) whose action at the cut
// writes the shard; the master opens one every SnapshotEvery-th check
// round. Selective aggregates skip all of this: they snapshot locally
// with no coordination (maybeStaleSnapshot) because Theorem 3's replay
// tolerance makes a stale restore safe.

// maybeStaleSnapshot writes a local, uncoordinated snapshot at every
// SnapshotEvery-th pass boundary — selective aggregates only, where
// Theorem 3 licenses restoring stale state. epoch is the worker's own
// pass/step count; workers drift apart, and LoadAll reassembles the
// newest shard per worker.
func (w *worker) maybeStaleSnapshot(epoch int) {
	if w.cfg.SnapshotDir == "" || w.cfg.SnapshotEvery <= 0 || !w.plan.Op.Selective() {
		return
	}
	if epoch <= w.staleEpoch || epoch%w.cfg.SnapshotEvery != 0 {
		return
	}
	w.staleEpoch = epoch
	_ = w.snapshot(epoch, false) // best-effort, like the BSP barrier path
}

// snapshotsDue reports whether the polling master should run a snapshot
// episode after check round `round`. Selective aggregates snapshot
// locally instead, so episodes apply only to combining aggregates.
func (m *master) snapshotsDue(round int) bool {
	return m.cfg.SnapshotDir != "" && m.cfg.SnapshotEvery > 0 &&
		!m.plan.Op.Selective() &&
		round > 0 && round%m.cfg.SnapshotEvery == 0
}

// episodeTimeout bounds how long the master waits for the workers' acks
// before abandoning an episode. An abandoned epoch leaves an incomplete
// shard set on disk; LoadAll refuses it and falls back to the last
// complete epoch, so the timeout costs durability progress, never
// correctness.
const episodeTimeout = 250 * time.Millisecond

// snapshotFence drives one snapshot episode. It always releases — even
// on timeout — because workers that did reach the cut are blocked
// waiting for it. Returns false if the network died.
func (m *master) snapshotFence() bool {
	// Episodes are numbered by a cumulative counter so checkpoint epochs
	// stay monotonic across session fixpoints (the round restarts at 0
	// each epoch; reusing its quotient would overwrite newer cuts).
	m.episodes++
	m.bcast(transport.Message{Kind: transport.FenceRequest, Fence: transport.FenceSnapshot, Round: m.episodes})
	_, open := m.collectAcks(transport.FenceSnapshot, m.episodes, m.activeCount(), time.Now().Add(episodeTimeout))
	m.bcast(transport.Message{Kind: transport.FenceRelease, Fence: transport.FenceSnapshot, Round: m.episodes})
	return open
}
