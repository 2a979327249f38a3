package runtime

import (
	"fmt"

	"powerlog/internal/metrics"
	"powerlog/internal/transport"
)

// This file holds the runtime's observability plumbing (DESIGN.md §8):
// the per-worker and master metric sets registered into
// internal/metrics registries. The policies register their own counters
// through the registry handed to the policy factory (policy.go);
// everything here is the worker- and master-owned remainder.

// workerMetrics is one worker's pre-resolved metric handles. They are
// resolved once in newWorker so the hot paths (flush, handle)
// pay a single atomic op per event — no map lookups, no allocations.
type workerMetrics struct {
	reg *metrics.Registry

	// flushSize[j] is the per-destination flush-size histogram
	// ("flush.size.dst<j>", KVs per Data batch) — which destinations
	// dominate traffic and how well the β dial is batching.
	flushSize []*metrics.Histogram
	// recvBatches / dupBatches split inbound Data batches into
	// first deliveries and duplicates ("recv.batch" / "recv.dup.batch");
	// duplicates fold idempotently but stay out of the termination
	// watermark (see handle).
	recvBatches *metrics.Counter
	dupBatches  *metrics.Counter
	// markerResends counts fence-mark retransmissions from stalled cuts —
	// a superstep's, the staleness gate's or any other fence's
	// ("barrier.marker.resend").
	markerResends *metrics.Counter
	// steals counts subshard ranges a scan core took from a sibling's
	// deque ("scan.steal") — how often the work-stealing pool actually
	// rebalanced a skewed pass (DESIGN.md §9).
	steals *metrics.Counter
	// parallelPasses counts scan passes that fanned out over the core
	// pool ("scan.parallel.pass"); passes below the scanMinKeys gate run
	// on core 0 alone and are not counted.
	parallelPasses *metrics.Counter
	// subPassUS is the per-subshard scan duration histogram in
	// microseconds ("scan.subshard.pass_us") — the skew the stealing
	// deque exists to absorb. A pass that does not fan out is not in it.
	subPassUS *metrics.Histogram
	// stragglerUS is the per-block straggler-wait histogram in
	// microseconds ("barrier.straggler.wait_us"), one observation per
	// SSP gate block.
	stragglerUS *metrics.Histogram
}

func newWorkerMetrics(nw int) workerMetrics {
	reg := metrics.NewRegistry()
	m := workerMetrics{
		reg:            reg,
		flushSize:      make([]*metrics.Histogram, nw),
		recvBatches:    reg.Counter("recv.batch"),
		dupBatches:     reg.Counter("recv.dup.batch"),
		markerResends:  reg.Counter("barrier.marker.resend"),
		steals:         reg.Counter("scan.steal"),
		parallelPasses: reg.Counter("scan.parallel.pass"),
		subPassUS:      reg.Histogram("scan.subshard.pass_us"),
		stragglerUS:    reg.Histogram("barrier.straggler.wait_us"),
	}
	for j := range m.flushSize {
		m.flushSize[j] = reg.Histogram(fmt.Sprintf("flush.size.dst%d", j))
	}
	return m
}

// masterMetrics is the termination controller's metric set.
type masterMetrics struct {
	reg *metrics.Registry

	// rounds counts master protocol rounds ("master.round": BSP
	// supersteps or async check rounds).
	rounds *metrics.Counter
	// collectWaitUS is the per-round collect latency in microseconds
	// ("master.collect.wait_us"): broadcast to last report.
	collectWaitUS *metrics.Histogram
	// collectTimeouts counts collects abandoned at the liveness deadline
	// ("master.collect.timeout") — each one is an ErrWorkerLost.
	collectTimeouts *metrics.Counter
	// collectProbes counts second-chance re-solicitations: a collect's
	// first deadline expiry re-polls the silent workers directly
	// ("master.collect.probe") before declaring anyone lost, so a worker
	// that is merely deep in a long compute pass is distinguished from a
	// dead one.
	collectProbes *metrics.Counter
	// wavesIdle / wavesTimer split the async rounds by what started the
	// wave ("master.wave.idle" / "master.wave.timer"): a worker's idle
	// report completing a quiet picture, or the CheckInterval fallback
	// tick. A fixpoint that ended with no timer wave stopped on events
	// alone; one that needed them waited out an interval.
	wavesIdle, wavesTimer *metrics.Counter
	// fenceUS is each driven fence's duration in microseconds by class
	// ("master.fence.snapshot_us" / "park_us" / "member_us"): from the
	// master's decision — before any worker is spawned for it — to the
	// release, or to the last ack of a park, which the session holds. A
	// superstep's fence is not driven; its collect is master.collect.wait_us.
	fenceUS [transport.NumFenceClasses]*metrics.Histogram

	// Re-join counters (membership.go, DESIGN.md §11). memberJoins counts
	// crash replacements admitted through a fence ("master.member.join");
	// memberOrphans counts the lost slots a fence took out
	// ("master.member.orphan").
	memberJoins   *metrics.Counter
	memberOrphans *metrics.Counter

	// Session lifecycle counters (session.go, DESIGN.md §10). epochs
	// counts fixpoints the session has converged ("engine.epoch");
	// reseedKeys counts ΔX¹ correction entries folded at Apply
	// ("delta.reseed.keys"); invalidateKeys counts table keys erased by
	// deletion invalidation ("delete.invalidate.keys") — together they
	// size the incremental work a mutation actually caused. What finding
	// it cost (compiler.Refixpoint): borderRows, the keys re-propagated
	// over the new graph ("delta.border.rows"); edgesRead, the edges the
	// delta step looked at ("delta.edges.read"); indexRebuilds, the
	// times it built its in-edge index ("delta.index.rebuilds" — 0 for
	// a session that never erases a key). What applying it cost:
	// edgesMoved, the edges the CSR splice copied ("delta.edges.moved").
	epochs         *metrics.Counter
	reseedKeys     *metrics.Counter
	invalidateKeys *metrics.Counter
	borderRows     *metrics.Counter
	edgesRead      *metrics.Counter
	indexRebuilds  *metrics.Counter
	edgesMoved     *metrics.Counter
}

func newMasterMetrics() masterMetrics {
	reg := metrics.NewRegistry()
	return masterMetrics{
		reg:             reg,
		rounds:          reg.Counter("master.round"),
		collectWaitUS:   reg.Histogram("master.collect.wait_us"),
		collectTimeouts: reg.Counter("master.collect.timeout"),
		collectProbes:   reg.Counter("master.collect.probe"),
		wavesIdle:       reg.Counter("master.wave.idle"),
		wavesTimer:      reg.Counter("master.wave.timer"),
		fenceUS: [transport.NumFenceClasses]*metrics.Histogram{
			transport.FenceSnapshot: reg.Histogram("master.fence.snapshot_us"),
			transport.FencePark:     reg.Histogram("master.fence.park_us"),
			transport.FenceMember:   reg.Histogram("master.fence.member_us"),
		},
		memberJoins:    reg.Counter("master.member.join"),
		memberOrphans:  reg.Counter("master.member.orphan"),
		epochs:         reg.Counter("engine.epoch"),
		reseedKeys:     reg.Counter("delta.reseed.keys"),
		invalidateKeys: reg.Counter("delete.invalidate.keys"),
		borderRows:     reg.Counter("delta.border.rows"),
		edgesRead:      reg.Counter("delta.edges.read"),
		indexRebuilds:  reg.Counter("delta.index.rebuilds"),
		edgesMoved:     reg.Counter("delta.edges.moved"),
	}
}
