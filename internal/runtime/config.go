// Package runtime is PowerLog's distributed execution runtime (paper §5):
// workers own MonoTable shards and exchange folded deltas through a
// transport; a master runs the periodic termination check. One worker
// codebase — a single unified compute loop — implements all evaluation
// modes by plugging in per-mode policies (policy.go): a FlushPolicy for
// message buffering (§5.3), a Scheduler for drain order and priority
// holding (§5.4), and a BarrierPolicy for synchronisation (§5.2). The
// registered modes are naive synchronous, MRA synchronous (BSP), MRA
// asynchronous, the paper's unified sync-async mode with adaptive
// message buffers, the AAP comparison mode of §6.5, and a stale
// synchronous parallel (SSP) mode (ssp.go).
package runtime

import (
	"fmt"
	stdruntime "runtime"
	"time"

	"powerlog/internal/fault"
	"powerlog/internal/metrics"
)

// Mode selects the evaluation strategy.
type Mode int

// Evaluation modes. The zero value is MRASyncAsync, PowerLog's unified
// engine — the recommended default. NaiveSync models SociaLite-style
// naive evaluation; MRASync models BigDatalog-style semi-naive BSP;
// MRAAsync models Myria-style asynchronous evaluation; MRAAAP
// re-implements Grape+'s adaptive asynchronous parallel model for
// Figure 11; MRASSP is stale synchronous parallel evaluation — BSP-style
// supersteps with a barrier relaxed to Config.Staleness steps (ssp.go).
const (
	MRASyncAsync Mode = iota
	NaiveSync
	MRASync
	MRAAsync
	MRAAAP
	MRASSP
)

var modeNames = [...]string{"MRA+SyncAsync", "Naive+Sync", "MRA+Sync", "MRA+Async", "MRA+AAP", "MRA+SSP"}

// String returns the mode's display name (Figure 10's series labels).
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return "Mode(?)"
}

// MRA reports whether the mode uses incremental (MRA) evaluation.
func (m Mode) MRA() bool { return m != NaiveSync }

// Config tunes the runtime. Zero values select documented defaults.
type Config struct {
	// Workers is the number of worker shards (default 4).
	Workers int
	// Mode is the evaluation strategy (default MRASyncAsync).
	Mode Mode

	// Tau is the message-passing interval τ (default 2ms).
	Tau time.Duration

	// Staleness bounds how many supersteps ahead of the slowest peer an
	// MRASSP worker may run before blocking on stragglers (default 2).
	// Other modes ignore it.
	Staleness int

	// CoresPerWorker is the number of goroutines each MRA worker may use
	// for its scan/fold/emit pass (intra-worker parallelism, DESIGN.md
	// §9). A pass whose predecessor drained at least 1024 keys splits the
	// shard into subshards and runs them on a work-stealing pool of this
	// many cores; a smaller frontier is scanned by the worker's own
	// goroutine alone, through the same body. Sound for MRA programs by
	// the P1 property — range folds commute, so any interleaving reaches
	// the same fixpoint. 1 never fans out; <= 0 selects
	// min(GOMAXPROCS, 8). Naive mode ignores it.
	CoresPerWorker int

	// CheckInterval is the async master's fallback cadence (default 1ms),
	// not a latency floor: the master stops on the workers' idle reports
	// as they arrive, and polls every CheckInterval regardless — which
	// bounds the stop at two intervals past quiescence when a report is
	// rationed or lost or the fleet is busy. It is also the grid the ε
	// criterion samples on: two ε samples are never closer than this.
	CheckInterval time.Duration
	// CollectTimeout bounds how long the master waits for any single
	// report during a collect (a superstep's FenceAck or a StatsReply). A
	// worker dying mid-collect then surfaces as ErrWorkerLost instead of a
	// hang. The deadline covers one message, so it effectively resets on
	// every report a collect was waiting for. 0 (the default) falls back to
	// MaxWall — a dead worker still cannot hang the run, and a healthy run with long compute
	// passes cannot trip it spuriously. A timeout landing past the wall
	// budget (always the case for the fallback) is reported as an
	// ordinary non-converged abort; only a timeout within the budget is
	// a lost worker. A fence's acks wait on 20× it (floored at 2 s).
	CollectTimeout time.Duration
	// PriorityThreshold enables §5.4's importance-based flushing for
	// combining aggregates: deltas below the threshold wait in the local
	// intermediate until the worker has no other work. 0 disables.
	PriorityThreshold float64

	// MaxWall aborts a run after this long (default 2 minutes).
	MaxWall time.Duration

	// SnapshotDir enables checkpointing for every MRA mode. BSP modes
	// write each worker's shard at every SnapshotEvery-th barrier — a
	// consistent cut, since no messages are in flight at a barrier. The
	// async family and SSP write epoch-stamped snapshots too: selective
	// (min/max) aggregates snapshot locally at pass boundaries with no
	// coordination (a stale snapshot restores correctly under the
	// paper's Theorem 3 — replayed or reordered deltas cannot change a
	// selective fixpoint); combining aggregates (sum/count) run a
	// Chandy–Lamport-style marker episode driven by the master every
	// SnapshotEvery-th check round, producing a consistent cut.
	SnapshotDir   string
	SnapshotEvery int

	// RestoreDir resumes a run from the snapshots in the directory
	// instead of seeding ΔX¹ (any MRA mode, any worker count).
	// Consistent-cut snapshots restore state exactly; stale snapshots
	// (refused for non-selective aggregates) warm-start the run by
	// re-folding the saved rows over the normal ΔX¹ seed.
	RestoreDir string

	// Fault plugs a deterministic fault injector into the run: a
	// fault-wrapping transport conn, a stall-decorating barrier, and the
	// master's crash/restart hooks. nil (the default) injects nothing
	// and adds nothing to the hot path.
	Fault *fault.Injector

	// Network emulates the paper's cluster fabric on the in-process
	// transport (17 Aliyun nodes, 1.5 Gbps): each outgoing message costs
	// a fixed latency plus its KV volume divided by the per-node NIC
	// rate, serialised through the worker's communication thread. The
	// zero profile is a perfect network (tests use that).
	Network NetworkProfile
}

// NetworkProfile models link cost for the in-process transport.
type NetworkProfile struct {
	// Latency is the fixed per-message cost (serialisation + RTT share).
	Latency time.Duration
	// KVsPerSecond is the per-node NIC throughput in KV updates/second
	// (a KV is ~16 bytes; 1.5 Gbps ≈ 10M KV/s). 0 = infinite.
	KVsPerSecond float64
}

// cost returns the emulated wire time of a message with n KVs.
func (p NetworkProfile) cost(n int) time.Duration {
	d := p.Latency
	if p.KVsPerSecond > 0 {
		d += time.Duration(float64(n) / p.KVsPerSecond * float64(time.Second))
	}
	return d
}

// Enabled reports whether any emulation is configured.
func (p NetworkProfile) Enabled() bool { return p.Latency > 0 || p.KVsPerSecond > 0 }

// ConfigError reports a Config field that fails validation, with the
// field name machine-readable so callers can test for the exact
// rejection (errors.As).
type ConfigError struct {
	Field  string // the Config field name, e.g. "Staleness"
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("runtime: invalid Config.%s: %s", e.Field, e.Reason)
}

// Validate rejects Config values that look like plausible settings but
// have no defined meaning, before withDefaults would silently replace
// them. Zero values are always legal (they select the documented
// defaults), and PriorityThreshold < 0 stays legal — it is the
// documented way to disable priority flushing explicitly. Run, Open,
// RunWorker, and RunMaster all call this; it is exported so callers can
// validate a config up front.
func (c Config) Validate() error {
	for _, f := range []struct {
		field  string
		bad    bool
		reason string
	}{
		{"Workers", c.Workers < 0, fmt.Sprintf("negative worker count %d; use 0 for the default fleet or a positive count", c.Workers)},
		{"Mode", !modeRegistered(c.Mode), fmt.Sprintf("mode %d has no registered policies", c.Mode)},
		{"Tau", c.Tau < 0, fmt.Sprintf("negative flush interval %v; use 0 for the default τ", c.Tau)},
		{"Staleness", c.Staleness < 0, fmt.Sprintf("negative staleness %d; SSP needs a bound >= 0 (0 selects the default)", c.Staleness)},
		{"CoresPerWorker", c.CoresPerWorker < 0, fmt.Sprintf("negative core count %d; use 0 for the GOMAXPROCS default or a positive count", c.CoresPerWorker)},
		{"CheckInterval", c.CheckInterval < 0, fmt.Sprintf("negative check interval %v; use 0 for the default cadence", c.CheckInterval)},
		{"CollectTimeout", c.CollectTimeout < 0, fmt.Sprintf("negative collect timeout %v; use 0 for the MaxWall fallback", c.CollectTimeout)},
		{"MaxWall", c.MaxWall < 0, fmt.Sprintf("negative wall budget %v; use 0 for the default budget", c.MaxWall)},
		{"SnapshotEvery", c.SnapshotEvery < 0, fmt.Sprintf("negative checkpoint period %d; use 0 for no periodic checkpoints", c.SnapshotEvery)},
	} {
		if f.bad {
			return &ConfigError{Field: f.field, Reason: f.reason}
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Tau <= 0 {
		c.Tau = 2 * time.Millisecond
	}
	if c.Staleness <= 0 {
		c.Staleness = 2
	}
	if c.CoresPerWorker <= 0 {
		c.CoresPerWorker = stdruntime.GOMAXPROCS(0)
		if c.CoresPerWorker > 8 {
			c.CoresPerWorker = 8
		}
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = time.Millisecond
	}
	if c.MaxWall <= 0 {
		c.MaxWall = 2 * time.Minute
	}
	return c
}

// Result is a completed run.
type Result struct {
	// Values maps every key with a non-identity accumulation to its
	// final value.
	Values map[int64]float64
	// Rounds counts BSP supersteps (sync modes) or the master's stats
	// waves (async modes).
	Rounds int
	// MessagesSent / MessagesRecv count KV updates crossing workers.
	MessagesSent, MessagesRecv int64
	// Flushes counts data messages (batches) sent.
	Flushes int64
	// Elapsed is wall-clock runtime excluding plan compilation.
	Elapsed time.Duration
	// Converged is false when the run stopped on the iteration cap or
	// wall-clock limit instead of its termination condition.
	Converged bool
	// StopCause says why the fixpoint ended — in particular why a run
	// with Converged == false and a nil error did.
	StopCause StopCause
	// Kernel names the loop that propagated this program: the class of
	// the plan's F' kernel (rowconst, addw, mulw or generic; DESIGN.md
	// §9), or "naive" when the mode re-derives instead of propagating.
	Kernel string
	// Sched names the schedule its compute passes drained under (DESIGN.md
	// §5b): "bucket(Δ=…)" with the bucket width, the mean |w| of the plan's
	// graph, or "fifo: " and why — the reason the program's facts give
	// (analyzer.Facts.Schedule), or the edge of the graph that fails the
	// bucket licence's premise.
	Sched string
	// Workers holds per-worker observability, indexed by worker id.
	Workers []WorkerStats
	// Master snapshots the termination controller's metrics (protocol
	// rounds, collect-wait histogram, liveness timeouts).
	Master metrics.Snapshot
}

// StopCause is the reason the master ended a fixpoint.
type StopCause uint8

const (
	StopNone            StopCause = iota // the fixpoint has not ended
	StopConverged                        // the program's termination condition held (ε or distributed quiescence)
	StopIterationCap                     // the program's iteration cap was reached first
	StopWall                             // Config.MaxWall expired
	StopWorkerLost                       // a worker stayed silent past the collect deadline and could not be re-joined
	StopFenceAborted                     // a membership or park fence did not complete within its deadline
	StopInjected                         // the fault injector's crash round
	StopTransportClosed                  // the master's inbox closed underneath it
)

var stopCauseNames = [...]string{"none", "converged", "iteration cap", "wall clock", "worker lost",
	"fence aborted", "stopped by injector", "transport closed"}

func (c StopCause) String() string {
	if int(c) < len(stopCauseNames) {
		return stopCauseNames[c]
	}
	return fmt.Sprintf("StopCause(%d)", uint8(c))
}

// WorkerStats is one worker's per-run observability: how the mode's
// policies actually behaved (flush counts, the β trajectory of the
// adaptive buffer rule, SSP straggler wait).
type WorkerStats struct {
	// Sent / Recv count KV updates crossing this worker's boundary.
	Sent, Recv int64
	// Flushes counts data messages (batches) this worker sent.
	Flushes int64
	// Passes counts productive compute passes (async family and SSP).
	Passes int64
	// Beta samples the mean adaptive buffer size β(i,·) once per
	// adaptation window (unified mode with combining aggregates only).
	Beta []float64
	// StragglerWait is the total time an MRASSP worker spent blocked at
	// the staleness gate waiting for slower peers.
	StragglerWait time.Duration
	// Metrics is the worker's full per-policy metric snapshot (DESIGN.md
	// §8): hold/release cycles, bucket-schedule gates, per-destination
	// flush-size histograms, β band exits and clamps,
	// straggler-wait histogram, marker retransmits, duplicate batches.
	Metrics metrics.Snapshot
}
