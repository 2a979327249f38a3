package runtime

import (
	"fmt"
	"math"
	"sync/atomic"

	"powerlog/internal/agg"
	"powerlog/internal/compiler"
	"powerlog/internal/metrics"
)

// Scheduler implementations (§5.4): drain order and low-priority
// holding as strategies, replacing the former inline branches in the
// compute loops.

// fifoSched processes the dirty set in drain (first-touch) order with
// no holding — the schedule of every plan the bucket scheduler does not
// take, for the reason why.
type fifoSched struct{ why string }

func (fifoSched) arrange(batch []drained) int { return len(batch) }
func (fifoSched) release() bool               { return false }
func (fifoSched) rearm()                      {}
func (fifoSched) holding() bool               { return false }
func (s fifoSched) String() string            { return "fifo: " + s.why }

// bucketSched is delta-stepping (Meyer & Sanders 2003) for the plans
// whose program holds the bucket licence (analyzer.Facts.Schedule: a
// selective aggregate over v + w) and whose edges never improve a value
// (compiler.Kernel.Step). A key's value is then only as final as it is close
// to the frontier's best, and everything farther is a guess whose
// relaxations will mostly be superseded. Of each drained batch it
// processes the keys within one bucket width of the batch's best value
// and holds the rest, which the pass re-folds — they stay dirty, so the
// table itself tells the idle detector and BSP's Stats.Dirty that work
// remains, and P1 with Theorem 3 licenses the order.
//
// arrange keeps nothing between calls but the held flag, so the cores of
// a fanned-out pass can each gate their own subshards.
type bucketSched struct {
	asc bool // min aggregate: the best value is the smallest
	// kernel.Step() is the width Δ, read per batch: a session's mutation
	// can end the premise or begin it, and at 0 the schedule is FIFO.
	kernel *compiler.Kernel
	// held: a batch was split since the last productive pass, so a pass
	// that propagated nothing still left dirty keys behind (release).
	held atomic.Bool

	// sched.bucket.passes counts the batches gated, sched.bucket.held the
	// keys sent back to wait — once per batch each.
	passes, heldKeys *metrics.Counter
}

func (s *bucketSched) arrange(batch []drained) int {
	width := s.kernel.Step()
	if width == 0 {
		return len(batch)
	}
	s.passes.Inc()
	k := partitionNear(batch, s.asc, width)
	if k < len(batch) {
		s.held.Store(true)
		s.heldKeys.Add(uint64(len(batch) - k))
	}
	return k
}

// partitionNear moves the entries within width of the batch's best value
// (the least when asc, else the greatest) to the front, keeping their
// order, and returns how many there are: at least one of a non-empty
// batch. An entry exactly at the limit is near; so is a NaN, which no
// comparison can place.
func partitionNear(batch []drained, asc bool, width float64) int {
	sign := 1.0
	if !asc {
		sign = -1 // the greatest value is the least of the negated ones
	}
	best := math.Inf(1)
	for _, d := range batch {
		if v := sign * d.val; v < best {
			best = v
		}
	}
	limit := best + width
	k := 0
	for i, d := range batch {
		if !(sign*d.val > limit) {
			batch[i], batch[k] = batch[k], d
			k++
		}
	}
	return k
}

// release reports whether the pass that just propagated nothing held keys
// back: they are dirty in the table, so the worker passes again at once
// rather than wait out an idle timer on work it already has.
func (s *bucketSched) release() bool { return s.held.Swap(false) }

// rearm follows a productive pass, which is followed by another whatever
// was held: only what a later, unproductive pass holds matters.
func (s *bucketSched) rearm() { s.held.Store(false) }

// holding is false: the held keys are dirty rows, which pending() sees.
func (*bucketSched) holding() bool { return false }
func (s *bucketSched) String() string {
	if width := s.kernel.Step(); width > 0 {
		return fmt.Sprintf("bucket(Δ=%.3g)", width)
	}
	return "fifo: " + s.kernel.StepWhy()
}

// priorityHold layers §5.4's importance-based holding over an inner
// drain order: combining-aggregate deltas below the threshold wait in
// the local intermediate, accumulating until the worker would otherwise
// idle; release then lets one pass run unthrottled, and the next
// productive pass rearms the hold.
// Its arrange runs inside the scan pass, which may fan out over the
// per-core subshard pool (subshard.go), so the two flags are atomic:
// several cores can park deltas concurrently while the owner reads the
// flags at pass boundaries.
type priorityHold struct {
	inner     Scheduler
	threshold float64
	off       atomic.Bool // released: let small deltas through
	held      atomic.Bool // at least one delta is waiting locally

	// Per-decision observability (DESIGN.md §8): sched.hold counts
	// deltas parked below the threshold, sched.release counts the
	// hold→release cycles taken when the worker would otherwise idle.
	holds, releases *metrics.Counter
}

// arrange holds, of what the inner schedule lets through, the deltas
// below the threshold. The pass refolds them, which marks their rows
// dirty again; the held flag keeps the idle detector from treating that
// as pending work forever.
func (s *priorityHold) arrange(batch []drained) int {
	n := s.inner.arrange(batch)
	if s.off.Load() {
		return n
	}
	k := 0
	for i, d := range batch[:n] {
		if agg.Abs(d.val) >= s.threshold {
			batch[i], batch[k] = batch[k], d
			k++
		}
	}
	if k < n {
		s.held.Store(true)
		s.holds.Add(uint64(n - k))
	}
	return k
}

func (s *priorityHold) String() string { return s.inner.String() }

func (s *priorityHold) release() bool {
	if !s.held.Load() {
		return false
	}
	s.off.Store(true)
	s.held.Store(false)
	s.releases.Inc()
	return true
}

func (s *priorityHold) rearm()        { s.off.Store(false) }
func (s *priorityHold) holding() bool { return s.held.Load() }
