package runtime

import (
	"fmt"

	"powerlog/internal/compiler"
	"powerlog/internal/metrics"
	"powerlog/internal/monotable"
)

// Scheduler implementations (§5.4): which dirty keys a pass drains, and
// low-priority holding, as strategies.

// fifoSched admits every dirty key — the schedule of every plan the
// bucket scheduler does not take, for the reason why.
type fifoSched struct{ why string }

func (fifoSched) admit() monotable.Admit { return monotable.Admit{} }
func (fifoSched) left(far, small int)    {}
func (fifoSched) release() bool          { return false }
func (fifoSched) rearm()                 {}
func (fifoSched) holding() bool          { return false }
func (s fifoSched) String() string       { return "fifo: " + s.why }

// bucketSched is delta-stepping (Meyer & Sanders 2003) for the plans
// whose program holds the bucket licence (analyzer.Facts.Schedule: a
// selective aggregate over v + w) and whose edges never improve a value
// (compiler.Kernel.Step). A key's value is then only as final as it is close
// to the frontier's best, and everything farther is a guess whose
// relaxations will mostly be superseded. Each pass it admits the dirty
// keys within one bucket width of the dirty set's best value, and the
// rest are held: they stay dirty in place, so the table itself tells the
// idle detector and BSP's Stats.Dirty that work remains, and P1 with
// Theorem 3 licenses the order.
type bucketSched struct {
	asc bool // min aggregate: the best value is the smallest
	// kernel.Step() is the width Δ, read per pass: a session's mutation
	// can end the premise or begin it, and at 0 the schedule is FIFO.
	kernel *compiler.Kernel
	// held: a pass held keys since the last productive pass, so a pass
	// that propagated nothing still left dirty keys behind (release).
	held bool

	// sched.bucket.passes counts the passes gated, sched.bucket.held the
	// keys left to wait — once per pass each.
	passes, heldKeys *metrics.Counter
}

// admit is a bucket Δ wide: the drain reads the best value b of the
// dirty set (the least when asc, else the greatest) and admits the keys
// within Δ of it — at least the best key of a non-empty dirty set. A key
// exactly at the limit is near; so is a NaN, which no comparison can
// place.
func (s *bucketSched) admit() monotable.Admit {
	width := s.kernel.Step()
	if width == 0 {
		return monotable.Admit{}
	}
	s.passes.Inc()
	sign := 1.0
	if !s.asc {
		sign = -1 // the greatest value is the least of the negated ones
	}
	return monotable.Admit{Sign: sign, Width: width}
}

func (s *bucketSched) left(far, _ int) {
	if far > 0 {
		s.held = true
		s.heldKeys.Add(uint64(far))
	}
}

// release reports whether the pass that just propagated nothing held keys
// back: they are dirty in the table, so the worker passes again at once
// rather than wait out an idle timer on work it already has.
func (s *bucketSched) release() bool {
	held := s.held
	s.held = false
	return held
}

// rearm follows a productive pass, which is followed by another whatever
// was held: only what a later, unproductive pass holds matters.
func (s *bucketSched) rearm() { s.held = false }

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
type priorityHold struct {
	inner     Scheduler
	threshold float64
	off       bool // released: let small deltas through
	held      bool // at least one delta is waiting locally

	// Per-decision observability (DESIGN.md §8): sched.hold counts
	// deltas parked below the threshold, sched.release counts the
	// hold→release cycles taken when the worker would otherwise idle.
	holds, releases *metrics.Counter
}

// admit holds, of what the inner schedule admits, the deltas below the
// threshold: their rows stay dirty; the held flag keeps the idle detector
// from treating that as pending work forever.
func (s *priorityHold) admit() monotable.Admit {
	a := s.inner.admit()
	if !s.off {
		a.Threshold = s.threshold
	}
	return a
}

func (s *priorityHold) left(far, small int) {
	s.inner.left(far, 0)
	if small > 0 {
		s.held = true
		s.holds.Add(uint64(small))
	}
}

func (s *priorityHold) String() string { return s.inner.String() }

func (s *priorityHold) release() bool {
	if !s.held {
		return false
	}
	s.off, s.held = true, false
	s.releases.Inc()
	return true
}

func (s *priorityHold) rearm()        { s.off = false }
func (s *priorityHold) holding() bool { return s.held }
