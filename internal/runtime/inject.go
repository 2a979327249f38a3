package runtime

import (
	"time"

	"powerlog/internal/fault"
)

// stallBarrier decorates a mode's BarrierPolicy with deterministic
// straggler injection: before every injector-selected compute pass the
// worker sleeps, exercising BSP barrier waits, the SSP staleness gate,
// and the async master's idle detection. Living outside the policy
// implementations, it costs nothing when no injector is configured and
// needs no mode-specific code.
type stallBarrier struct {
	inner BarrierPolicy
	inj   *fault.Injector
	pass  int
}

func (s *stallBarrier) setup(w *worker) { s.inner.setup(w) }

func (s *stallBarrier) beginPass(w *worker) bool {
	s.pass++
	if p := s.inj.WorkerCrashPass(w.id); p > 0 && s.pass == p && !w.reborn {
		// Silent worker death: no Stop handshake, no final flush — the
		// buffered updates and the unflushed shard die with the goroutine,
		// which is exactly what the membership layer's live re-join
		// (membership.go) must recover from.
		w.stopped = true
		return false
	}
	if d := s.inj.StallFor(w.id, s.pass); d > 0 {
		time.Sleep(d)
	}
	return s.inner.beginPass(w)
}

func (s *stallBarrier) endPass(w *worker, progressed bool) bool {
	return s.inner.endPass(w, progressed)
}
