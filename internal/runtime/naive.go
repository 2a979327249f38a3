package runtime

import "powerlog/internal/agg"

// Naive (SociaLite-style) evaluation: each superstep re-derives the full
// next state from the previous one. Only the compute body lives here —
// the barrier protocol is the same bspBarrier as MRA+Sync.

// naivePass re-derives the full next state: base tuples plus the
// recursive body applied to every current value. When the plan supports
// it, this pays naive Datalog evaluation's real price — materialise the
// current result into a relation and re-run the body joins each
// iteration (the paper's "additional rank table"); pair-keyed plans fall
// back to the compiled full-F closure. The pass-productivity return is
// unused under barriers and always 0.
func (w *worker) naivePass() int {
	for _, kv := range w.ownBase {
		w.apply.FoldDelta(kv.K, kv.V)
	}
	if w.plan.NaiveJoinSupported() {
		if w.naive == nil {
			ev, err := w.plan.NewNaiveEvaluator()
			if err == nil {
				w.naive = ev
			}
		}
		if w.naive != nil {
			err := w.naive.Eval(func(yield func(int64, float64)) {
				w.table.Range(func(k int64, acc float64) bool {
					yield(k, acc)
					return true
				})
			}, w.emit)
			if err == nil {
				return 0
			}
			// A join failure (unexpected) falls through to the closure so
			// naive mode still produces correct results.
		}
	}
	w.table.Range(func(k int64, acc float64) bool {
		w.plan.PropagateFullInto(w.scratch, k, acc, w.emit)
		return true
	})
	return 0
}

// naiveFinish folds the received contributions into the next table's
// accumulations and compares it against the current table: it returns
// Σ|next − cur| over owned keys and whether anything changed at all (a
// new key with value 0 — a shortest-path source, say — changes the
// result without moving the L1 distance). It then installs next.
func (w *worker) naiveFinish() (float64, bool) {
	// next's accumulation column starts from scratch each round, so the
	// signed FoldAcc deltas sum to its whole Σacc — which becomes the
	// worker's running accSum when next is installed below.
	nextSum := 0.0
	w.next.ScanDirty(func(k int64) {
		if v, ok := w.next.Drain(k); ok {
			_, _, signed := w.next.FoldAcc(k, v)
			nextSum += signed
		}
	})
	diff := 0.0
	changed := false
	if w.seen == nil {
		w.seen = newSeenSet(!w.plan.PairKeys, int64(w.plan.N))
	}
	w.seen.reset()
	w.next.Range(func(k int64, v float64) bool {
		w.seen.add(k)
		old := w.table.Acc(k)
		if old == w.plan.Op.Identity() {
			diff += agg.Abs(v)
			changed = true
		} else if v != old {
			diff += agg.Abs(v - old)
			changed = true
		}
		return true
	})
	w.table.Range(func(k int64, v float64) bool {
		if !w.seen.has(k) {
			diff += agg.Abs(v) // key disappeared (cannot happen for monotone runs)
			changed = true
		}
		return true
	})
	w.table = w.next
	w.accSum = nextSum
	return diff, changed
}

// seenSet tracks the keys visited by naiveFinish's two Range passes. It
// is retained across rounds — a bitset for dense vertex key spaces, a
// reused map for sparse (pair-keyed) ones — so steady-state naive
// rounds allocate nothing for membership tracking.
type seenSet struct {
	bits []uint64 // dense keys in [0, n)
	m    map[int64]bool
}

func newSeenSet(dense bool, n int64) *seenSet {
	s := &seenSet{}
	if dense && n > 0 {
		s.bits = make([]uint64, (n+63)/64)
	} else {
		s.m = make(map[int64]bool)
	}
	return s
}

func (s *seenSet) inBits(k int64) bool {
	return s.bits != nil && k >= 0 && k < int64(len(s.bits))*64
}

func (s *seenSet) add(k int64) {
	if s.inBits(k) {
		s.bits[k>>6] |= 1 << (uint(k) & 63)
		return
	}
	if s.m == nil {
		s.m = make(map[int64]bool)
	}
	s.m[k] = true
}

func (s *seenSet) has(k int64) bool {
	if s.inBits(k) {
		return s.bits[k>>6]&(1<<(uint(k)&63)) != 0
	}
	return s.m[k]
}

func (s *seenSet) reset() {
	clear(s.bits)
	clear(s.m)
}
