package monotable

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"powerlog/internal/agg"
)

func tables(op *agg.Op, n int) map[string]Table {
	return map[string]Table{
		"dense":  NewDense(op, n, 1, 0),
		"sparse": NewSparse(op),
	}
}

func TestFoldDrainCycle(t *testing.T) {
	for name, tb := range tables(agg.ByKind(agg.Sum), 10) {
		t.Run(name, func(t *testing.T) {
			if _, ok := tb.Drain(3); ok {
				t.Error("fresh row should drain nothing")
			}
			if !tb.FoldDelta(3, 2.5) {
				t.Error("first fold should change the row")
			}
			if !tb.FoldDelta(3, 1.5) {
				t.Error("second fold should change the row")
			}
			v, ok := tb.Drain(3)
			if !ok || v != 4 {
				t.Errorf("drain = %v,%v", v, ok)
			}
			if _, ok := tb.Drain(3); ok {
				t.Error("double drain must not see the delta again")
			}
			if imp, change, signed := tb.FoldAcc(3, v); !imp || change != 4 || signed != 4 {
				t.Errorf("acc change = %v,%v,%v", imp, change, signed)
			}
			if got := tb.Acc(3); got != 4 {
				t.Errorf("acc = %v", got)
			}
		})
	}
}

func TestMinSemantics(t *testing.T) {
	for name, tb := range tables(agg.ByKind(agg.Min), 10) {
		t.Run(name, func(t *testing.T) {
			tb.FoldDelta(1, 7)
			tb.FoldDelta(1, 3)
			tb.FoldDelta(1, 5)
			v, ok := tb.Drain(1)
			if !ok || v != 3 {
				t.Fatalf("drain = %v", v)
			}
			if imp, _, signed := tb.FoldAcc(1, 3); !imp || signed != 3 {
				t.Errorf("first acc fold should improve with Σacc delta 3, got %v,%v", imp, signed)
			}
			if imp, c, signed := tb.FoldAcc(1, 9); imp || c != 0 || signed != 0 {
				t.Error("worse value should not improve acc")
			}
			if _, c, signed := tb.FoldAcc(1, 1); c != 2 || signed != -2 {
				t.Errorf("improvement magnitude = %v (Σacc delta %v), want 2, -2", c, signed)
			}
			if tb.Acc(1) != 1 {
				t.Errorf("acc = %v", tb.Acc(1))
			}
		})
	}
}

func TestDirtyTracking(t *testing.T) {
	for name, tb := range tables(agg.ByKind(agg.Sum), 100) {
		t.Run(name, func(t *testing.T) {
			if tb.HasDirty() {
				t.Error("fresh table dirty")
			}
			tb.FoldDelta(10, 1)
			tb.FoldDelta(42, 1)
			tb.FoldDelta(10, 1) // same key twice: one dirty entry
			if !tb.HasDirty() {
				t.Error("should be dirty")
			}
			seen := map[int64]int{}
			tb.ScanDirty(func(k int64) { seen[k]++ })
			if len(seen) != 2 || seen[10] != 1 || seen[42] != 1 {
				t.Errorf("dirty keys = %v", seen)
			}
			if tb.HasDirty() {
				t.Error("scan should clear dirty set")
			}
		})
	}
}

func TestRangeAndLen(t *testing.T) {
	for name, tb := range tables(agg.ByKind(agg.Min), 50) {
		t.Run(name, func(t *testing.T) {
			tb.FoldAcc(5, 1.5)
			tb.FoldAcc(7, 2.5)
			got := map[int64]float64{}
			tb.Range(func(k int64, v float64) bool {
				got[k] = v
				return true
			})
			if len(got) != 2 || got[5] != 1.5 || got[7] != 2.5 {
				t.Errorf("range = %v", got)
			}
			if tb.Len() != 2 {
				t.Errorf("len = %d", tb.Len())
			}
			// Early stop.
			count := 0
			tb.Range(func(int64, float64) bool { count++; return false })
			if count != 1 {
				t.Errorf("early stop visited %d", count)
			}
		})
	}
}

func TestDenseStriping(t *testing.T) {
	// 3 workers over keys [0,10): worker 1 owns 1,4,7.
	d := NewDense(agg.ByKind(agg.Sum), 10, 3, 1)
	for _, k := range []int64{1, 4, 7} {
		d.FoldDelta(k, float64(k))
	}
	var keys []int64
	d.ScanDirty(func(k int64) { keys = append(keys, k) })
	if len(keys) != 3 {
		t.Fatalf("dirty = %v", keys)
	}
	for _, k := range keys {
		if k%3 != 1 {
			t.Errorf("key %d not owned by worker 1", k)
		}
		if v, ok := d.Drain(k); !ok || v != float64(k) {
			t.Errorf("drain(%d) = %v,%v", k, v, ok)
		}
	}
}

func TestDenseEdgeSlots(t *testing.T) {
	// Last slot of the bitmap word boundary must be scannable.
	d := NewDense(agg.ByKind(agg.Sum), 64, 1, 0)
	d.FoldDelta(63, 1)
	d.FoldDelta(31, 1)
	d.FoldDelta(32, 1)
	seen := map[int64]bool{}
	d.ScanDirty(func(k int64) { seen[k] = true })
	for _, k := range []int64{31, 32, 63} {
		if !seen[k] {
			t.Errorf("key %d missed by scan", k)
		}
	}
}

func TestNewDensePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad stride should panic")
		}
	}()
	NewDense(agg.ByKind(agg.Sum), 10, 0, 0)
}

// TestConcurrentProtocol runs the full three-step protocol concurrently:
// producers fold deltas, a consumer drains and accumulates. The final
// accumulated total must equal the produced total (sum) — the
// no-loss/no-duplication invariant of paper Figure 7.
func TestConcurrentProtocol(t *testing.T) {
	for name, tb := range tables(agg.ByKind(agg.Sum), 64) {
		t.Run(name, func(t *testing.T) {
			const producers = 4
			const perP = 3000
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < perP; i++ {
						tb.FoldDelta(int64(i%64), 1)
					}
				}(p)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					tb.ScanDirty(func(k int64) {
						if v, ok := tb.Drain(k); ok {
							tb.FoldAcc(k, v)
						}
					})
					total := 0.0
					tb.Range(func(_ int64, v float64) bool { total += v; return true })
					if total >= producers*perP {
						return
					}
				}
			}()
			wg.Wait()
			<-done
			total := 0.0
			tb.Range(func(_ int64, v float64) bool { total += v; return true })
			if total != producers*perP {
				t.Errorf("total = %v, want %v", total, producers*perP)
			}
		})
	}
}

// TestQuickDrainNeverDuplicates: for min tables, draining after arbitrary
// fold sequences yields the minimum of the folded values exactly once.
func TestQuickDrainNeverDuplicates(t *testing.T) {
	f := func(vals []float64) bool {
		tb := NewSparse(agg.ByKind(agg.Min))
		want := math.Inf(1)
		folded := false
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			tb.FoldDelta(0, v)
			if v < want {
				want = v
			}
			folded = true
		}
		v, ok := tb.Drain(0)
		if !folded {
			return !ok
		}
		if !ok || v != want {
			return false
		}
		_, ok = tb.Drain(0)
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickAccDeltaTracksRange: summing FoldAcc's signed deltas must
// equal a full Range scan of the accumulation column — the invariant
// that lets the runtime's termination stats drop their O(n) scan.
func TestQuickAccDeltaTracksRange(t *testing.T) {
	for _, kind := range []agg.Kind{agg.Min, agg.Max, agg.Sum} {
		op := agg.ByKind(kind)
		f := func(keys []uint8, vals []float64) bool {
			for name, tb := range tables(op, 256) {
				running := 0.0
				for i, k := range keys {
					if i >= len(vals) {
						break
					}
					v := vals[i]
					if math.IsNaN(v) || math.IsInf(v, 0) {
						continue
					}
					// The identity only holds without float overflow (at
					// ~1e308 a sum or signed difference saturates to ±Inf);
					// fold the generated magnitude back into a sane range.
					if math.Abs(v) > 1e100 {
						v = math.Mod(v, 1e100)
					}
					_, _, signed := tb.FoldAcc(int64(k), v)
					running += signed
				}
				scanned := 0.0
				tb.Range(func(_ int64, v float64) bool { scanned += v; return true })
				if math.Abs(running-scanned) > 1e-9*(1+math.Abs(scanned)) {
					t.Errorf("%s/%v: running Σacc %v, scanned %v", name, kind, running, scanned)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Error(err)
		}
	}
}

func TestMagnitudeFromIdentity(t *testing.T) {
	tb := NewDense(agg.ByKind(agg.Min), 4, 1, 0)
	// First fold from +inf: improved with magnitude |v|, not inf; the
	// Σacc contribution of a newborn row is its full value.
	if imp, c, signed := tb.FoldAcc(0, 5); !imp || c != 5 || signed != 5 {
		t.Errorf("identity-jump = %v,%v,%v", imp, c, signed)
	}
	// Identity-jump to 0 must still report improvement (SSSP source).
	if imp, c, signed := tb.FoldAcc(1, 0); !imp || c != 0 || signed != 0 {
		t.Errorf("identity-jump-to-zero = %v,%v,%v", imp, c, signed)
	}
}

// TestFoldDeltaOwnedMatchesAtomic: the owner-exclusive fold is the atomic
// fold minus the atomics — same stored bits, same dirty
// set — on any value sequence, specials included, and the two may be
// interleaved on one table by one goroutine.
func TestFoldDeltaOwnedMatchesAtomic(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for _, kind := range []agg.Kind{agg.Min, agg.Max, agg.Sum, agg.Count} {
		const n, stride, offset = 300, 3, 1
		atomicT := NewDense(agg.ByKind(kind), n, stride, offset)
		ownedT := NewDense(agg.ByKind(kind), n, stride, offset)
		rng := rand.New(rand.NewSource(int64(kind)))
		for i := 0; i < 5000; i++ {
			slot := rng.Intn(n / stride)
			key := int64(offset + slot*stride)
			v := rng.NormFloat64() * 100
			if rng.Intn(20) == 0 {
				v = specials[rng.Intn(len(specials))]
			}
			atomicT.FoldDelta(key, v)
			if i%7 == 0 {
				ownedT.FoldDeltaAt(slot, v) // the regimes alternate on one shard
			} else {
				ownedT.FoldDeltaOwned(slot, v)
			}
			if i%500 == 499 {
				var a, o []int64
				atomicT.ScanDirty(func(k int64) { a = append(a, k) })
				ownedT.ScanDirty(func(k int64) { o = append(o, k) })
				if !slices.Equal(a, o) {
					t.Fatalf("%v: dirty sets differ after %d folds: %v vs %v", kind, i+1, a, o)
				}
				for _, k := range a {
					va, _ := atomicT.Drain(k)
					vo, _ := ownedT.Drain(k)
					if math.Float64bits(va) != math.Float64bits(vo) && !(va != va && vo != vo) {
						t.Fatalf("%v: key %d holds %v after atomic folds, %v after owned folds", kind, k, va, vo)
					}
				}
			}
		}
	}
}

// TestDrainOwnedMatchesScanDrain: the owner-exclusive drain hands over the
// rows ScanDirtyRange(0, 1) + Drain does — same keys, same values, same
// order — and leaves the same table behind. The shard's last dirty word
// covers slots past its end, and a row erased while dirty is skipped.
func TestDrainOwnedMatchesScanDrain(t *testing.T) {
	type row struct {
		k int64
		v uint64
	}
	for _, kind := range []agg.Kind{agg.Min, agg.Sum} {
		const n, stride, offset = 1000, 3, 2 // 333 slots: 11 dirty words, 19 bits to spare
		byKey := NewDense(agg.ByKind(kind), n, stride, offset)
		owned := NewDense(agg.ByKind(kind), n, stride, offset)
		rng := rand.New(rand.NewSource(int64(kind) + 7))
		for round := 0; round < 20; round++ {
			for i := 0; i < 150; i++ {
				key, v := int64(offset+rng.Intn(n/stride)*stride), rng.NormFloat64()
				byKey.FoldDelta(key, v)
				owned.FoldDelta(key, v)
			}
			erased := int64(offset + rng.Intn(n/stride)*stride)
			for _, d := range []*Dense{byKey, owned} {
				d.Invalidate(erased)
				markDirty(d.dirty, len(d.dirty)*32-1) // a slot the shard does not have
			}
			var want, got []row
			byKey.ScanDirtyRange(0, 1, func(k int64) {
				if v, ok := byKey.Drain(k); ok {
					want = append(want, row{k, math.Float64bits(v)})
				}
			})
			owned.DrainOwned(func(k int64, v float64) { got = append(got, row{k, math.Float64bits(v)}) })
			if !slices.Equal(got, want) {
				t.Fatalf("%v round %d: DrainOwned gave %d rows, ScanDirtyRange+Drain %d, or they differ", kind, round, len(got), len(want))
			}
			if owned.HasDirty() || byKey.HasDirty() {
				t.Fatalf("%v round %d: a drain left dirty rows", kind, round)
			}
			owned.RangeRows(func(k int64, _, inter float64) bool {
				t.Fatalf("%v round %d: key %d still holds %v", kind, round, k, inter)
				return false
			})
		}
	}
}
