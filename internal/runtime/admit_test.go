package runtime

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"powerlog/internal/agg"
	"powerlog/internal/compiler"
	"powerlog/internal/graph"
	"powerlog/internal/metrics"
	"powerlog/internal/monotable"
	"powerlog/internal/progs"
)

// The admission drain (Scheduler.admit, monotable.Table.DrainAdmitted)
// against the drain it replaced, kept here as the oracle: the compute pass
// drained every dirty key, the schedule's arrange picked a prefix of the
// batch — partitionNear for the bucket schedule, the threshold partition
// for §5.4's hold — and the pass refolded the rest with FoldDelta. The
// oracle drains through ScanDirty and Drain, the Sparse path as it was; on
// a Dense shard the replaced DrainOwned handed over the same rows in the
// same order (TestDrainAdmittedMatchesScanDrain pins the two alike).

// refoldSched is the replaced Scheduler.arrange: order the drained batch
// in place and return how many of its leading entries the pass processes.
type refoldSched interface{ arrange(batch []drained) int }

// refoldBucket is bucketSched as it was, its counters plain integers.
type refoldBucket struct {
	asc              bool
	width            float64
	held             bool
	passes, heldKeys uint64
}

func (s *refoldBucket) arrange(batch []drained) int {
	width := s.width
	if width == 0 {
		return len(batch)
	}
	s.passes++
	k := partitionNear(batch, s.asc, width)
	if k < len(batch) {
		s.held = true
		s.heldKeys += uint64(len(batch) - k)
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

// refoldHold is priorityHold as it was.
type refoldHold struct {
	inner     refoldSched
	threshold float64
	off       bool
	held      bool
	holds     uint64
}

func (s *refoldHold) arrange(batch []drained) int {
	n := s.inner.arrange(batch)
	if s.off {
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
		s.held = true
		s.holds += uint64(n - k)
	}
	return k
}

// refoldDrain is the replaced pass's drain: every dirty key out, the
// schedule's prefix kept, the rest folded back in.
func refoldDrain(t monotable.Table, s refoldSched) []drained {
	var out []drained
	t.ScanDirty(func(k int64) {
		if v, ok := t.Drain(k); ok {
			out = append(out, drained{k, v})
		}
	})
	run := out[:s.arrange(out)]
	for _, d := range out[len(run):] {
		t.FoldDelta(d.key, d.val)
	}
	return run
}

// admitDrain is the pass's drain now: what s admits, the rest left dirty.
func admitDrain(t monotable.Table, s Scheduler) []drained {
	var run []drained
	s.left(t.DrainAdmitted(s.admit(), func(k int64, v float64) { run = append(run, drained{k, v}) }))
	return run
}

// admitWidths are the bucket widths the equivalence tests draw from: 0 is
// the FIFO a bucket schedule falls back to.
var admitWidths = []float64{0, 0.5, 1, 10, 1000, math.Inf(1)}

// admitThresholds are §5.4's hold thresholds they draw from: 0 holds
// nothing.
var admitThresholds = []float64{0, 0.5, 2}

// stepKernels compiles, for each width, SSSP over one edge of that weight:
// a kernel whose Step is the width.
func stepKernels(tb testing.TB, widths ...float64) map[float64]*compiler.Kernel {
	tb.Helper()
	ks := map[float64]*compiler.Kernel{}
	for _, w := range widths {
		g, err := graph.FromEdges(2, []graph.Edge{{Src: 0, Dst: 1, W: w}}, true)
		if err != nil {
			tb.Fatal(err)
		}
		k := compilePlan(tb, progs.SSSP, edgeDB("edge")(g)).Kernel
		if k.Step() != w {
			tb.Fatalf("the kernel over one edge of weight %v has Step %v", w, k.Step())
		}
		ks[w] = k
	}
	return ks
}

// admitCase is one table under one schedule, passed over round by round.
type admitCase struct {
	kind      agg.Kind
	dense     bool
	asc       bool    // the bucket schedule's direction
	width     float64 // the bucket width (admitWidths)
	threshold float64 // §5.4's hold; 0: none
	rounds    []admitRound
}

// admitRound is what happens to the table before one pass: deltas folded
// and rows erased, keys by index into the case's key space — and whether
// the hold is released for the pass.
type admitRound struct {
	folds []drained
	erase []int64
	off   bool
}

func (c admitCase) String() string {
	layout := "sparse"
	if c.dense {
		layout = "dense"
	}
	return fmt.Sprintf("%v %s asc=%v width=%v threshold=%v, %d rounds", c.kind, layout, c.asc, c.width, c.threshold, len(c.rounds))
}

// admitKeys is the size of a case's key space: 70 dense slots are three
// dirty words, the last with bits past the shard's end.
const admitKeys = 70

// admitSide is one side of a comparison: a table and its keys.
type admitSide struct {
	table monotable.Table
	keys  []int64 // key space index → table key
}

func newAdmitSide(c admitCase) admitSide {
	op := agg.ByKind(c.kind)
	s := admitSide{}
	if c.dense {
		const stride, offset = 3, 1
		r := monotable.NewRoute(admitKeys*stride, stride)
		s.table = monotable.NewDense(op, admitKeys*stride, stride, offset)
		for i := range r.Size(offset) {
			s.keys = append(s.keys, r.Key(offset, i))
		}
	} else {
		s.table = monotable.NewSparse(op)
		for i := range admitKeys {
			s.keys = append(s.keys, int64(i)<<32|int64(i*7%admitKeys)) // pair keys
		}
	}
	return s
}

// propagate folds each propagated value plus one into another key, as
// the key's row would.
func (s admitSide) propagate(run []drained) {
	for _, d := range run {
		s.table.FoldDelta(s.keys[uint64(d.key)*2654435761%uint64(len(s.keys))], d.val+1)
	}
}

// sameVal is the comparisons' equality: equal bits, or two NaNs (a fold
// need not keep a NaN's payload).
func sameVal(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// sameRun reports whether two propagated sequences agree entry for entry.
func sameRun(got, want []drained) bool {
	return slices.EqualFunc(got, want, func(a, b drained) bool { return a.key == b.key && sameVal(a.val, b.val) })
}

type admitRow struct {
	key        int64
	acc, inter float64
}

func rowsOf(t monotable.Table) []admitRow {
	var rows []admitRow
	t.RangeRows(func(k int64, acc, inter float64) bool {
		rows = append(rows, admitRow{k, acc, inter})
		return true
	})
	slices.SortFunc(rows, func(a, b admitRow) int { return cmp.Compare(a.key, b.key) })
	return rows
}

// checkAdmit passes over the case's rounds with the refold drain and the
// admission drain side by side. After each pass the two must have
// propagated the same keys with the same values, in the same order on a
// Dense shard, and agree on the rows, on whether any is dirty, and on the
// schedules' held flags and counts; after the last the dirty sets must
// match (reading them empties them; cases end after any number of
// passes). Each propagated key folds into another, so later rounds see
// what earlier ones left dirty.
func checkAdmit(t *testing.T, c admitCase, kernels map[float64]*compiler.Kernel) {
	t.Helper()
	reg := metrics.NewRegistry()
	bucket := &bucketSched{asc: c.asc, kernel: kernels[c.width],
		passes: reg.Counter("sched.bucket.passes"), heldKeys: reg.Counter("sched.bucket.held")}
	oldBucket := &refoldBucket{asc: c.asc, width: c.width}
	var sched Scheduler = bucket
	var old refoldSched = oldBucket
	var hold *priorityHold
	var oldHold *refoldHold
	if c.threshold > 0 {
		hold = &priorityHold{inner: bucket, threshold: c.threshold,
			holds: reg.Counter("sched.hold"), releases: reg.Counter("sched.release")}
		oldHold = &refoldHold{inner: oldBucket, threshold: c.threshold}
		sched, old = hold, oldHold
	}
	got, want := newAdmitSide(c), newAdmitSide(c)
	for i, r := range c.rounds {
		for _, s := range []admitSide{got, want} {
			for _, f := range r.folds {
				s.table.FoldDelta(s.keys[f.key%int64(len(s.keys))], f.val)
			}
			for _, k := range r.erase {
				s.table.Invalidate(s.keys[k%int64(len(s.keys))])
			}
		}
		if hold != nil {
			hold.off, oldHold.off = r.off, r.off
		}
		gotRun, wantRun := admitDrain(got.table, sched), refoldDrain(want.table, old)
		if !c.dense { // a Sparse shard's dirty map has no order
			byKey := func(a, b drained) int { return cmp.Compare(a.key, b.key) }
			slices.SortFunc(gotRun, byKey)
			slices.SortFunc(wantRun, byKey)
		}
		if !sameRun(gotRun, wantRun) {
			t.Fatalf("%v, pass %d: propagated %v, the refold drain %v", c, i, gotRun, wantRun)
		}
		snap := reg.Snapshot()
		if snap.Counter("sched.bucket.passes") != oldBucket.passes || snap.Counter("sched.bucket.held") != oldBucket.heldKeys || bucket.held != oldBucket.held {
			t.Fatalf("%v, pass %d: bucket passes %d held %d (flag %v), the refold drain %d, %d (%v)", c, i,
				snap.Counter("sched.bucket.passes"), snap.Counter("sched.bucket.held"), bucket.held, oldBucket.passes, oldBucket.heldKeys, oldBucket.held)
		}
		if hold != nil && (snap.Counter("sched.hold") != oldHold.holds || hold.held != oldHold.held) {
			t.Fatalf("%v, pass %d: sched.hold %d (flag %v), the refold drain %d (%v)", c, i, snap.Counter("sched.hold"), hold.held, oldHold.holds, oldHold.held)
		}
		gotRows, wantRows := rowsOf(got.table), rowsOf(want.table)
		if !slices.EqualFunc(gotRows, wantRows, func(a, b admitRow) bool {
			return a.key == b.key && sameVal(a.acc, b.acc) && sameVal(a.inter, b.inter)
		}) {
			t.Fatalf("%v, pass %d: rows %v, the refold drain %v", c, i, gotRows, wantRows)
		}
		if got.table.HasDirty() != want.table.HasDirty() {
			t.Fatalf("%v, pass %d: dirty %v, the refold drain %v", c, i, got.table.HasDirty(), want.table.HasDirty())
		}
		got.propagate(gotRun)
		want.propagate(wantRun)
	}
	dirtyKeys := func(t monotable.Table) []int64 {
		var keys []int64
		t.ScanDirty(func(k int64) { keys = append(keys, k) })
		slices.Sort(keys)
		return keys
	}
	if g, w := dirtyKeys(got.table), dirtyKeys(want.table); !slices.Equal(g, w) {
		t.Fatalf("%v: dirty keys %v, the refold drain %v", c, g, w)
	}
}

// admitSpecials are the values a drain can get wrong: a NaN, infinities —
// an aggregate's identity among them — signed zeros and values that
// cancel.
var admitSpecials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1, 0.5, 1e300, -1e300}

// randomAdmitCase draws a case: mostly ordinary values near one another,
// so the bucket width splits them, with a special one in five.
func randomAdmitCase(rng *rand.Rand) admitCase {
	c := admitCase{
		kind:      []agg.Kind{agg.Min, agg.Max, agg.Sum}[rng.Intn(3)],
		dense:     rng.Intn(2) == 0,
		width:     admitWidths[rng.Intn(len(admitWidths))],
		threshold: admitThresholds[rng.Intn(len(admitThresholds))],
	}
	c.asc = c.kind == agg.Min || c.kind == agg.Sum && rng.Intn(2) == 0
	for range 1 + rng.Intn(8) {
		var r admitRound
		for range rng.Intn(3 * admitKeys / 2) {
			v := rng.NormFloat64() * 10
			if rng.Intn(5) == 0 {
				v = admitSpecials[rng.Intn(len(admitSpecials))]
			}
			r.folds = append(r.folds, drained{int64(rng.Intn(admitKeys)), v})
		}
		for range rng.Intn(4) {
			r.erase = append(r.erase, int64(rng.Intn(admitKeys)))
		}
		r.off = rng.Intn(3) == 0
		c.rounds = append(c.rounds, r)
	}
	return c
}

// TestAdmitDrainMatchesRefold: over seeded random cases — Dense and
// Sparse shards; min, max and sum; NaN, ±Inf and signed zeros; dirty rows
// that hold the identity (erased, or cancelled under sum); every bucket
// width, FIFO among them; a hold held and released — the admission drain
// propagates what the refold drain did and leaves the same table behind,
// with the same held counts.
func TestAdmitDrainMatchesRefold(t *testing.T) {
	kernels := stepKernels(t, admitWidths...)
	rng := rand.New(rand.NewSource(49))
	n := 2000
	if testing.Short() {
		n = 300
	}
	for range n {
		checkAdmit(t, randomAdmitCase(rng), kernels)
	}
	// An empty table, under each schedule: nothing propagates, and a
	// bucket pass still counts.
	for _, w := range admitWidths {
		for _, th := range admitThresholds {
			for _, dense := range []bool{true, false} {
				checkAdmit(t, admitCase{kind: agg.Min, dense: dense, asc: true, width: w, threshold: th,
					rounds: []admitRound{{}, {off: true}}}, kernels)
			}
		}
	}
}

// FuzzAdmitDrain is TestAdmitDrainMatchesRefold over cases the fuzzer
// spells out: the aggregate and layout, a width and a threshold from the
// tables above, then ten bytes a step — an op byte (a fold, an erase, or
// the end of a round, whose next bit releases the hold), a key and a
// value's eight bytes. The seed corpus is testdata/fuzz/FuzzAdmitDrain.
func FuzzAdmitDrain(f *testing.F) {
	kernels := stepKernels(f, admitWidths...)
	f.Fuzz(func(t *testing.T, shape, width, threshold uint8, steps []byte) {
		c := admitCase{
			kind:      []agg.Kind{agg.Min, agg.Max, agg.Sum}[shape%3],
			dense:     shape&4 != 0,
			asc:       shape&8 != 0,
			width:     admitWidths[int(width)%len(admitWidths)],
			threshold: admitThresholds[int(threshold)%len(admitThresholds)],
		}
		var r admitRound
		for ; len(steps) >= 10 && len(c.rounds) < 16; steps = steps[10:] {
			key, v := int64(steps[1]), math.Float64frombits(binary.LittleEndian.Uint64(steps[2:]))
			switch steps[0] % 4 {
			case 0, 1:
				r.folds = append(r.folds, drained{key, v})
			case 2:
				r.erase = append(r.erase, key)
			case 3:
				r.off = steps[0]&4 != 0
				c.rounds = append(c.rounds, r)
				r = admitRound{}
			}
		}
		c.rounds = append(c.rounds, r, admitRound{})
		checkAdmit(t, c, kernels)
	})
}
