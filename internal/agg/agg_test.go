package agg

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestParse(t *testing.T) {
	cases := map[string]Kind{
		"min": Min, "max": Max, "sum": Sum, "count": Count, "mean": Mean,
		"mmin": Min, "mmax": Max, "msum": Sum, "mcount": Count, "avg": Mean,
	}
	for name, want := range cases {
		got, err := Parse(name)
		if err != nil || got != want {
			t.Errorf("Parse(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := Parse("median"); err == nil {
		t.Error("Parse(median) should fail")
	}
}

func TestKindString(t *testing.T) {
	if Min.String() != "min" || Sum.String() != "sum" {
		t.Error("bad names")
	}
	if Kind(99).String() == "" {
		t.Error("out-of-range kind should still print")
	}
}

func TestIdentity(t *testing.T) {
	if !math.IsInf(ByKind(Min).Identity(), 1) {
		t.Error("min identity should be +inf")
	}
	if !math.IsInf(ByKind(Max).Identity(), -1) {
		t.Error("max identity should be -inf")
	}
	if ByKind(Sum).Identity() != 0 || ByKind(Count).Identity() != 0 {
		t.Error("sum/count identity should be 0")
	}
}

func TestInverseRecoversX1(t *testing.T) {
	// For each op: G(x0, G⁻(x1,x0)) == x1 whenever x1 is reachable, i.e.
	// x1 ⊑ x0 in the op's order for selective ops, any x1 for sum.
	f := func(x0, x1 float64) bool {
		if math.IsNaN(x0) || math.IsNaN(x1) || math.IsInf(x0, 0) || math.IsInf(x1, 0) {
			return true
		}
		x0, x1 = math.Mod(x0, 1e6), math.Mod(x1, 1e6)
		sum := ByKind(Sum)
		if got := sum.Fold(x0, sum.Inverse(x1, x0)); math.Abs(got-x1) > 1e-6*math.Max(1, math.Abs(x1)) {
			return false
		}
		minOp := ByKind(Min)
		lo := math.Min(x0, x1)
		if got := minOp.Fold(x0, minOp.Inverse(lo, x0)); got != lo {
			return false
		}
		maxOp := ByKind(Max)
		hi := math.Max(x0, x1)
		if got := maxOp.Fold(x0, maxOp.Inverse(hi, x0)); got != hi {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFoldCommutativeAssociative(t *testing.T) {
	for _, k := range []Kind{Min, Max, Sum, Count} {
		op := ByKind(k)
		comm := func(a, b float64) bool {
			if math.IsNaN(a) || math.IsNaN(b) {
				return true
			}
			x, y := op.Fold(a, b), op.Fold(b, a)
			return x == y || (math.IsNaN(x) && math.IsNaN(y))
		}
		if err := quick.Check(comm, nil); err != nil {
			t.Errorf("%v commutativity: %v", k, err)
		}
		assoc := func(a, b, c float64) bool {
			if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
				return true
			}
			a, b, c = math.Mod(a, 1e5), math.Mod(b, 1e5), math.Mod(c, 1e5)
			x, y := op.Fold(op.Fold(a, b), c), op.Fold(a, op.Fold(b, c))
			return math.Abs(x-y) <= 1e-7*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
		}
		if err := quick.Check(assoc, nil); err != nil {
			t.Errorf("%v associativity: %v", k, err)
		}
	}
}

func TestMeanNotAssociative(t *testing.T) {
	op := ByKind(Mean)
	l := op.Fold(op.Fold(1, 2), 3) // 2.25
	r := op.Fold(1, op.Fold(2, 3)) // 1.75
	if l == r {
		t.Error("mean fold should not be associative; checker relies on this")
	}
}

func TestSelective(t *testing.T) {
	if !ByKind(Min).Selective() || !ByKind(Max).Selective() {
		t.Error("min/max are selective")
	}
	if ByKind(Sum).Selective() || ByKind(Count).Selective() {
		t.Error("sum/count are not selective")
	}
}

func TestAtomicFoldSequential(t *testing.T) {
	var cell uint64
	op := ByKind(Min)
	Store(&cell, op.Identity())
	if !op.AtomicFold(&cell, 5) {
		t.Error("first fold should change the cell")
	}
	if op.AtomicFold(&cell, 7) {
		t.Error("worse value should not change the cell")
	}
	if !op.AtomicFold(&cell, 3) {
		t.Error("better value should change the cell")
	}
	if got := Load(&cell); got != 3 {
		t.Errorf("cell = %v, want 3", got)
	}
}

func TestAtomicExchangeIdentity(t *testing.T) {
	var cell uint64
	op := ByKind(Sum)
	Store(&cell, 42)
	if got := op.AtomicExchangeIdentity(&cell); got != 42 {
		t.Errorf("exchange returned %v", got)
	}
	if got := Load(&cell); got != 0 {
		t.Errorf("cell after exchange = %v, want identity 0", got)
	}
}

// TestAtomicFoldConcurrent hammers a single cell from many goroutines and
// checks the result equals the sequential fold — the linearizability
// property the MonoTable protocol depends on.
func TestAtomicFoldConcurrent(t *testing.T) {
	const goroutines = 8
	const perG = 2000
	for _, k := range []Kind{Min, Max, Sum} {
		op := ByKind(k)
		var cell uint64
		Store(&cell, op.Identity())
		var wg sync.WaitGroup
		expected := op.Identity()
		inputs := make([][]float64, goroutines)
		for g := 0; g < goroutines; g++ {
			vals := make([]float64, perG)
			for i := range vals {
				vals[i] = float64((g*perG+i)%977) - 488
				expected = op.Fold(expected, vals[i])
			}
			inputs[g] = vals
		}
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(vals []float64) {
				defer wg.Done()
				for _, v := range vals {
					op.AtomicFold(&cell, v)
				}
			}(inputs[g])
		}
		wg.Wait()
		got := Load(&cell)
		if math.Abs(got-expected) > 1e-6 {
			t.Errorf("%v concurrent fold = %v, want %v", k, got, expected)
		}
	}
}

// TestAtomicDrainConcurrent interleaves producers folding into a cell with
// a consumer that repeatedly exchanges the cell to identity; the folded
// total of consumed values must equal the folded total of produced values
// (no delta lost, none double-counted) for sum.
func TestAtomicDrainConcurrent(t *testing.T) {
	op := ByKind(Sum)
	var cell uint64
	Store(&cell, op.Identity())
	const producers = 4
	const perP = 5000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perP; i++ {
				op.AtomicFold(&cell, 1)
			}
		}(p)
	}
	done := make(chan struct{})
	var consumed float64
	go func() {
		defer close(done)
		for {
			consumed += op.AtomicExchangeIdentity(&cell)
			if consumed >= producers*perP {
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if consumed != producers*perP {
		t.Errorf("consumed %v, want %v", consumed, producers*perP)
	}
}

// TestFoldMatchesMath: Fold's kind switch uses the min/max builtins; on
// NaN, infinities and signed zeros they must be math.Min and math.Max bit
// for bit, and AtomicFold must store exactly that.
func TestFoldMatchesMath(t *testing.T) {
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1, 1e308, 5e-324}
	for _, a := range vals {
		for _, b := range vals {
			for kind, want := range map[Kind]float64{Min: math.Min(a, b), Max: math.Max(a, b), Sum: a + b, Count: a + b} {
				op := ByKind(kind)
				got := op.Fold(a, b)
				if math.Float64bits(got) != math.Float64bits(want) && !(got != got && want != want) {
					t.Errorf("%v.Fold(%v, %v) = %v, want %v", kind, a, b, got, want)
				}
				var cell uint64
				Store(&cell, a)
				stored := a
				if op.AtomicFold(&cell, b) {
					stored = got
				}
				if now := Load(&cell); math.Float64bits(now) != math.Float64bits(stored) {
					t.Errorf("%v.AtomicFold(%v, %v) left %v, want %v", kind, a, b, now, stored)
				}
			}
		}
	}
}
