package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort a copy
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 50, 50}, {100, 90, 90}, {101, 90, 91}, {1000, 99, 990}, {20, 50, 10}, {25, 50, 13},
	} {
		xs := seq(c.n)
		got, err := percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%v of 1..%d = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
		if xs[0] != float64(c.n) {
			t.Fatalf("percentile reordered its input")
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{
		{99, 90}, {19, 50}, {999, 99}, {0, 50}, {12, 90},
	} {
		if v, err := percentile(seq(c.n), c.p); err == nil {
			t.Errorf("p%v of %d samples = %v, want a refusal (fewer than %d beyond)", c.p, c.n, v, minBeyond)
		}
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile(seq(1000), p); err == nil {
			t.Errorf("p%v accepted", p)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{7, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

// Reference values from Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 2, 8, 4, 6, 12, 14, 16, 18, 20})
	if math.Abs(q1-5.5) > 1e-12 || math.Abs(q3-16.5) > 1e-12 {
		t.Errorf("quartiles of 2..20 = %v, %v; want 5.5, 16.5", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v, %v; want 1, 4", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1})
	if math.Abs(q1-0.5) > 1e-12 || math.Abs(q3-3.5) > 1e-12 {
		t.Errorf("quartiles of 1,3 = %v, %v; want 0.5, 3.5", q1, q3)
	}
}

func TestStatusMB(t *testing.T) {
	for _, field := range []string{"VmHWM", "VmRSS"} {
		if mb, err := statusMB(field); err != nil || mb <= 0 {
			t.Errorf("%s = %v, %v", field, mb, err)
		}
	}
	if _, err := statusMB("VmNope"); err == nil {
		t.Error("an unknown field was found")
	}
}
