package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustGraph(t *testing.T, n int, edges []Edge, weighted bool) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges, weighted)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdgesBasic(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{0, 1, 5}, {0, 2, 3}, {1, 2, 1}, {3, 0, 2}}, true)
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.OutDegree(2) != 0 || g.OutDegree(3) != 1 {
		t.Error("degrees wrong")
	}
	ts, ws := g.Neighbors(0)
	if len(ts) != 2 || len(ws) != 2 {
		t.Fatalf("neighbors of 0: %v %v", ts, ws)
	}
	got := map[int32]float64{ts[0]: ws[0], ts[1]: ws[1]}
	if got[1] != 5 || got[2] != 3 {
		t.Errorf("neighbor weights: %v", got)
	}
	if !g.Weighted() {
		t.Error("should be weighted")
	}
}

func TestFromEdgesUnweighted(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{0, 1, 9}, {1, 2, 9}}, false)
	if g.Weighted() {
		t.Error("weights should be dropped")
	}
	if w := g.Weight(0); w != 1 {
		t.Errorf("unweighted Weight = %v, want 1", w)
	}
	_, ws := g.Neighbors(0)
	if ws != nil {
		t.Error("weights slice should be nil")
	}
}

func TestFromEdgesValidation(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5, 1}}, false); err == nil {
		t.Error("out-of-range dst should fail")
	}
	if _, err := FromEdges(2, []Edge{{-1, 0, 1}}, false); err == nil {
		t.Error("negative src should fail")
	}
	if _, err := FromEdges(-1, nil, false); err == nil {
		t.Error("negative n should fail")
	}
	g := mustGraph(t, 3, nil, false)
	if g.NumEdges() != 0 || g.MaxDegree() != 0 {
		t.Error("empty graph")
	}
}

func TestWeightStats(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1, -3}, {1, 2, 5}, {0, 2, 1}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi, mean := g.WeightStats(); lo != -3 || hi != 5 || mean != 3 {
		t.Errorf("weighted: (%v, %v, %v), want (-3, 5, 3)", lo, hi, mean)
	}
	u, err := FromEdges(3, []Edge{{0, 1, 9}, {1, 2, 9}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi, mean := u.WeightStats(); lo != 1 || hi != 1 || mean != 1 {
		t.Errorf("unweighted: (%v, %v, %v), want every weight 1", lo, hi, mean)
	}
	e, err := FromEdges(3, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi, mean := e.WeightStats(); lo <= hi || mean != 0 {
		t.Errorf("no edges: (%v, %v, %v), want an empty range and mean 0", lo, hi, mean)
	}
}

func TestReverse(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{0, 1, 2}, {0, 2, 3}, {1, 2, 4}}, true)
	r := g.Reverse()
	if r.OutDegree(2) != 2 || r.OutDegree(0) != 0 {
		t.Errorf("reverse degrees wrong")
	}
	ts, ws := r.Neighbors(2)
	sum := 0.0
	for i := range ts {
		sum += ws[i]
	}
	if sum != 7 {
		t.Errorf("reverse weights = %v", ws)
	}
	// Double reverse restores the edge multiset.
	rr := r.Reverse()
	if rr.NumEdges() != g.NumEdges() {
		t.Error("double reverse changed edge count")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	orig := []Edge{{0, 1, 5}, {2, 0, 1}, {1, 2, 7}}
	g := mustGraph(t, 3, orig, true)
	back := g.Edges()
	if len(back) != len(orig) {
		t.Fatalf("edge count %d", len(back))
	}
	seen := map[Edge]bool{}
	for _, e := range back {
		seen[e] = true
	}
	for _, e := range orig {
		if !seen[e] {
			t.Errorf("missing edge %v", e)
		}
	}
}

func TestLoadTSV(t *testing.T) {
	src := `
# comment
% another comment
0	1	5.5
1	2
2	0	3
`
	g, err := LoadTSV(strings.NewReader(src), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	ts, ws := g.Neighbors(0)
	if ts[0] != 1 || ws[0] != 5.5 {
		t.Errorf("edge 0: %v %v", ts, ws)
	}
	// Missing weight defaults to 1.
	_, ws = g.Neighbors(1)
	if ws[0] != 1 {
		t.Errorf("default weight = %v", ws[0])
	}
}

func TestLoadTSVErrors(t *testing.T) {
	for _, src := range []string{"0\n", "a b\n", "0 b\n", "0 1 x\n"} {
		if _, err := LoadTSV(strings.NewReader(src), 0, true); err == nil {
			t.Errorf("LoadTSV(%q) should fail", src)
		}
	}
}

func TestWriteTSVRoundTrip(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{0, 1, 2.5}, {1, 3, 1}, {3, 2, 9}}, true)
	var buf bytes.Buffer
	if err := g.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadTSV(&buf, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
		t.Error("round trip changed shape")
	}
	e1, e2 := g.Edges(), g2.Edges()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Errorf("edge %d: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestSortNeighbors(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{0, 3, 30}, {0, 1, 10}, {0, 2, 20}}, true)
	g.SortNeighbors()
	ts, ws := g.Neighbors(0)
	for i := 0; i < len(ts); i++ {
		if ts[i] != int32(i+1) || ws[i] != float64((i+1)*10) {
			t.Fatalf("sorted neighbors wrong: %v %v", ts, ws)
		}
	}
}

func TestPartition(t *testing.T) {
	for k := 1; k <= 7; k++ {
		counts := make([]int, k)
		for v := int64(0); v < 1000; v++ {
			p := Partition(v, k)
			if p < 0 || p >= k {
				t.Fatalf("Partition(%d,%d) = %d", v, k, p)
			}
			counts[p]++
		}
		for _, c := range counts {
			if c == 0 {
				t.Errorf("k=%d: empty partition", k)
			}
		}
	}
}

func TestQuickCSRPreservesEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		m := rng.Intn(200)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n)), W: float64(rng.Intn(100))}
		}
		g, err := FromEdges(n, edges, true)
		if err != nil {
			return false
		}
		if g.NumEdges() != m {
			return false
		}
		// Degree sum equals edge count.
		total := 0
		for v := 0; v < n; v++ {
			total += g.OutDegree(int32(v))
		}
		if total != m {
			return false
		}
		// Every input edge is present.
		want := map[Edge]int{}
		for _, e := range edges {
			want[e]++
		}
		for _, e := range g.Edges() {
			want[e]--
		}
		for _, c := range want {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
