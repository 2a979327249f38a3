package ref

import (
	"math"
	"testing"

	"powerlog/internal/gen"
	"powerlog/internal/graph"
)

func diamond(t *testing.T) *graph.Graph {
	t.Helper()
	// 0→1 (1), 0→2 (4), 1→2 (2), 1→3 (6), 2→3 (3)
	g, err := graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 0, Dst: 2, W: 4},
		{Src: 1, Dst: 2, W: 2}, {Src: 1, Dst: 3, W: 6}, {Src: 2, Dst: 3, W: 3},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDijkstra(t *testing.T) {
	d := Dijkstra(diamond(t), 0)
	want := []float64{0, 1, 3, 6}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("dist[%d] = %v, want %v", i, d[i], want[i])
		}
	}
	// Unreachable source index beyond range.
	d = Dijkstra(diamond(t), 3)
	if d[0] != math.Inf(1) || d[3] != 0 {
		t.Error("reverse reachability wrong")
	}
}

func TestMinLabelPropagation(t *testing.T) {
	g, _ := graph.FromEdges(5, []graph.Edge{
		{Src: 1, Dst: 2}, {Src: 2, Dst: 1}, {Src: 3, Dst: 4},
	}, false)
	l := MinLabelPropagation(g)
	if l[1] != 1 || l[2] != 1 {
		t.Errorf("component {1,2}: %v", l)
	}
	if l[3] != 3 || l[4] != 3 {
		t.Errorf("component {3,4}: %v", l)
	}
	if !math.IsInf(l[0], 1) {
		t.Errorf("isolated vertex 0 should stay unlabelled, got %v", l[0])
	}
}

func TestPageRankProperties(t *testing.T) {
	g := gen.RMAT(8, 1500, 0, 3)
	r := PageRank(g, 200, 1e-10)
	for v, x := range r {
		if x < 0.15-1e-9 {
			t.Fatalf("rank[%d] = %v below teleport floor", v, x)
		}
	}
	// Self-consistency: r = 0.15 + 0.85·Mᵀr.
	deg := g.OutDegrees()
	check := make([]float64, g.NumVertices())
	for i := range check {
		check[i] = 0.15
	}
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		ts, _ := g.Neighbors(v)
		for range ts {
		}
		lo, hi := g.EdgeRange(v)
		for e := lo; e < hi; e++ {
			check[g.Target(e)] += 0.85 * r[v] / deg[v]
		}
	}
	for i := range check {
		if math.Abs(check[i]-r[i]) > 1e-6 {
			t.Fatalf("fixpoint violated at %d: %v vs %v", i, check[i], r[i])
		}
	}
}

func TestKatzLinear(t *testing.T) {
	g := diamond(t)
	k := Katz(g, 0, 10000, 100, 1e-12)
	// k(0)=10000; k(1)=0.1·k(0)=1000; k(2)=0.1·(k(0)+k(1))=1100;
	// k(3)=0.1·(k(1)+k(2))=210.
	want := []float64{10000, 1000, 1100, 210}
	for i := range want {
		if math.Abs(k[i]-want[i]) > 1e-6 {
			t.Errorf("katz[%d] = %v, want %v", i, k[i], want[i])
		}
	}
}

func TestDAGPathCount(t *testing.T) {
	g := diamond(t)
	c := DAGPathCount(g, 0)
	// Paths 0→3: 0-1-3, 0-1-2-3, 0-2-3.
	want := []float64{1, 1, 2, 3}
	for i := range want {
		if c[i] != want[i] {
			t.Errorf("count[%d] = %v, want %v", i, c[i], want[i])
		}
	}
}

func TestDAGPathWeightSum(t *testing.T) {
	g := diamond(t)
	s := DAGPathWeightSum(g)
	// δ = {1:1, 2:6, 3:9}; C(1)=1; C(2)=6+C(0)+C(1)=7; C(3)=9+C(1)+C(2)=17.
	want := []float64{0, 1, 7, 17}
	for i := range want {
		if math.Abs(s[i]-want[i]) > 1e-9 {
			t.Errorf("sum[%d] = %v, want %v", i, s[i], want[i])
		}
	}
}

func TestDAGPath(t *testing.T) {
	g := diamond(t)
	// Least: 0-1-2-3 = 6; greatest: 0-2-3 = 0-1-3 = 7, 0-1-2-3 = 6.
	for _, tc := range []struct {
		longest bool
		want    []float64
	}{{false, []float64{0, 1, 3, 6}}, {true, []float64{0, 1, 4, 7}}} {
		got := DAGPath(g, 0, tc.longest)
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("longest=%v: path[%d] = %v, want %v", tc.longest, i, got[i], tc.want[i])
			}
		}
	}
	if d := DAGPath(g, 1, false); !math.IsInf(d[0], 1) {
		t.Errorf("vertex 0 is unreachable from 1, got %v", d[0])
	}
	if d := DAGPath(g, 1, true); !math.IsInf(d[0], -1) {
		t.Errorf("longest: vertex 0 is unreachable from 1, got %v", d[0])
	}
}

func TestViterbiDP(t *testing.T) {
	g := gen.Trellis(4, 3, 5)
	p := ViterbiDP(g, 0)
	for v, x := range p {
		if x < 0 || x > 1 {
			t.Fatalf("prob[%d] = %v outside [0,1]", v, x)
		}
	}
	// Last layer must be reachable.
	reachable := false
	for v := 9; v < 12; v++ {
		if p[v] > 0 {
			reachable = true
		}
	}
	if !reachable {
		t.Error("no path to last layer")
	}
}

func TestBFSDepth(t *testing.T) {
	g, _ := graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2},
	}, false)
	d := BFSDepth(g, 0)
	if d[0] != 0 || d[1] != 1 || d[2] != 1 || !math.IsInf(d[3], 1) {
		t.Errorf("depth = %v", d)
	}
}

func TestFloydWarshall(t *testing.T) {
	g := diamond(t)
	d := FloydWarshall(g)
	if d[0][3] != 6 || d[1][3] != 5 || d[0][2] != 3 {
		t.Errorf("apsp = %v", d)
	}
	if !math.IsInf(d[3][0], 1) {
		t.Error("3 cannot reach 0")
	}
	// No free self paths: d[0][0] is +Inf on this DAG.
	if !math.IsInf(d[0][0], 1) {
		t.Errorf("d[0][0] = %v", d[0][0])
	}
}

func TestAdsorptionAndBP(t *testing.T) {
	g := gen.Uniform(50, 300, 1, 9)
	gen.NormalizeWeightsByOut(g, 1)
	n := g.NumVertices()
	ones := make([]float64, n)
	small := make([]float64, n)
	for i := range ones {
		ones[i] = 1
		small[i] = 0.3
	}
	a := Adsorption(g, ones, small, small, 500, 1e-12)
	for _, x := range a {
		if x < 0 || math.IsNaN(x) {
			t.Fatal("adsorption produced invalid value")
		}
	}
	b := BeliefPropagation(g, small, small, 500, 1e-12)
	for _, x := range b {
		if x < 0 || math.IsNaN(x) {
			t.Fatal("bp produced invalid value")
		}
	}
}
