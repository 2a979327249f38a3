package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
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

// weightStatsOracle is WeightStats as it stood before its loop dropped
// the builtin min and max, kept as the oracle.
func weightStatsOracle(g *Graph) (lo, hi, meanAbs float64) {
	if g.m == 0 {
		return math.Inf(1), math.Inf(-1), 0
	}
	if g.weights == nil {
		return 1, 1, 1
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	sum := 0.0
	for v := int32(0); v < g.n; v++ {
		for _, w := range g.weights[g.offsets[v]:g.ends[v]] {
			lo, hi = min(lo, w), max(hi, w)
			sum += math.Abs(w)
		}
	}
	return lo, hi, sum / float64(g.m)
}

// TestWeightStatsMatchesOracle: bit for bit the builtins' range and the
// same |w| sum, over weights drawn from NaNs of distinct payloads, ±0,
// ±Inf and ordinary values, in every position and on spliced CSRs.
func TestWeightStatsMatchesOracle(t *testing.T) {
	special := []float64{
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000002),
		1, -1, 2.5, -7.25, math.MaxFloat64, -math.SmallestNonzeroFloat64,
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(6)
		edges := make([]Edge, rng.Intn(12))
		for i := range edges {
			w := special[rng.Intn(len(special))]
			if rng.Intn(3) == 0 {
				w = rng.NormFloat64()
			}
			edges[i] = Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n)), W: w}
		}
		g := mustGraph(t, n, edges, rng.Intn(8) > 0)
		if rng.Intn(2) == 0 && len(edges) > 0 {
			e := edges[rng.Intn(len(edges))]
			ins := []Edge{{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n)), W: special[rng.Intn(len(special))]}}
			if _, err := g.ApplyEdgeMutations(ins, []Edge{e}); err != nil {
				t.Fatal(err)
			}
		}
		lo, hi, mean := g.WeightStats()
		wlo, whi, wmean := weightStatsOracle(g)
		if !same(lo, wlo) || !same(hi, whi) || !same(mean, wmean) {
			t.Fatalf("%v: WeightStats = %v %v %v (%x %x), want %v %v %v (%x %x)", g.Edges(),
				lo, hi, mean, math.Float64bits(lo), math.Float64bits(hi), wlo, whi, wmean, math.Float64bits(wlo), math.Float64bits(whi))
		}
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

// TestTransposeMatchesEdgeListBuild: the counting-sort transpose lays
// its rows out as FromEdges would from the swapped edge list — sources
// ascending, parallel edges in row order — weights alongside or dropped.
func TestTransposeMatchesEdgeListBuild(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var edges []Edge
	for i := 0; i < 400; i++ {
		edges = append(edges, Edge{Src: int32(r.Intn(40)), Dst: int32(r.Intn(40)), W: float64(r.Intn(5))})
	}
	g := mustGraph(t, 41, edges, true) // vertex 40 has no edge either way
	swapped := g.Edges()
	for i := range swapped {
		swapped[i].Src, swapped[i].Dst = swapped[i].Dst, swapped[i].Src
	}
	if got, want := g.Reverse(), mustGraph(t, 41, swapped, true); !slices.Equal(got.Edges(), want.Edges()) {
		t.Errorf("Reverse differs from the graph built from the swapped edge list")
	}
	in := g.InSources()
	if in.Weighted() || in.NumEdges() != g.NumEdges() {
		t.Fatalf("InSources: weighted %v, %d edges, want unweighted, %d", in.Weighted(), in.NumEdges(), g.NumEdges())
	}
	for v := int32(0); v < 41; v++ {
		got, _ := in.Neighbors(v)
		want, _ := mustGraph(t, 41, swapped, false).Neighbors(v)
		if !slices.Equal(got, want) {
			t.Fatalf("in-sources of %d = %v, want %v", v, got, want)
		}
	}
}

// TestSortedRowsMatchesStableSort: SortedRows lays each row out as a
// stable sort by target of the row as it stands — parallel edges, told
// apart by their weights, in row order — on a graph with slack too, and
// on one of 70 000 edges that it sorts in four parts; a transpose's rows
// are that layout already.
func TestSortedRowsMatchesStableSort(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	r := rand.New(rand.NewSource(56))
	check := func(name string, g, s *Graph) {
		t.Helper()
		for v := int32(0); v < g.n; v++ {
			var want []Edge
			ts, ws := g.Neighbors(v)
			for i, d := range ts {
				want = append(want, Edge{Src: v, Dst: d, W: ws[i]})
			}
			slices.SortStableFunc(want, func(a, b Edge) int { return int(a.Dst - b.Dst) })
			ts, ws = s.Neighbors(v)
			if len(ts) != len(want) {
				t.Fatalf("%s: row %d has %d edges, want %d", name, v, len(ts), len(want))
			}
			for i, e := range want {
				if ts[i] != e.Dst || ws[i] != e.W {
					t.Fatalf("%s: row %d = %v %v, want %v", name, v, ts, ws, want)
				}
			}
		}
	}
	for _, c := range []struct{ n, dsts, m int }{{31, 12, 600}, {2000, 300, 70000}} {
		var edges []Edge
		for i := 0; i < c.m; i++ {
			edges = append(edges, Edge{Src: int32(r.Intn(c.n - 1)), Dst: int32(r.Intn(c.dsts)), W: float64(i)})
		}
		g := mustGraph(t, c.n, edges, true)
		// Row 0 has no room for 3n self-loops: a relayout, rows with slack.
		ins := append(make([]Edge, 3*c.n), Edge{Src: 3, Dst: 5, W: -1})
		if _, err := g.ApplyEdgeMutations(ins, []Edge{{Src: 4, Dst: 7}}); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprint("SortedRows ", c.m), g, g.SortedRows())
		rev := g.Reverse()
		check(fmt.Sprint("Reverse ", c.m), rev, rev.SortedRows())
		if err := sameRows(rev, rev.SortedRows(), 0); err != nil {
			t.Fatalf("a transpose is not sorted: %v", err)
		}
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

// oracleLoadTSV is LoadTSV as it stood before the byte-level reader
// (PR 22: Scanner.Text, strings.Fields, strconv, a grown []Edge), kept as
// the oracle the new one is compared with. Two deliberate differences:
// a NaN weight is refused (marked below), and the scanner's 1 MB line
// limit went with the scanner.
func oracleLoadTSV(r io.Reader, n int, weighted bool) (*Graph, error) {
	edges, n, err := oracleParseTSV(r, n, weighted)
	if err != nil {
		return nil, err
	}
	return FromEdges(n, edges, weighted)
}

// oracleParseTSV is the old LoadTSV up to its call of FromEdges.
func oracleParseTSV(r io.Reader, n int, weighted bool) ([]Edge, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	maxID := int32(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, 0, fmt.Errorf("graph: line %d: need at least src and dst", lineNo)
		}
		src, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, 0, fmt.Errorf("graph: line %d: bad src %q", lineNo, fields[0])
		}
		dst, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, 0, fmt.Errorf("graph: line %d: bad dst %q", lineNo, fields[1])
		}
		w := 1.0
		if weighted && len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil || w != w { // "|| w != w" is new: NaN is refused at the door
				return nil, 0, fmt.Errorf("graph: line %d: bad weight %q", lineNo, fields[2])
			}
		}
		e := Edge{Src: int32(src), Dst: int32(dst), W: w}
		edges = append(edges, e)
		if e.Src > maxID {
			maxID = e.Src
		}
		if e.Dst > maxID {
			maxID = e.Dst
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if int(maxID)+1 > n {
		n = int(maxID) + 1
	}
	return edges, n, nil
}

// weightBits is ws as bits, so that -0 and 0 differ.
func weightBits(ws []float64) []uint64 {
	out := make([]uint64, len(ws))
	for i, w := range ws {
		out[i] = math.Float64bits(w)
	}
	return out
}

// sameLoad fails unless LoadTSV and the oracle agree on text: the same
// error (its text carries the line number and the field) or the same CSR,
// weights compared by bits.
func sameLoad(t *testing.T, text []byte, n int, weighted bool) {
	t.Helper()
	want, wantErr := oracleLoadTSV(bytes.NewReader(text), n, weighted)
	got, err := LoadTSV(bytes.NewReader(text), n, weighted)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("LoadTSV(%.80q, %d, %v): error %v, oracle %v", text, n, weighted, err, wantErr)
	}
	if err != nil {
		return
	}
	if got.n != want.n || got.m != want.m || !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.ends, want.ends) ||
		!slices.Equal(got.targets, want.targets) ||
		(got.weights == nil) != (want.weights == nil) || !slices.Equal(weightBits(got.weights), weightBits(want.weights)) {
		t.Fatalf("LoadTSV(%.80q, %d, %v) built a different graph:\n got  %v\n want %v", text, n, weighted, got.Edges(), want.Edges())
	}
}

var loadTSVCases = []string{
	"", "\n", "0 1", "0 1\n", "0\t1\t2.5\n1 2 3\n",
	"# comment\n% comment\n  # indented comment\n0 1\n#0 2\n0 3 # trailing text is fields\n",
	"\n\n0 1\n   \n\t\n0 2\n \t \n",
	"0 1 2\r\n1 2 3\r\n\r\n2 0\r\n", "0 1 2\r1 2 3\n",
	"0 \t  1\t \t2.5 \n", "   0 1 7  \n\t1 2 8\t\n",
	"0\v1\f2\n", "0\u00a01\u00852\n", "0\u20031\u30002\n", "0 1\xa0\n", "0\xc2 1\n",
	"0 1 2 3\n1 2 3 junk more junk\n", "0 1\n1 2 5\n", "0 1 x\n", "0 1 2 x\n",
	"+3 +4 +5\n", "-0 1 -0\n", "0 1 .5\n", "0 1 5.\n", "0 1 .\n", "0 1 1e-05\n", "0 1 1.5E+3\n",
	"0 1 1e\n", "0 1 1e+\n", "0 1 e5\n", "0 1 1e5e\n", "0 1 1.2.3\n", "0 1 --1\n", "0 1 +\n", "0 1 1e400\n", "0 1 1e-400\n",
	"0 1 0e400\n", "0 1 -0e-400\n", "0 1 1e22\n", "0 1 1e23\n", "0 1 1e-22\n", "0 1 1e-23\n", "0 1 123456789e-31\n",
	"0 1 9007199254740991\n", "0 1 9007199254740992\n", "0 1 9007199254740993\n", "0 1 0.1e1000000000000\n",
	"0 1 57.382917341234567\n", "0 1 0.30000000000000004\n", "0 1 1.7976931348623157e+308\n", "0 1 5e-324\n",
	"0 1 0.000000000000000000000000000001\n", "0 1 100000000000000000000000000000\n", "0 1 00000000000000000000000001.50\n",
	"0 1 Inf\n1 2 -inf\n2 3 +Infinity\n", "0 1 0x1p-2\n", "0 1 1_000\n", "0 1 0x_1p4\n", "0 1 1e1_0\n",
	"0 1 2\n1 2 NaN\n", "0 1 nan\n", "0 1 -NaN\n",
	"2147483647 0\n", "0 2147483647\n", "2147483648 0\n", "0 99999999999999999999\n", "0 00000000000000000000007\n",
	"-1 0\n", "0 -5\n", "-2147483648 1\n", "-2147483649 1\n", "- 1\n", "+ 1\n", "1_0 1\n", "0x10 1\n",
	"a b\n", "0 b\n", "0\n", "7\n0 1\n", "0 1\n\n\nx y\n", "0 1.0\n", "1e3 1\n", "0 1\x00\n", "\x00\n", "\xff\xfe\n",
	"5 6 " + strings.Repeat("9", 70<<10) + "\n1 2 3\n", strings.Repeat(" ", 70<<10) + "1 2 3\nx\n",
	"# " + strings.Repeat("c", 70<<10) + "\n1 2 3\n", "1 2 3\n4 5 6",
}

func TestLoadTSVMatchesOracle(t *testing.T) {
	for _, text := range loadTSVCases {
		for _, weighted := range []bool{false, true} {
			for _, n := range []int{0, 9} {
				sameLoad(t, []byte(text), n, weighted)
			}
		}
	}
	// 17-digit %g weights, the form WriteTSV emits for gen's uniform draws,
	// and short ones, which take the exact path.
	rng := rand.New(rand.NewSource(24))
	var text bytes.Buffer
	for i := 0; i < 20000; i++ {
		w := 1 + 99*rng.Float64()
		switch i % 4 {
		case 1:
			w = math.Round(w*1000) / 1000
		case 2:
			w = math.Float64frombits(rng.Uint64()) // any exponent; NaNs are refused by both
		case 3:
			w = float64(rng.Intn(1<<20)) * math.Pow(10, float64(rng.Intn(60)-30))
		}
		fmt.Fprintf(&text, "%d\t%d\t%g\n", rng.Intn(500), rng.Intn(500), w)
		if w != w {
			text.Reset()
		}
	}
	// Weights either side of the exact path: 17 and 19 significant digits,
	// mantissas either side of 2^53 with the point anywhere, and 22 or 23
	// digits after the point.
	for i := 0; i < 8000; i++ {
		w := 1 + 99*rng.Float64()
		var field string
		switch i % 4 {
		case 0:
			field = fmt.Sprintf("%.17g", w)
		case 1:
			field = fmt.Sprintf("%.19g", w)
		case 2:
			m := strconv.FormatUint(1<<53-1000+uint64(rng.Intn(2000)), 10)
			at := rng.Intn(len(m) + 1)
			field = m[:at] + "." + m[at:]
		case 3:
			field = fmt.Sprintf("0.%0*d", 22+rng.Intn(2), rng.Int63n(1e15))
		}
		fmt.Fprintf(&text, "%d\t%d\t%s\n", rng.Intn(500), rng.Intn(500), field)
	}
	sameLoad(t, text.Bytes(), 0, true)
	// 10-digit ids after the whole stream: 2^31−1 parses (and is refused
	// as a vertex count), 2^31 is a bad id on the stream's last line.
	for _, line := range []string{"2147483647\t0\t1\n", "0\t2147483648\t1\n"} {
		sameLoad(t, append(slices.Clone(text.Bytes()), line...), 0, true)
	}
}

// TestLoadTSVAllocFollowsEdges: a load allocates the CSR's arrays, one
// 16-byte block entry an edge and its chunk buffer — no grown edge array
// and no close-up copy — and text of blank lines costs a few bytes a
// byte, not a block entry a line.
func TestLoadTSVAllocFollowsEdges(t *testing.T) {
	allocated := func(text []byte, weighted bool) (uint64, *Graph) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := LoadTSV(bytes.NewReader(text), 0, weighted)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, g
	}
	for _, weighted := range []bool{false, true} {
		var text bytes.Buffer
		if err := mustGraph(t, 1<<14, rmatEdges(14, 171000, 100, 1), weighted).WriteTSV(&text); err != nil {
			t.Fatal(err)
		}
		got, g := allocated(text.Bytes(), weighted)
		n, m := g.NumVertices(), g.NumEdges()
		arrays := 4*(2*n+1) + 4*m
		if weighted {
			arrays += 8 * m
		}
		if limit := arrays + 16*m + 2*chunkSize + 64<<10; got > uint64(limit) {
			t.Errorf("weighted=%v: a load of %d edges allocated %d B, want at most %d (arrays %d + 16 B an edge + two chunks + 64 KB)",
				weighted, m, got, limit, arrays)
		}
	}
	// Chunks of newlines with one edge each: a block sized by its newline
	// count would allocate 16 B a newline.
	defer func(size int) { chunkSize = size }(chunkSize)
	chunkSize = 256
	var text bytes.Buffer
	for k := 0; k < 2000; k++ {
		line := fmt.Sprintf("%d %d\n", k%100, (k+7)%100)
		text.WriteString(line + strings.Repeat("\n", chunkSize-len(line)))
	}
	if got, _ := allocated(text.Bytes(), false); got > 8*uint64(text.Len()) {
		t.Errorf("%d B of blank lines and 2000 edges allocated %d B, want at most 8 B a byte of text", text.Len(), got)
	}
}

// TestLoadTSVParts: the text is read in chunks, and a chunk past 64 KB is
// parsed in parts; whatever the cuts fall on, the graph, and the line
// number of the first bad line, are those of one pass.
func TestLoadTSVParts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer func(size int) { chunkSize = size }(chunkSize)
	rng := rand.New(rand.NewSource(4))
	var good bytes.Buffer
	for i := 0; good.Len() < 300<<10; i++ {
		switch rng.Intn(8) {
		case 0:
			good.WriteString("# a comment\n")
		case 1:
			good.WriteString(" \t\r\n")
		default:
			fmt.Fprintf(&good, "%d %d %g\n", rng.Intn(900), rng.Intn(900), rng.NormFloat64())
		}
	}
	text := good.Bytes()
	for _, chunkSize = range []int{1 << 20, 160 << 10, 1 << 10} { // one chunk; chunks of two parts; of one
		sameLoad(t, text, 0, true)
		sameLoad(t, text[:len(text)-1], 0, false) // no trailing newline
		for _, at := range []int{0, len(text) / 4, len(text) / 2, len(text) - 2} {
			at += bytes.IndexByte(text[at:], '\n') + 1
			bad := slices.Concat(text[:at], []byte("1 x\n"), text[at:], []byte("y\n"))
			sameLoad(t, bad, 0, true)
		}
		// Cuts that find no newline after them, and one inside a long line.
		long := strings.Repeat("7", 200<<10)
		sameLoad(t, []byte("1 2 3\n4 5 "+long), 0, false)
		sameLoad(t, []byte("1 2 3\n4 5 "+long+"\n6 7 8\nz\n"), 0, true)
		sameLoad(t, []byte(long), 0, true)
	}
	for _, chunkSize = range []int{1, 3, 16} { // chunks that end anywhere in a line
		for _, text := range loadTSVCases {
			sameLoad(t, []byte(text), 0, true)
		}
	}
	// A reader's error is the load's, once the text before it has parsed.
	for text, want := range map[string]string{"0 1\n2 3": "boom", "0 1\n2": `graph: line 2: need at least src and dst`} {
		failing := func() io.Reader { return io.MultiReader(strings.NewReader(text), iotest.ErrReader(errors.New("boom"))) }
		_, err := LoadTSV(failing(), 0, true)
		_, oracleErr := oracleLoadTSV(failing(), 0, true)
		if err == nil || err.Error() != want || oracleErr.Error() != want {
			t.Errorf("LoadTSV(%q, then a read error): %v, oracle %v, want %s", text, err, oracleErr, want)
		}
	}
}

// TestLoadTSVRefusesNaN: a NaN weight would leave every key it reaches
// NaN and the fixpoint unconverged; it is refused with its line number.
func TestLoadTSVRefusesNaN(t *testing.T) {
	_, err := LoadTSV(strings.NewReader("0 1 2\n1 2 NaN\n2 3 1\n0 3 50\n3 1 -0\n"), 0, true)
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), `"NaN"`) {
		t.Fatalf("err = %v, want line 2's NaN refused", err)
	}
	if _, err := LoadTSV(strings.NewReader("0 1 NaN\n"), 0, false); err != nil {
		t.Fatalf("an unweighted load does not read the third field: %v", err)
	}
	g, err := LoadTSV(strings.NewReader("0 1 Inf\n1 0 -Inf\n"), 0, true)
	if err != nil || !math.IsInf(g.Weight(0), 1) || !math.IsInf(g.Weight(1), -1) {
		t.Fatalf("±Inf stay legal: %v", err)
	}
}

func FuzzLoadTSV(f *testing.F) {
	for _, text := range loadTSVCases {
		if len(text) < 1<<10 {
			f.Add([]byte(text), true, uint8(len(text)))
		}
	}
	f.Fuzz(func(t *testing.T, text []byte, weighted bool, chunk uint8) {
		// Chunks of 1 to 256 bytes end anywhere in a line.
		defer func(size int) { chunkSize = size }(chunkSize)
		chunkSize = int(chunk) + 1
		// Compare the parse alone first: an id the fuzzer grows into the
		// millions is a CSR of that many vertices, twice.
		want, n, wantErr := oracleParseTSV(bytes.NewReader(text), 0, weighted)
		blocks, maxID, err := readEdges(bytes.NewReader(text), weighted)
		got := slices.Concat(blocks...)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("readEdges(%q, %v): error %v, oracle %v", text, weighted, err, wantErr)
		}
		if err == nil && (int(maxID)+1 != n || len(got) != len(want)) {
			t.Fatalf("readEdges(%q, %v): %d edges, max id %d; oracle %d edges, n %d", text, weighted, len(got), maxID, len(want), n)
		}
		if n <= 1<<16 {
			sameLoad(t, text, 0, weighted)
		}
	})
}

// rmatEdges is gen.RMAT's recursive-matrix draw (gen imports this
// package), duplicates kept.
func rmatEdges(scale, m int, maxW float64, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		e := Edge{W: 1 + rng.Float64()*(maxW-1)}
		for bit := scale - 1; bit >= 0; bit-- {
			switch r := rng.Float64(); {
			case r < 0.57:
			case r < 0.76:
				e.Dst |= 1 << bit
			case r < 0.95:
				e.Src |= 1 << bit
			default:
				e.Src |= 1 << bit
				e.Dst |= 1 << bit
			}
		}
		edges[i] = e
	}
	return edges
}

// TestWriteTSVBytes pins WriteTSV's output to what fmt's %d and %g
// printed before it formatted into a reused buffer, and write → load →
// write to a fixed point, on weighted and unweighted R-MAT.
func TestWriteTSVBytes(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		edges := rmatEdges(10, 6000, 100, 7)
		for i, w := range []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e21, 1e-7, 123456, 1e6} {
			edges[i].W = w
		}
		g := mustGraph(t, 1<<10, edges, weighted)
		var want bytes.Buffer
		for _, e := range g.Edges() {
			if weighted {
				fmt.Fprintf(&want, "%d\t%d\t%g\n", e.Src, e.Dst, e.W)
			} else {
				fmt.Fprintf(&want, "%d\t%d\n", e.Src, e.Dst)
			}
		}
		var first, second bytes.Buffer
		if err := g.WriteTSV(&first); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), want.Bytes()) {
			t.Fatalf("weighted=%v: WriteTSV differs from fmt's rendering", weighted)
		}
		g2, err := LoadTSV(bytes.NewReader(first.Bytes()), g.NumVertices(), weighted)
		if err != nil {
			t.Fatal(err)
		}
		if err := g2.WriteTSV(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("weighted=%v: write → load → write is not a fixed point", weighted)
		}
	}
}
