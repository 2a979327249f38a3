// Package graph provides the compressed-sparse-row graph representation
// used by PowerLog's execution engine, plus loaders and partitioning
// helpers. Vertices are dense 0-based int32 ids; edges optionally carry a
// float64 weight.
package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Edge is a directed edge with optional weight.
type Edge struct {
	Src, Dst int32
	W        float64
}

// Graph is an immutable CSR directed graph. Weights is nil for unweighted
// graphs. Graphs are safe for concurrent reads.
type Graph struct {
	n       int32
	offsets []int32 // len n+1
	targets []int32 // len m
	weights []float64
}

// FromEdges builds a CSR graph over vertices [0,n) from an edge list.
// Edges referencing vertices outside [0,n) cause an error. When weighted
// is false, per-edge weights are dropped.
func FromEdges(n int, edges []Edge, weighted bool) (*Graph, error) {
	if n < 0 || n > 1<<30 {
		return nil, fmt.Errorf("graph: bad vertex count %d", n)
	}
	g := &Graph{n: int32(n), offsets: make([]int32, n+1)}
	for _, e := range edges {
		if e.Src < 0 || e.Src >= int32(n) || e.Dst < 0 || e.Dst >= int32(n) {
			return nil, fmt.Errorf("graph: edge (%d,%d) outside [0,%d)", e.Src, e.Dst, n)
		}
		g.offsets[e.Src+1]++
	}
	for i := 0; i < n; i++ {
		g.offsets[i+1] += g.offsets[i]
	}
	g.targets = make([]int32, len(edges))
	if weighted {
		g.weights = make([]float64, len(edges))
	}
	cursor := make([]int32, n)
	for _, e := range edges {
		pos := g.offsets[e.Src] + cursor[e.Src]
		g.targets[pos] = e.Dst
		if weighted {
			g.weights[pos] = e.W
		}
		cursor[e.Src]++
	}
	return g, nil
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return int(g.n) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.targets) }

// Weighted reports whether edges carry weights.
func (g *Graph) Weighted() bool { return g.weights != nil }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v int32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the targets (and weights, nil if unweighted) of v's
// out-edges as subslices of the CSR arrays; callers must not modify them.
func (g *Graph) Neighbors(v int32) ([]int32, []float64) {
	lo, hi := g.offsets[v], g.offsets[v+1]
	if g.weights == nil {
		return g.targets[lo:hi], nil
	}
	return g.targets[lo:hi], g.weights[lo:hi]
}

// EdgeRange returns the CSR index range of v's out-edges.
func (g *Graph) EdgeRange(v int32) (lo, hi int32) {
	return g.offsets[v], g.offsets[v+1]
}

// Target returns the destination of CSR edge index i.
func (g *Graph) Target(i int32) int32 { return g.targets[i] }

// Weight returns the weight of CSR edge index i (1 if unweighted).
func (g *Graph) Weight(i int32) float64 {
	if g.weights == nil {
		return 1
	}
	return g.weights[i]
}

// WeightStats returns the least and greatest edge weight and the mean
// |w| — how far a value moves along a typical edge. An unweighted graph's
// weights are all 1; a graph with no edges reports a mean of 0 over an
// empty range (+Inf, −Inf).
func (g *Graph) WeightStats() (lo, hi, meanAbs float64) {
	if len(g.targets) == 0 {
		return math.Inf(1), math.Inf(-1), 0
	}
	if g.weights == nil {
		return 1, 1, 1
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	sum := 0.0
	for _, w := range g.weights {
		lo, hi = min(lo, w), max(hi, w)
		sum += math.Abs(w)
	}
	return lo, hi, sum / float64(len(g.weights))
}

// Edges materialises the edge list (mostly for tests and export).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.targets))
	for v := int32(0); v < g.n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		for i := lo; i < hi; i++ {
			w := 1.0
			if g.weights != nil {
				w = g.weights[i]
			}
			out = append(out, Edge{Src: v, Dst: g.targets[i], W: w})
		}
	}
	return out
}

// Reverse returns the transposed graph (weights preserved).
func (g *Graph) Reverse() *Graph {
	edges := g.Edges()
	for i := range edges {
		edges[i].Src, edges[i].Dst = edges[i].Dst, edges[i].Src
	}
	rev, err := FromEdges(int(g.n), edges, g.weights != nil)
	if err != nil {
		panic("graph: reverse of a valid graph cannot fail: " + err.Error())
	}
	return rev
}

// OutDegrees returns the out-degree of every vertex as float64s, the form
// the engine's attribute columns use.
func (g *Graph) OutDegrees() []float64 {
	d := make([]float64, g.n)
	for v := int32(0); v < g.n; v++ {
		d[v] = float64(g.OutDegree(v))
	}
	return d
}

// MaxDegree returns the largest out-degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	most := 0
	for v := int32(0); v < g.n; v++ {
		if d := g.OutDegree(v); d > most {
			most = d
		}
	}
	return most
}

// Partition maps vertex v to one of k workers. PowerLog uses modulo hash
// partitioning of MonoTable shards.
func Partition(v int64, k int) int {
	if v < 0 {
		v = -v
	}
	return int(v % int64(k))
}

// LoadTSV reads an edge list: one edge per line, "src dst [weight]",
// whitespace-separated. Lines starting with '#' or '%' are comments.
// Vertex ids may be arbitrary non-negative integers; they are used as-is,
// and n is inferred as max id + 1 unless a larger n is given.
func LoadTSV(r io.Reader, n int, weighted bool) (*Graph, error) {
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
			return nil, fmt.Errorf("graph: line %d: need at least src and dst", lineNo)
		}
		src, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad src %q", lineNo, fields[0])
		}
		dst, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad dst %q", lineNo, fields[1])
		}
		w := 1.0
		if weighted && len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight %q", lineNo, fields[2])
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
		return nil, err
	}
	if int(maxID)+1 > n {
		n = int(maxID) + 1
	}
	return FromEdges(n, edges, weighted)
}

// WriteTSV writes the edge list in LoadTSV's format.
func (g *Graph) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for v := int32(0); v < g.n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		for i := lo; i < hi; i++ {
			if g.weights != nil {
				if _, err := fmt.Fprintf(bw, "%d\t%d\t%g\n", v, g.targets[i], g.weights[i]); err != nil {
					return err
				}
			} else {
				if _, err := fmt.Fprintf(bw, "%d\t%d\n", v, g.targets[i]); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// SortNeighbors orders each adjacency list by target id in place, which
// makes traversal deterministic regardless of input edge order.
func (g *Graph) SortNeighbors() {
	for v := int32(0); v < g.n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		if g.weights == nil {
			s := g.targets[lo:hi]
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			continue
		}
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = i
		}
		t, w := g.targets[lo:hi], g.weights[lo:hi]
		sort.Slice(idx, func(i, j int) bool { return t[idx[i]] < t[idx[j]] })
		nt := make([]int32, len(idx))
		nw := make([]float64, len(idx))
		for i, j := range idx {
			nt[i], nw[i] = t[j], w[j]
		}
		copy(t, nt)
		copy(w, nw)
	}
}
