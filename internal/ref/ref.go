// Package ref contains independent sequential reference implementations
// of the catalogue algorithms. The test suite checks every engine mode
// against these oracles; they deliberately use classic textbook
// algorithms (Dijkstra, topological DP, Jacobi iteration) rather than the
// engine's delta machinery, so agreement is meaningful.
package ref

import (
	"container/heap"
	"math"

	"powerlog/internal/graph"
)

// Dijkstra computes single-source shortest path distances; unreachable
// vertices get +Inf.
func Dijkstra(g *graph.Graph, src int32) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if int(src) >= n {
		return dist
	}
	dist[src] = 0
	pq := &kvHeap{{float64(0), src}}
	for pq.Len() > 0 {
		top := heap.Pop(pq).(kvPair)
		if top.v > dist[top.k] {
			continue
		}
		ts, ws := g.Neighbors(top.k)
		for i, t := range ts {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			if nd := top.v + w; nd < dist[t] {
				dist[t] = nd
				heap.Push(pq, kvPair{nd, t})
			}
		}
	}
	return dist
}

type kvPair struct {
	v float64
	k int32
}

type kvHeap []kvPair

func (h kvHeap) Len() int            { return len(h) }
func (h kvHeap) Less(i, j int) bool  { return h[i].v < h[j].v }
func (h kvHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *kvHeap) Push(x interface{}) { *h = append(*h, x.(kvPair)) }
func (h *kvHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// MinLabelPropagation computes the Datalog CC semantics: every vertex
// with an out-edge starts labelled with its own id; labels propagate along
// directed edges and each vertex keeps the minimum it has ever seen.
// Vertices never reached and without out-edges keep +Inf. A simple
// worklist relaxation, independent of the engine's delta plumbing.
func MinLabelPropagation(g *graph.Graph) []float64 {
	n := g.NumVertices()
	label := make([]float64, n)
	for i := range label {
		label[i] = math.Inf(1)
	}
	var work []int32
	for v := int32(0); v < int32(n); v++ {
		if g.OutDegree(v) > 0 {
			label[v] = float64(v)
			work = append(work, v)
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		ts, _ := g.Neighbors(v)
		for _, t := range ts {
			if label[v] < label[t] {
				label[t] = label[v]
				work = append(work, t)
			}
		}
	}
	return label
}

// EdgeFactor computes the linear propagation coefficient of one edge for
// LinearLimit: the multiplier applied to the source value.
type EdgeFactor func(src int32, edgeIdx int32) float64

// LinearLimit iterates x ← c + Mᵀx (Jacobi) until the L1 change drops
// below tol or iters rounds pass, where M's entries are given by factor
// per edge. This is the common limit form of PageRank, Adsorption, Katz,
// Belief Propagation, and SimRank:
//
//	x(y) = c(y) + Σ_{x→y} factor(x, e) · x(x).
func LinearLimit(g *graph.Graph, factor EdgeFactor, c []float64, iters int, tol float64) []float64 {
	n := g.NumVertices()
	cur := make([]float64, n)
	next := make([]float64, n)
	copy(cur, c)
	for it := 0; it < iters; it++ {
		copy(next, c)
		for v := int32(0); v < int32(n); v++ {
			if cur[v] == 0 {
				continue
			}
			lo, hi := g.EdgeRange(v)
			for e := lo; e < hi; e++ {
				next[g.Target(e)] += factor(v, e) * cur[v]
			}
		}
		diff := 0.0
		for i := range cur {
			diff += math.Abs(next[i] - cur[i])
		}
		cur, next = next, cur
		if diff < tol {
			break
		}
	}
	return cur
}

// PageRank evaluates Program 2's semantics: r(y) = 0.15 + 0.85·Σ r(x)/d(x).
func PageRank(g *graph.Graph, iters int, tol float64) []float64 {
	n := g.NumVertices()
	deg := g.OutDegrees()
	c := make([]float64, n)
	for i := range c {
		c[i] = 0.15
	}
	return LinearLimit(g, func(src, _ int32) float64 { return 0.85 / deg[src] }, c, iters, tol)
}

// Katz evaluates Program 5: k(y) = [y=src]·seed + 0.1·Σ k(x).
func Katz(g *graph.Graph, src int32, seed float64, iters int, tol float64) []float64 {
	c := make([]float64, g.NumVertices())
	c[src] = seed
	return LinearLimit(g, func(int32, int32) float64 { return 0.1 }, c, iters, tol)
}

// Adsorption evaluates Program 4: a(y) = i(y)·p2(y) + 0.7·Σ w·pc(x)·a(x).
func Adsorption(g *graph.Graph, inj, pi, pc []float64, iters int, tol float64) []float64 {
	n := g.NumVertices()
	c := make([]float64, n)
	for i := range c {
		c[i] = inj[i] * pi[i]
	}
	return LinearLimit(g, func(src, e int32) float64 { return 0.7 * g.Weight(e) * pc[src] }, c, iters, tol)
}

// BeliefPropagation evaluates Program 6 (vertex-abstracted):
// b(t) = I(t) + 0.8·Σ w·h(s)·b(s).
func BeliefPropagation(g *graph.Graph, initial, h []float64, iters int, tol float64) []float64 {
	return LinearLimit(g, func(src, e int32) float64 { return 0.8 * g.Weight(e) * h[src] }, initial, iters, tol)
}

// DAGPathCount counts distinct paths from src to every vertex of a DAG
// whose vertex ids are a topological order (edges go low→high).
func DAGPathCount(g *graph.Graph, src int32) []float64 {
	n := g.NumVertices()
	count := make([]float64, n)
	count[src] = 1
	for v := int32(0); v < int32(n); v++ {
		if count[v] == 0 {
			continue
		}
		ts, _ := g.Neighbors(v)
		for _, t := range ts {
			count[t] += count[v]
		}
	}
	return count
}

// DAGPathWeightSum evaluates the Cost program's fixpoint on a
// topologically ordered DAG: C(y) = Σ_{x→y} (C(x) + w_xy), i.e.
// C = (I − Aᵀ)⁻¹ δ with δ(y) = Σ_in w. Equivalently, C(y) sums δ(z)
// over all unweighted paths z →* y (length ≥ 0).
func DAGPathWeightSum(g *graph.Graph) []float64 {
	n := g.NumVertices()
	c := make([]float64, n)
	for v := int32(0); v < int32(n); v++ { // δ: fold in-edge weights
		lo, hi := g.EdgeRange(v)
		for e := lo; e < hi; e++ {
			c[g.Target(e)] += g.Weight(e)
		}
	}
	for v := int32(0); v < int32(n); v++ { // topological accumulation
		if c[v] == 0 {
			continue
		}
		lo, hi := g.EdgeRange(v)
		for e := lo; e < hi; e++ {
			c[g.Target(e)] += c[v]
		}
	}
	return c
}

// ViterbiDP computes the maximum-product path probability from src over a
// DAG in topological vertex order (transition probabilities as weights).
func ViterbiDP(g *graph.Graph, src int32) []float64 {
	n := g.NumVertices()
	prob := make([]float64, n)
	prob[src] = 1
	for v := int32(0); v < int32(n); v++ {
		if prob[v] == 0 {
			continue
		}
		lo, hi := g.EdgeRange(v)
		for e := lo; e < hi; e++ {
			t := g.Target(e)
			if p := prob[v] * g.Weight(e); p > prob[t] {
				prob[t] = p
			}
		}
	}
	return prob
}

// DAGPath computes the least — with longest, the greatest — path weight
// from src to every vertex of a DAG whose vertex ids are a topological
// order (edges go low→high). Weights may have either sign, which
// Dijkstra cannot take. An unreachable vertex holds +Inf (−Inf).
func DAGPath(g *graph.Graph, src int32, longest bool) []float64 {
	n := g.NumVertices()
	sign := 1.0
	if longest {
		sign = -1
	}
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = sign * math.Inf(1)
	}
	dist[src] = 0
	for v := int32(0); v < int32(n); v++ {
		if math.IsInf(dist[v], 0) {
			continue
		}
		lo, hi := g.EdgeRange(v)
		for e := lo; e < hi; e++ {
			t := g.Target(e)
			if d := dist[v] + g.Weight(e); sign*d < sign*dist[t] {
				dist[t] = d
			}
		}
	}
	return dist
}

// BFSDepth computes minimum hop counts from src (the LCA ancestor-depth
// oracle when run on the parent graph).
func BFSDepth(g *graph.Graph, src int32) []float64 {
	n := g.NumVertices()
	depth := make([]float64, n)
	for i := range depth {
		depth[i] = math.Inf(1)
	}
	depth[src] = 0
	queue := []int32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		ts, _ := g.Neighbors(v)
		for _, t := range ts {
			if math.IsInf(depth[t], 1) {
				depth[t] = depth[v] + 1
				queue = append(queue, t)
			}
		}
	}
	return depth
}

// FloydWarshall computes all-pairs shortest paths of length ≥ 1 (no free
// zero-length self paths, matching the APSP program whose base case is
// the edge relation). dist[i][j] is +Inf when j is unreachable from i.
func FloydWarshall(g *graph.Graph) [][]float64 {
	n := g.NumVertices()
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			dist[i][j] = math.Inf(1)
		}
	}
	for v := int32(0); v < int32(n); v++ {
		lo, hi := g.EdgeRange(v)
		for e := lo; e < hi; e++ {
			t := g.Target(e)
			if w := g.Weight(e); w < dist[v][t] {
				dist[v][t] = w
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := dist[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if nd := dik + dist[k][j]; nd < dist[i][j] {
					dist[i][j] = nd
				}
			}
		}
	}
	return dist
}
