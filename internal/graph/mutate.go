package graph

import (
	"fmt"
	"slices"
)

// ApplyEdgeMutations splices a batch into the CSR arrays behind the same
// *Graph pointer: first every (src,dst) pair named in deletes is removed
// (all parallel edges with that endpoint pair, regardless of weight),
// then the inserts are appended, each at the end of its source's row in
// batch order — the arrays FromEdges would build from the surviving
// edges followed by the inserts. Only the rows the batch names are
// filtered edge by edge; every run of rows between them moves in one
// copy, and a batch that changes no row (empty, or deletes naming absent
// edges only) returns before anything is copied. The vertex universe
// [0,n) is fixed at construction time — mutations referencing vertices
// outside it are rejected before anything is modified, so a failed call
// leaves the graph untouched. Compiled plans capture the *Graph, so
// after a successful call every closure sees the mutated adjacency.
//
// Concurrent readers are NOT safe during the call; callers must
// quiesce the engine first (the session layer mutates only while all
// workers are parked).
func (g *Graph) ApplyEdgeMutations(inserts, deletes []Edge) error {
	for _, e := range inserts {
		if e.Src < 0 || e.Src >= g.n || e.Dst < 0 || e.Dst >= g.n {
			return fmt.Errorf("graph: insert edge (%d,%d) outside [0,%d)", e.Src, e.Dst, g.n)
		}
	}
	for _, e := range deletes {
		if e.Src < 0 || e.Src >= g.n || e.Dst < 0 || e.Dst >= g.n {
			return fmt.Errorf("graph: delete edge (%d,%d) outside [0,%d)", e.Src, e.Dst, g.n)
		}
	}
	// Group the batch by source row without touching the caller's slices
	// (they go into the mutation log in the order given): a delete sorts
	// as src<<32|dst, an insert as src<<32|position, which keeps batch
	// order within a row.
	del := make([]uint64, len(deletes))
	for i, e := range deletes {
		del[i] = uint64(e.Src)<<32 | uint64(e.Dst)
	}
	slices.Sort(del)
	ins := make([]uint64, len(inserts))
	for i, e := range inserts {
		ins[i] = uint64(e.Src)<<32 | uint64(i)
	}
	slices.Sort(ins)

	gone := 0
	for lo := 0; lo < len(del); {
		hi := rowEnd(del, lo)
		v := row(del[lo])
		for _, t := range g.targets[g.offsets[v]:g.offsets[v+1]] {
			if names(del[lo:hi], t) {
				gone++
			}
		}
		lo = hi
	}
	if gone == 0 && len(ins) == 0 {
		return nil
	}

	m := len(g.targets) - gone + len(ins)
	offsets := make([]int32, len(g.offsets))
	targets := make([]int32, 0, m)
	var weights []float64
	if g.weights != nil {
		weights = make([]float64, 0, m)
	}
	from := int32(0) // first old row not moved yet
	moveRows := func(to int32) {
		lo, hi := g.offsets[from], g.offsets[to]
		shift := int32(len(targets)) - lo
		targets = append(targets, g.targets[lo:hi]...)
		if weights != nil {
			weights = append(weights, g.weights[lo:hi]...)
		}
		for v := from; v < to; v++ {
			offsets[v] = g.offsets[v] + shift
		}
		from = to
	}
	for d, i := 0, 0; d < len(del) || i < len(ins); {
		v := g.n
		if d < len(del) {
			v = row(del[d])
		}
		if i < len(ins) && row(ins[i]) < v {
			v = row(ins[i])
		}
		moveRows(v)
		offsets[v] = int32(len(targets))
		dEnd := d
		if d < len(del) && row(del[d]) == v {
			dEnd = rowEnd(del, d)
		}
		for e := g.offsets[v]; e < g.offsets[v+1]; e++ {
			if names(del[d:dEnd], g.targets[e]) {
				continue
			}
			targets = append(targets, g.targets[e])
			if weights != nil {
				weights = append(weights, g.weights[e])
			}
		}
		for ; i < len(ins) && row(ins[i]) == v; i++ {
			e := inserts[uint32(ins[i])]
			targets = append(targets, e.Dst)
			if weights != nil {
				weights = append(weights, e.W)
			}
		}
		d, from = dEnd, v+1
	}
	moveRows(g.n)
	offsets[g.n] = int32(len(targets))
	g.offsets, g.targets, g.weights = offsets, targets, weights
	return nil
}

// row is the source row of a packed batch entry.
func row(k uint64) int32 { return int32(k >> 32) }

// rowEnd returns the end of the run of sorted batch entries that share
// ks[lo]'s row.
func rowEnd(ks []uint64, lo int) int {
	hi := lo + 1
	for hi < len(ks) && row(ks[hi]) == row(ks[lo]) {
		hi++
	}
	return hi
}

// names reports whether one of a row's deletes names target dst. A row
// sees a handful of deletes per batch, so the scan is linear.
func names(dels []uint64, dst int32) bool {
	for _, d := range dels {
		if int32(uint32(d)) == dst {
			return true
		}
	}
	return false
}
