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
// edges followed by the inserts. The splice is in place: one sweep left
// to right closes the gaps the deletes leave, one sweep right to left
// opens room for the inserts, and only the rows the batch names are
// touched edge by edge — every run of rows between them moves in one
// copy. A batch that changes no row (empty, or deletes naming absent
// edges only) returns before anything moves, and the arrays are
// reallocated, with room to grow, only when the inserts outgrow them: a
// session applies batch after batch, and a fresh 12 bytes an edge for
// each was most of an Apply's garbage. The vertex universe [0,n) is
// fixed at construction time — mutations referencing vertices outside it
// are rejected before anything is modified, so a failed call leaves the
// graph untouched. Compiled plans capture the *Graph, so after a
// successful call every closure sees the mutated adjacency; a slice
// Neighbors returned before the call is not valid after it.
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
	if gone > 0 {
		g.closeGaps(del)
	}
	if len(ins) > 0 {
		g.openRoom(ins, inserts)
	}
	return nil
}

// closeGaps removes the edges del names, sliding what survives left over
// them. Rows before the first named row do not move.
func (g *Graph) closeGaps(del []uint64) {
	shift := int32(0) // edges removed so far
	from := int32(0)  // first row whose offset is still the old one
	slide := func(to int32, end int32) {
		// Rows [from, to) keep their edges; they start shift earlier.
		if lo := g.offsets[from]; shift > 0 && lo < end {
			copy(g.targets[lo-shift:], g.targets[lo:end])
			if g.weights != nil {
				copy(g.weights[lo-shift:], g.weights[lo:end])
			}
		}
		for u := from; u <= to; u++ {
			g.offsets[u] -= shift
		}
	}
	for lo := 0; lo < len(del); {
		hi := rowEnd(del, lo)
		v := row(del[lo])
		rs, re := g.offsets[v], g.offsets[v+1]
		slide(v, rs)
		w := rs - shift
		for e := rs; e < re; e++ {
			if names(del[lo:hi], g.targets[e]) {
				shift++
				continue
			}
			g.targets[w] = g.targets[e]
			if g.weights != nil {
				g.weights[w] = g.weights[e]
			}
			w++
		}
		from, lo = v+1, hi
	}
	m := int32(len(g.targets))
	slide(g.n, m)
	g.targets = g.targets[:m-shift]
	if g.weights != nil {
		g.weights = g.weights[:m-shift]
	}
}

// openRoom appends each insert at the end of its source's row, sliding
// the rows after it right. ins is the batch sorted by (row, position).
func (g *Graph) openRoom(ins []uint64, inserts []Edge) {
	old := int32(len(g.targets))
	k := int32(len(ins)) // inserts not yet placed: those of rows <= the one at hand
	g.reserve(int(old + k))
	end, last := old, g.n // edges [end, old) and the offsets of rows (last, n] are done
	for hi := len(ins); hi > 0; {
		v := row(ins[hi-1])
		lo := hi
		for lo > 0 && row(ins[lo-1]) == v {
			lo--
		}
		s := g.offsets[v+1]
		copy(g.targets[s+k:], g.targets[s:end])
		if g.weights != nil {
			copy(g.weights[s+k:], g.weights[s:end])
		}
		at := s + k - int32(hi-lo)
		for i := lo; i < hi; i++ {
			e := inserts[uint32(ins[i])]
			g.targets[at] = e.Dst
			if g.weights != nil {
				g.weights[at] = e.W
			}
			at++
		}
		for u := v + 1; u <= last; u++ {
			g.offsets[u] += k
		}
		k -= int32(hi - lo)
		end, last, hi = s, v, lo
	}
}

// reserve makes the edge arrays m long, reallocating them — with an
// eighth to spare, so a stream of small inserts does not do it again at
// once — only if they cannot hold that many.
func (g *Graph) reserve(m int) {
	if cap(g.targets) < m {
		g.targets = append(make([]int32, 0, m+m/8), g.targets...)
	}
	g.targets = g.targets[:m]
	if g.weights != nil {
		if cap(g.weights) < m {
			g.weights = append(make([]float64, 0, m+m/8), g.weights...)
		}
		g.weights = g.weights[:m]
	}
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
