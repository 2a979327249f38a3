package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// ApplyEdgeMutations splices a batch into the CSR arrays behind the same
// *Graph pointer and returns how many edges it copied: first every
// (src,dst) pair named in deletes is removed (all parallel edges with that
// endpoint pair, regardless of weight), then the inserts are appended,
// each at the end of its source's row in batch order — row for row the
// graph FromEdges would build from the surviving edges followed by the
// inserts. A graph whose rows are sorted by target (SortedRows, or a
// transpose) takes each insert after its row's equal targets instead, so
// it stays sorted. The work follows the batch: a delete compacts its own
// row, the edges after it moving down in order, and an insert lands in
// its row's slack (a sorted row's edges past it move up to make room).
// Only when a row has no room for its inserts, or the holes deletes left
// make the slot array longer than 9/8·|E| + 2·|V| plus the batch, is the
// whole graph laid out afresh (relayout), in place. A batch that changes no row moves nothing.
// The vertex universe [0,n) is fixed at construction time — mutations
// referencing vertices outside it are rejected before anything is
// modified, so a failed call leaves the graph untouched. Compiled plans
// capture the *Graph, so after a successful call every closure sees the
// mutated adjacency; a slice Neighbors returned before the call is not
// valid after it.
//
// Concurrent readers are NOT safe during the call; callers must
// quiesce the engine first (the session layer mutates only while all
// workers are parked).
func (g *Graph) ApplyEdgeMutations(inserts, deletes []Edge) (moved int, err error) {
	for _, e := range inserts {
		if e.Src < 0 || e.Src >= g.n || e.Dst < 0 || e.Dst >= g.n {
			return 0, fmt.Errorf("graph: insert edge (%d,%d) outside [0,%d)", e.Src, e.Dst, g.n)
		}
	}
	for _, e := range deletes {
		if e.Src < 0 || e.Src >= g.n || e.Dst < 0 || e.Dst >= g.n {
			return 0, fmt.Errorf("graph: delete edge (%d,%d) outside [0,%d)", e.Src, e.Dst, g.n)
		}
	}
	// Group the batch by source row without touching the caller's slices
	// (they stay the caller's, in the order given): a delete sorts
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

	for lo, hi := 0, 0; lo < len(del); lo = hi {
		hi = rowEnd(del, lo)
		v := row(del[lo])
		w := g.offsets[v]
		for e := w; e < g.ends[v]; e++ {
			if names(del[lo:hi], g.targets[e]) {
				continue
			}
			if w < e {
				g.targets[w] = g.targets[e]
				if g.weights != nil {
					g.weights[w] = g.weights[e]
				}
				moved++
			}
			w++
		}
		g.m -= int(g.ends[v] - w)
		g.ends[v] = w
	}
	fits := true
	for lo, hi := 0, 0; lo < len(ins); lo = hi {
		hi = rowEnd(ins, lo)
		v := row(ins[lo])
		fits = fits && g.ends[v]+int32(hi-lo) <= g.offsets[v+1]
	}
	g.m += len(ins)
	if !fits || 8*int(g.offsets[g.n]) > 9*g.m+16*int(g.n)+8*(len(ins)+len(del)) {
		moved += g.relayout(ins)
	}
	if g.sorted {
		for lo, hi := 0, 0; lo < len(ins); lo = hi {
			hi = rowEnd(ins, lo)
			moved += g.merge(inserts, ins[lo:hi])
		}
		return moved + len(ins), nil
	}
	for _, k := range ins {
		e := inserts[uint32(k)]
		at := g.ends[e.Src]
		g.targets[at] = e.Dst
		if g.weights != nil {
			g.weights[at] = e.W
		}
		g.ends[e.Src]++
	}
	return moved + len(ins), nil
}

// merge splices one row's inserts — ks, its batch entries in batch order
// — into the sorted row, each after the row's targets it equals, in one
// pass from the row's end, and returns how many of the row's edges moved.
func (g *Graph) merge(inserts []Edge, ks []uint64) (moved int) {
	slices.SortStableFunc(ks, func(a, b uint64) int {
		return cmp.Compare(inserts[uint32(a)].Dst, inserts[uint32(b)].Dst)
	})
	v := row(ks[0])
	lo, i := g.offsets[v], g.ends[v]-1
	g.ends[v] += int32(len(ks))
	for at, j := g.ends[v]-1, len(ks)-1; j >= 0; at-- {
		e := inserts[uint32(ks[j])]
		if i >= lo && g.targets[i] > e.Dst {
			g.targets[at] = g.targets[i]
			if g.weights != nil {
				g.weights[at] = g.weights[i]
			}
			i--
			moved++
			continue
		}
		g.targets[at] = e.Dst
		if g.weights != nil {
			g.weights[at] = e.W
		}
		j--
	}
	return moved
}

// relayout gives every row its live edges, room for its inserts in ins
// and a slack of 2 + 1/16 of both: the slot array comes out at most
// 17/16·|E| + 2·|V| long, the holes deletes left reclaimed. It runs in
// place — rows that move left are moved left to right, then rows that
// move right right to left, so no row is overwritten before it has moved
// — the edge arrays are reallocated only to grow, and the offsets column
// it replaces is kept for the next one. It returns the edges it moved.
func (g *Graph) relayout(ins []uint64) (moved int) {
	next := append(g.spare[:0], make([]int32, g.n+1)...)
	for _, k := range ins {
		next[row(k)+1]++
	}
	for v := int32(0); v < g.n; v++ {
		c := next[v+1] + g.ends[v] - g.offsets[v]
		next[v+1] = next[v] + c + 2 + c/16
	}
	g.reserve(max(int(next[g.n]), len(g.targets)))
	for v := int32(0); v < g.n; v++ {
		if next[v] < g.offsets[v] {
			moved += g.place(v, next[v])
		}
	}
	for v := g.n - 1; v >= 0; v-- {
		if next[v] > g.offsets[v] {
			moved += g.place(v, next[v])
		}
	}
	g.offsets, g.spare = next, g.offsets
	g.reserve(int(next[g.n]))
	return moved
}

// place moves row v's edges to start at slot at and returns their count;
// offsets[v] is left for the caller.
func (g *Graph) place(v, at int32) int {
	lo, hi := g.offsets[v], g.ends[v]
	copy(g.targets[at:], g.targets[lo:hi])
	if g.weights != nil {
		copy(g.weights[at:], g.weights[lo:hi])
	}
	g.ends[v] = at + hi - lo
	return int(hi - lo)
}

// reserve makes the edge arrays m slots long, reallocating them — with an
// eighth to spare, so a session's growing graph does not do it again at
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
