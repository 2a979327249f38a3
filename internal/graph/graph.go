// Package graph provides the compressed-sparse-row graph representation
// used by PowerLog's execution engine, plus loaders and partitioning
// helpers. Vertices are dense 0-based int32 ids; edges optionally carry a
// float64 weight.
package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Edge is a directed edge with optional weight.
type Edge struct {
	Src, Dst int32
	W        float64
}

// Graph is a CSR directed graph. Weights is nil for unweighted graphs.
// Graphs are safe for concurrent reads. Row v's edges are the slots
// [offsets[v], ends[v]); the slots up to offsets[v+1] are the row's slack,
// which a graph only gets once ApplyEdgeMutations lays it out.
type Graph struct {
	n       int32
	m       int     // live edges
	offsets []int32 // len n+1; offsets[n] is the slot count
	ends    []int32 // len n
	targets []int32 // one per slot
	weights []float64
	spare   []int32 // the offsets a relayout replaced, for the next one
	sorted  bool    // each row lists its edges by target (SortedRows)
}

// FromEdges builds a CSR graph over vertices [0,n) from an edge list.
// Edges referencing vertices outside [0,n) cause an error. When weighted
// is false, per-edge weights are dropped.
func FromEdges(n int, edges []Edge, weighted bool) (*Graph, error) {
	return fromBlocks(n, [][]Edge{edges}, weighted)
}

// fromBlocks is FromEdges over the blocks laid end to end: one counting
// sort by source, so a row lists its edges in block order.
func fromBlocks(n int, blocks [][]Edge, weighted bool) (*Graph, error) {
	if n < 0 || n > 1<<30 {
		return nil, fmt.Errorf("graph: bad vertex count %d", n)
	}
	g := &Graph{n: int32(n), offsets: make([]int32, n+1)}
	for _, edges := range blocks {
		for _, e := range edges {
			if e.Src < 0 || e.Src >= int32(n) || e.Dst < 0 || e.Dst >= int32(n) {
				return nil, fmt.Errorf("graph: edge (%d,%d) outside [0,%d)", e.Src, e.Dst, n)
			}
			g.offsets[e.Src+1]++
		}
		g.m += len(edges)
	}
	for i := 0; i < n; i++ {
		g.offsets[i+1] += g.offsets[i]
	}
	g.targets = make([]int32, g.m)
	if weighted {
		g.weights = make([]float64, g.m)
	}
	g.ends = slices.Clone(g.offsets[:n]) // each row's fill cursor, left at its end
	for _, edges := range blocks {
		for _, e := range edges {
			pos := g.ends[e.Src]
			g.targets[pos] = e.Dst
			if weighted {
				g.weights[pos] = e.W
			}
			g.ends[e.Src]++
		}
	}
	return g, nil
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return int(g.n) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.m }

// Weighted reports whether edges carry weights.
func (g *Graph) Weighted() bool { return g.weights != nil }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v int32) int {
	return int(g.ends[v] - g.offsets[v])
}

// Neighbors returns the targets (and weights, nil if unweighted) of v's
// out-edges as subslices of the CSR arrays; callers must not modify them.
func (g *Graph) Neighbors(v int32) ([]int32, []float64) {
	lo, hi := g.offsets[v], g.ends[v]
	if g.weights == nil {
		return g.targets[lo:hi], nil
	}
	return g.targets[lo:hi], g.weights[lo:hi]
}

// EdgeRange returns the CSR index range of v's out-edges.
func (g *Graph) EdgeRange(v int32) (lo, hi int32) {
	return g.offsets[v], g.ends[v]
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
// empty range (+Inf, −Inf). The range is the builtin min's and max's, −0
// below +0. The loop reads it with plain compares; a graph with a NaN
// weight, whose range is the NaN bits the builtins make, is read again
// through them.
func (g *Graph) WeightStats() (lo, hi, meanAbs float64) {
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
			if w <= lo && (w < lo || math.Signbit(w)) {
				lo = w
			}
			if w >= hi && (w > hi || !math.Signbit(w)) {
				hi = w
			}
			sum += math.Abs(w)
		}
	}
	if sum != sum { // a sum of |w| is NaN only when a weight is
		lo, hi = math.Inf(1), math.Inf(-1)
		for v := int32(0); v < g.n; v++ {
			for _, w := range g.weights[g.offsets[v]:g.ends[v]] {
				lo, hi = min(lo, w), max(hi, w)
			}
		}
	}
	return lo, hi, sum / float64(g.m)
}

// FindEdge returns the first edge in CSR order whose weight satisfies bad.
func (g *Graph) FindEdge(bad func(w float64) bool) (Edge, bool) {
	for v := int32(0); v < g.n; v++ {
		for i := g.offsets[v]; i < g.ends[v]; i++ {
			if w := g.Weight(i); bad(w) {
				return Edge{Src: v, Dst: g.targets[i], W: w}, true
			}
		}
	}
	return Edge{}, false
}

// Edges materialises the edge list (mostly for tests and export).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for v := int32(0); v < g.n; v++ {
		lo, hi := g.offsets[v], g.ends[v]
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
func (g *Graph) Reverse() *Graph { return g.transposed(g.weights != nil) }

// InSources returns the transposed adjacency alone — row v of the result
// lists the sources of v's in-edges — for a caller that only asks who
// points at a vertex: 4 bytes an edge, no weights.
func (g *Graph) InSources() *Graph { return g.transposed(false) }

// SortedRows returns a copy of g whose rows list their edges by target,
// parallel edges in the order g's row holds them: one counting sort by
// target, then a scatter back by source. Rows are cut into one part per
// processor, of about equal edges and at least 16 k of them, and the
// parts sort side by side: on two cores each workload graph of
// BenchmarkSortedRows sorts in 0.7–0.85 of its serial time.
// ApplyEdgeMutations keeps the copy sorted — an insert lands after its
// row's equal targets — so after a batch it is SortedRows of g after the
// same batch.
func (g *Graph) SortedRows() *Graph {
	s := &Graph{n: g.n, m: g.m, offsets: make([]int32, g.n+1), ends: make([]int32, g.n), targets: make([]int32, g.m), sorted: true}
	if g.weights != nil {
		s.weights = make([]float64, g.m)
	}
	for v := int32(0); v < g.n; v++ {
		s.offsets[v+1] = s.offsets[v] + g.ends[v] - g.offsets[v]
	}
	parts := max(1, min(runtime.GOMAXPROCS(0), g.m>>14))
	var wg sync.WaitGroup
	for k, lo := 1, int32(0); k <= parts; k++ {
		hi := g.n
		if k < parts {
			i, _ := slices.BinarySearch(s.offsets, int32(g.m*k/parts))
			hi = max(int32(i), lo)
		}
		wg.Add(1)
		go func(lo, hi int32) {
			defer wg.Done()
			s.sortRows(g, lo, hi)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
	return s
}

// sortRows lays out g's rows [lo, hi) in s: their edges counted and
// listed by target — the source and, on a weighted graph, the slot of
// each, sources ascending and a row's parallel edges in its order — then
// scattered back to their rows.
func (s *Graph) sortRows(g *Graph, lo, hi int32) {
	at := make([]int32, g.n+1) // by target: where its edges go in the list
	for v := lo; v < hi; v++ {
		for _, t := range g.targets[g.offsets[v]:g.ends[v]] {
			at[t+1]++
		}
	}
	for t := int32(0); t < g.n; t++ {
		at[t+1] += at[t]
	}
	src, slot := make([]int32, s.offsets[hi]-s.offsets[lo]), []int32(nil)
	if g.weights != nil {
		slot = make([]int32, len(src))
	}
	for v := lo; v < hi; v++ {
		for i := g.offsets[v]; i < g.ends[v]; i++ {
			p := at[g.targets[i]]
			at[g.targets[i]]++
			if src[p] = v; slot != nil {
				slot[p] = i
			}
		}
	}
	copy(s.ends[lo:hi], s.offsets[lo:hi]) // each row's fill cursor, left at its end
	p := int32(0)
	for t := int32(0); t < g.n; t++ {
		for ; p < at[t]; p++ {
			v := src[p]
			s.targets[s.ends[v]] = t
			if g.weights != nil {
				s.weights[s.ends[v]] = g.weights[slot[p]]
			}
			s.ends[v]++
		}
	}
}

// transposed is a counting sort of the edges by target. Rows are read in
// order, so an in-row lists its sources in ascending order and parallel
// edges in the order their row held them: its rows are sorted.
func (g *Graph) transposed(weighted bool) *Graph {
	t := &Graph{n: g.n, m: g.m, offsets: make([]int32, g.n+1), targets: make([]int32, g.m), sorted: true}
	if weighted {
		t.weights = make([]float64, g.m)
	}
	for v := int32(0); v < g.n; v++ {
		for _, d := range g.targets[g.offsets[v]:g.ends[v]] {
			t.offsets[d+1]++
		}
	}
	for v := int32(0); v < g.n; v++ {
		t.offsets[v+1] += t.offsets[v]
	}
	t.ends = slices.Clone(t.offsets[:g.n]) // each row's fill cursor, as in FromEdges
	for v := int32(0); v < g.n; v++ {
		for i := g.offsets[v]; i < g.ends[v]; i++ {
			at := t.ends[g.targets[i]]
			t.ends[g.targets[i]]++
			t.targets[at] = v
			if weighted {
				t.weights[at] = g.weights[i]
			}
		}
	}
	return t
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

// LoadTSV reads an edge list: one edge per line, "src dst [weight]",
// separated by white space (Unicode's, as strings.Fields splits). A line
// whose first field starts with '#' or '%' is a comment; fields past the
// third, and the third of an unweighted load, are not read. A vertex id is
// a decimal int32 with an optional sign, used as-is, and n is inferred as
// max id + 1 unless a larger n is given; a weight is anything
// strconv.ParseFloat accepts except NaN, which no aggregate can order.
//
// The input is read a chunk at a time and parsed as bytes into blocks of
// edges, which FromEdges's counting sort then lays out as the CSR. So a
// load holds the blocks (16 bytes an edge) and one chunk, never the text,
// and allocates a few dozen times whatever the edge count (DESIGN.md,
// "The path in front of the fixpoint").
func LoadTSV(r io.Reader, n int, weighted bool) (*Graph, error) {
	blocks, maxID, err := readEdges(r, weighted)
	if err != nil {
		return nil, err
	}
	return fromBlocks(max(n, int(maxID)+1), blocks, weighted)
}

// chunkSize is how much text readEdges holds at a time (more, for a
// longer line).
var chunkSize = 1 << 20

// readEdges parses the edge list r into blocks of edges in file order;
// maxID is the largest vertex id it names, -1 if it names none. A read
// error is returned once the text before it has parsed.
func readEdges(r io.Reader, weighted bool) ([][]Edge, int32, error) {
	var blocks [][]Edge
	buf, lineNo, maxID := make([]byte, 0, chunkSize), 1, int32(-1)
	for {
		k, rerr := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		whole := buf // the lines that are all here
		if rerr == nil {
			if whole = buf[:bytes.LastIndexByte(buf, '\n')+1]; len(whole) == 0 {
				buf = slices.Grow(buf, len(buf))
				continue
			}
		}
		var err error
		if blocks, lineNo, maxID, err = parseTSV(whole, weighted, lineNo, maxID, blocks); err != nil {
			return nil, 0, err
		}
		switch rerr {
		case nil:
			buf = buf[:copy(buf, buf[len(whole):])]
		case io.EOF, io.ErrUnexpectedEOF:
			return blocks, maxID, nil
		default:
			return nil, 0, rerr
		}
	}
}

// parseTSV appends the edges of data, whole lines from lineNo on, to
// blocks, and returns the number of the line after data. Text past 64 KB
// is cut at newlines into one part per processor, and the parts parse
// side by side, each into a block of its own; the blocks keep file order
// and the first part with an error reports it, so the edges and the error
// are those of one pass from the top.
func parseTSV(data []byte, weighted bool, lineNo int, maxID int32, blocks [][]Edge) ([][]Edge, int, int32, error) {
	type part struct {
		text  []byte
		line  int // the number of its first line
		edges []Edge
		maxID int32
		err   error
	}
	parts := make([]part, max(1, min(runtime.GOMAXPROCS(0), len(data)>>16)))
	for k := range parts {
		text := data
		if at := len(data) / (len(parts) - k); k < len(parts)-1 {
			if i := bytes.IndexByte(data[at:], '\n'); i >= 0 {
				text = data[:at+i+1]
			}
		}
		lines := bytes.Count(text, []byte{'\n'})
		parts[k], data = part{text: text, line: lineNo, edges: make([]Edge, 0, min(lines+1, (len(text)+1)/4))}, data[len(text):]
		lineNo += lines
	}
	var wg sync.WaitGroup
	for k := range parts {
		p := &parts[k]
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.edges, p.maxID, p.err = parseLines(p.text, weighted, p.line, p.edges)
			if len(p.edges) < cap(p.edges)/2 { // mostly blank or comment lines: keep the edges alone
				p.edges = slices.Clone(p.edges)
			}
		}()
	}
	wg.Wait()
	for _, p := range parts {
		if p.err != nil {
			return nil, 0, 0, p.err
		}
		if len(p.edges) > 0 {
			blocks = append(blocks, p.edges)
		}
		maxID = max(maxID, p.maxID)
	}
	return blocks, lineNo, maxID, nil
}

// parseLines appends the edges of text, which starts at line lineNo, to
// edges. It reads a byte once: a field is converted as it is scanned, and
// scanned again only to be quoted in an error.
func parseLines(text []byte, weighted bool, lineNo int, edges []Edge) (_ []Edge, maxID int32, err error) {
	maxID = -1
	for i := 0; i < len(text); lineNo++ {
		if !graphic(text[i]) {
			if i = skipSpace(text, i); i == len(text) {
				break
			}
		}
		if c := text[i]; c == '\n' || c == '#' || c == '%' { // no field, or a comment
			i = lineEnd(text, i)
			continue
		}
		e, srcAt := Edge{W: 1}, i
		var srcOK, ok bool
		if e.Src, i, srcOK = parseID(text, i); i == len(text) || text[i] == '\n' {
			return nil, 0, fmt.Errorf("graph: line %d: need at least src and dst", lineNo)
		}
		if !srcOK {
			return nil, 0, fmt.Errorf("graph: line %d: bad src %q", lineNo, text[srcAt:fieldEnd(text, srcAt)])
		}
		dstAt := i
		if e.Dst, i, ok = parseID(text, i); !ok {
			return nil, 0, fmt.Errorf("graph: line %d: bad dst %q", lineNo, text[dstAt:fieldEnd(text, dstAt)])
		}
		if at := i; weighted && at < len(text) && text[at] != '\n' {
			if e.W, i, ok = parseWeight(text, at); !ok || e.W != e.W {
				return nil, 0, fmt.Errorf("graph: line %d: bad weight %q", lineNo, text[at:fieldEnd(text, at)])
			}
		}
		i = lineEnd(text, i)
		edges = append(edges, e)
		maxID = max(maxID, e.Src, e.Dst)
	}
	return edges, maxID, nil
}

// skipSpace returns the index of the first byte at or after i that is a
// newline or starts no white-space rune, len(s) if there is none.
func skipSpace(s []byte, i int) int {
	for i < len(s) && s[i] != '\n' {
		width := spaceAt(s[i:])
		if width == 0 {
			break
		}
		i += width
	}
	return i
}

// fieldEnd returns the index of the first byte at or after i that starts
// a white-space rune, len(s) if there is none.
func fieldEnd(s []byte, i int) int {
	for i < len(s) && (graphic(s[i]) || spaceAt(s[i:]) == 0) {
		i++ // byte by byte: no byte inside a rune starts a white-space rune
	}
	return i
}

// lineEnd returns the index past the newline that ends the line i is in,
// len(s) if there is none.
func lineEnd(s []byte, i int) int {
	if i < len(s) && s[i] == '\n' {
		return i + 1
	}
	if j := bytes.IndexByte(s[i:], '\n'); j >= 0 {
		return i + j + 1
	}
	return len(s)
}

// graphic reports whether c is a printing ASCII character other than the
// space, which is what almost every byte of an edge list is.
func graphic(c byte) bool { return c-'!' < utf8.RuneSelf-'!' }

// spaceAt returns the width of the white-space rune s starts with, 0 if
// it starts with anything else.
func spaceAt(s []byte) int {
	if c := s[0]; c < utf8.RuneSelf {
		return int(asciiSpace[c])
	}
	return wideSpaceAt(s)
}

// asciiSpace is 1 at the ASCII white-space bytes: a lookup keeps
// spaceAt small enough to inline into the field scans.
var asciiSpace = [utf8.RuneSelf]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// wideSpaceAt is spaceAt past ASCII.
func wideSpaceAt(s []byte) int {
	if r, width := utf8.DecodeRune(s); unicode.IsSpace(r) {
		return width
	}
	return 0
}

// parseID reads the field at s[i:] as strconv.ParseInt(f, 10, 32) would:
// an optional sign and decimal digits, in the int32 range. next is where
// the white space after the field ends, whether or not it parsed; the
// white space is skipped here, as skipSpace would, because a call per
// field costs a tenth of a parse.
func parseID(s []byte, i int) (id int32, next int, ok bool) {
	neg := s[i] == '-'
	if neg || s[i] == '+' {
		i++
	}
	v, digits := int64(0), i
	for ; i < len(s); i++ {
		c := s[i] - '0'
		if c > 9 {
			break
		}
		if v <= math.MaxInt32 {
			v = v*10 + int64(c)
		}
	}
	if neg {
		v = -v
	}
	ok = i > digits && v >= math.MinInt32 && v <= math.MaxInt32
	if i < len(s) && spaceAt(s[i:]) == 0 { // the field goes on past its digits
		i, ok = fieldEnd(s, i), false
	}
	for i < len(s) && s[i] != '\n' {
		width := spaceAt(s[i:])
		if width == 0 {
			break
		}
		i += width
	}
	return int32(v), i, ok
}

// parseWeight reads the field at s[i:] as strconv.ParseFloat(f, 64)
// would; end is where the field ends. A plain decimal — an optional sign,
// digits, at most one point — whose digits make an integer below 2^53
// with at most 22 of them after the point is converted as it is scanned:
// the integer and the power of ten are exact float64s, so the one
// division rounds once, to the float64 nearest the decimal's value
// (Clinger); strconv takes the same shortcut first. Anything else — more
// digits, an exponent, Inf, hex, a malformed field — is strconv's to
// decide, once the field's end is found.
func parseWeight(s []byte, i int) (w float64, end int, ok bool) {
	at, mant, digits, frac, point := i, uint64(0), 0, 0, false
	if s[i] == '+' || s[i] == '-' {
		i++
	}
	for ; i < len(s); i++ {
		if c := s[i] - '0'; c <= 9 {
			if mant < 1<<53 {
				mant = mant*10 + uint64(c)
			}
			digits++
			if point {
				frac++
			}
		} else if s[i] == '.' && !point {
			point = true
		} else {
			break
		}
	}
	if i < len(s) && spaceAt(s[i:]) == 0 {
		i = fieldEnd(s, i)
	} else if digits > 0 && mant < 1<<53 && frac <= 22 {
		w = float64(mant) / math.Pow10(frac)
		if s[at] == '-' {
			w = -w
		}
		return w, i, true
	}
	w, err := strconv.ParseFloat(string(s[at:i]), 64)
	return w, i, err == nil
}

// WriteTSV writes the edge list in LoadTSV's format, a weight as %g
// prints it.
func (g *Graph) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	for v := int32(0); v < g.n; v++ {
		for i := g.offsets[v]; i < g.ends[v]; i++ {
			buf = strconv.AppendInt(buf[:0], int64(v), 10)
			buf = strconv.AppendInt(append(buf, '\t'), int64(g.targets[i]), 10)
			if g.weights != nil {
				buf = strconv.AppendFloat(append(buf, '\t'), g.weights[i], 'g', -1, 64)
			}
			if _, err := bw.Write(append(buf, '\n')); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
