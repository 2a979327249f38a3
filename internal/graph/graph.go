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
	g.m, g.targets = len(edges), make([]int32, len(edges))
	if weighted {
		g.weights = make([]float64, len(edges))
	}
	g.ends = slices.Clone(g.offsets[:n]) // each row's fill cursor, left at its end
	for _, e := range edges {
		pos := g.ends[e.Src]
		g.targets[pos] = e.Dst
		if weighted {
			g.weights[pos] = e.W
		}
		g.ends[e.Src]++
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
// empty range (+Inf, −Inf).
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
			lo, hi = min(lo, w), max(hi, w)
			sum += math.Abs(w)
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

// transposed is a counting sort of the edges by target. Rows are read in
// order, so an in-row lists its sources in ascending order and parallel
// edges in the order their row held them.
func (g *Graph) transposed(weighted bool) *Graph {
	t := &Graph{n: g.n, m: g.m, offsets: make([]int32, g.n+1), targets: make([]int32, g.m)}
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

// Partition maps vertex v to one of k workers. PowerLog uses modulo hash
// partitioning of MonoTable shards.
func Partition(v int64, k int) int {
	if v < 0 {
		v = -v
	}
	return int(v % int64(k))
}

// LoadTSV reads an edge list: one edge per line, "src dst [weight]",
// separated by white space (Unicode's, as strings.Fields splits). A line
// whose first field starts with '#' or '%' is a comment; fields past the
// third, and the third of an unweighted load, are not read. A vertex id is
// a decimal int32 with an optional sign, used as-is, and n is inferred as
// max id + 1 unless a larger n is given; a weight is anything
// strconv.ParseFloat accepts except NaN, which no aggregate can order.
//
// The input is read a chunk at a time and parsed as bytes, so a load
// allocates a few dozen times whatever the edge count and holds the edge
// array, not the text (DESIGN.md, "The path in front of the fixpoint").
func LoadTSV(r io.Reader, n int, weighted bool) (*Graph, error) {
	edges, maxID, err := readEdges(r, weighted)
	if err != nil {
		return nil, err
	}
	return FromEdges(max(n, int(maxID)+1), edges, weighted)
}

// chunkSize is how much text readEdges holds at a time (more, for a
// longer line).
var chunkSize = 1 << 20

// readEdges parses the edge list r; maxID is the largest vertex id it
// names, -1 if it names none. A read error is returned once the text
// before it has parsed.
func readEdges(r io.Reader, weighted bool) ([]Edge, int32, error) {
	var edges []Edge
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
		var m int32
		var err error
		if edges, m, err = parseTSV(whole, weighted, lineNo, edges); err != nil {
			return nil, 0, err
		}
		lineNo, maxID = lineNo+bytes.Count(whole, []byte{'\n'}), max(maxID, m)
		switch rerr {
		case nil:
			buf = buf[:copy(buf, buf[len(whole):])]
		case io.EOF, io.ErrUnexpectedEOF:
			return edges, maxID, nil
		default:
			return nil, 0, rerr
		}
	}
}

// parseTSV appends the edges of data, whole lines from lineNo on, to
// edges. Text past 64 KB is cut at newlines into one part per processor,
// parsed side by side into the stretches of the edge array that the
// parts' line counts bound, and closed up in file order: the edges and
// the error, if any, are those of one pass from the top.
func parseTSV(data []byte, weighted bool, lineNo int, edges []Edge) ([]Edge, int32, error) {
	type part struct {
		text  []byte
		at    int // where its edges go: the edges and lines before it
		edges []Edge
		maxID int32
		err   error
	}
	parts := make([]part, max(1, min(runtime.GOMAXPROCS(0), len(data)>>16)))
	n := len(edges)
	end := n
	for k := range parts {
		text := data
		if at := len(data) / (len(parts) - k); k < len(parts)-1 {
			if i := bytes.IndexByte(data[at:], '\n'); i >= 0 {
				text = data[:at+i+1]
			}
		}
		parts[k], data = part{text: text, at: end}, data[len(text):]
		end += bytes.Count(text, []byte{'\n'})
	}
	end++ // a last line without its newline
	edges = slices.Grow(edges, end-n)[:end]
	var wg sync.WaitGroup
	for k := range parts {
		p, stop := &parts[k], end
		if k < len(parts)-1 {
			stop = parts[k+1].at
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.edges, p.maxID, p.err = parseLines(p.text, weighted, lineNo+p.at-n, edges[p.at:p.at:stop])
		}()
	}
	wg.Wait()
	maxID := int32(-1)
	for _, p := range parts {
		if p.err != nil {
			return nil, 0, p.err
		}
		n += copy(edges[n:], p.edges)
		maxID = max(maxID, p.maxID)
	}
	return edges[:n], maxID, nil
}

// parseLines appends the edges of text, which starts at line lineNo, to
// edges.
func parseLines(text []byte, weighted bool, lineNo int, edges []Edge) (_ []Edge, maxID int32, err error) {
	maxID = -1
	for ; len(text) > 0; lineNo++ {
		line := text
		if i := bytes.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = nil
		}
		src, line := nextField(line)
		if len(src) == 0 || src[0] == '#' || src[0] == '%' {
			continue
		}
		dst, line := nextField(line)
		if len(dst) == 0 {
			return nil, 0, fmt.Errorf("graph: line %d: need at least src and dst", lineNo)
		}
		e := Edge{W: 1}
		var ok bool
		if e.Src, ok = parseID(src); !ok {
			return nil, 0, fmt.Errorf("graph: line %d: bad src %q", lineNo, src)
		}
		if e.Dst, ok = parseID(dst); !ok {
			return nil, 0, fmt.Errorf("graph: line %d: bad dst %q", lineNo, dst)
		}
		if w, _ := nextField(line); weighted && len(w) > 0 {
			if e.W, ok = parseWeight(w); !ok || e.W != e.W {
				return nil, 0, fmt.Errorf("graph: line %d: bad weight %q", lineNo, w)
			}
		}
		edges = append(edges, e)
		maxID = max(maxID, e.Src, e.Dst)
	}
	return edges, maxID, nil
}

// nextField returns the first white-space-delimited field of s (empty if
// there is none) and what follows it.
func nextField(s []byte) (field, rest []byte) {
	lo := 0
	for lo < len(s) && !graphic(s[lo]) {
		width := spaceAt(s[lo:])
		if width == 0 {
			break
		}
		lo += width
	}
	hi := lo
	for hi < len(s) && (graphic(s[hi]) || spaceAt(s[hi:]) == 0) {
		hi++ // byte by byte: no byte inside a rune starts a white-space rune
	}
	return s[lo:hi], s[hi:]
}

// graphic reports whether c is a printing ASCII character other than the
// space, which is what almost every byte of an edge list is.
func graphic(c byte) bool { return c-'!' < utf8.RuneSelf-'!' }

// spaceAt returns the width of the white-space rune s starts with, 0 if
// it starts with anything else.
func spaceAt(s []byte) int {
	if c := s[0]; c < utf8.RuneSelf {
		if c == ' ' || c-'\t' < 5 {
			return 1
		}
		return 0
	}
	if r, width := utf8.DecodeRune(s); unicode.IsSpace(r) {
		return width
	}
	return 0
}

// parseID is strconv.ParseInt(f, 10, 32): an optional sign and decimal
// digits, in the int32 range.
func parseID(f []byte) (int32, bool) {
	neg := false
	if len(f) > 0 && (f[0] == '+' || f[0] == '-') {
		neg, f = f[0] == '-', f[1:]
	}
	if len(f) == 0 {
		return 0, false
	}
	v := int64(0)
	for _, c := range f {
		if c -= '0'; c > 9 || v > math.MaxInt32 {
			return 0, false
		}
		v = v*10 + int64(c)
	}
	if neg {
		v = -v
	}
	return int32(v), v >= math.MinInt32 && v <= math.MaxInt32
}

// parseWeight is strconv.ParseFloat(f, 64). A plain decimal — an
// optional sign, digits, at most one point — whose digits make an
// integer below 2^53 with at most 22 of them after the point is converted
// here: the integer and the power of ten are exact float64s, so the one
// division rounds once, to the float64 nearest the decimal's value
// (Clinger); strconv takes the same shortcut first. Anything else — more
// digits, an exponent, Inf, hex, a malformed field — is strconv's to
// decide.
func parseWeight(f []byte) (float64, bool) {
	i, mant, digits, frac, point := 0, uint64(0), 0, 0, false
	if f[0] == '+' || f[0] == '-' {
		i = 1
	}
	for ; i < len(f); i++ {
		if c := f[i] - '0'; c <= 9 && mant < 1<<53 {
			mant = mant*10 + uint64(c)
			digits++
			if point {
				frac++
			}
		} else if f[i] == '.' && !point {
			point = true
		} else {
			break
		}
	}
	if i == len(f) && digits > 0 && mant < 1<<53 && frac <= 22 {
		v := float64(mant) / math.Pow10(frac)
		if f[0] == '-' {
			v = -v
		}
		return v, true
	}
	v, err := strconv.ParseFloat(string(f), 64)
	return v, err == nil
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
