package compiler

import (
	"powerlog/internal/analyzer"
	"powerlog/internal/ast"
	"powerlog/internal/graph"
)

// GraphFromFacts builds a CSR graph from the program's inline ground
// facts for the given edge predicate — how self-contained example
// programs (facts in the source) provide their propagation structure.
// n may force a larger vertex count than the facts mention.
func GraphFromFacts(info *analyzer.Info, pred string, n int) (*graph.Graph, error) {
	var edges []graph.Edge
	weighted := false
	maxID := int64(-1)
	for _, f := range info.GroundFacts {
		if f.Head.Name != pred {
			continue
		}
		args := f.Head.Args
		if len(args) < 2 {
			return nil, errf("fact %s needs at least (src, dst)", f.Head)
		}
		vals := make([]float64, len(args))
		for i, t := range args {
			if t.Kind != ast.TermNum {
				return nil, errf("fact %s must have numeric arguments", f.Head)
			}
			vals[i] = t.Num
		}
		e := graph.Edge{Src: int32(vals[0]), Dst: int32(vals[1]), W: 1}
		if len(vals) >= 3 {
			e.W = vals[2]
			weighted = true
		}
		edges = append(edges, e)
		if int64(e.Src) > maxID {
			maxID = int64(e.Src)
		}
		if int64(e.Dst) > maxID {
			maxID = int64(e.Dst)
		}
	}
	if len(edges) == 0 {
		return nil, errf("no %s facts in program", pred)
	}
	if int(maxID)+1 > n {
		n = int(maxID) + 1
	}
	return graph.FromEdges(n, edges, weighted)
}
