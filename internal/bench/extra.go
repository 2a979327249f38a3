package bench

import (
	"fmt"

	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/progs"
)

// extraSpec describes one beyond-the-paper workload. Its graph is not a
// Table-2 stand-in and is already seconds-sized, so Smoke leaves it as it
// is.
type extraSpec struct {
	name    string
	dataset string
	pred    string // join predicate the graph registers under
	source  string
	graph   func() *graph.Graph
}

var extraSpecs = []extraSpec{
	{"Computing Paths in DAG", "dag-20k", "dagedge", progs.PathsDAG, func() *graph.Graph { return gen.DAG(20000, 3, 100, 0, 502) }},
	{"Cost", "dag-20k", "dagedge", progs.Cost, func() *graph.Graph { return gen.DAG(20000, 3, 100, 10, 503) }},
	{"Viterbi Algorithm", "trellis-200x40", "trans", progs.Viterbi, func() *graph.Graph { return gen.Trellis(200, 40, 504) }},
	{"SimRank", "pairgraph-10k", "pairedge", progs.SimRank, func() *graph.Graph {
		g := gen.Uniform(10000, 80000, 1, 501)
		gen.NormalizeWeightsByOut(g, 1)
		return g
	}},
	{"Lowest Common Ancestor", "uniform-20k", "parent", progs.LCA, func() *graph.Graph { return gen.Uniform(20000, 100000, 0, 505) }},
	{"APSP", "uniform-300", "edge", progs.APSP, func() *graph.Graph { return gen.Uniform(300, 3000, 20, 506) }},
}

func extraAlgos() []string {
	var names []string
	for _, spec := range extraSpecs {
		names = append(names, spec.name)
	}
	return names
}

func prepareExtra(name string) (*Workload, error) {
	for _, spec := range extraSpecs {
		if spec.name != name {
			continue
		}
		wl := &Workload{Algo: name, Dataset: gen.Dataset{Name: spec.dataset}, Graph: spec.graph()}
		db := edb.NewDB()
		db.SetGraph(spec.pred, wl.Graph)
		var err error
		if wl.Plan, err = compile(spec.source, db); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return wl, nil
	}
	return nil, fmt.Errorf("bench: unknown extra workload %q", name)
}
