package server

import (
	"fmt"
	"strings"

	"powerlog/internal/analyzer"
	"powerlog/internal/compiler"
	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/parser"
	"powerlog/internal/progs"
	"powerlog/internal/runtime"
)

// The loader maps request parameters (dataset, algo, mode) onto compiled
// plans. Dataset graphs are built through gen's cache ONCE and then
// copied per session: Session.Apply mutates the plan's EDB in place, so
// handing a session the cached graph would poison every later request
// (and every bench run in the same process) that Builds the same
// dataset.

// datasetByName resolves a dataset against the Table-2 stand-ins plus
// the tiny test datasets (the latter are what the smoke target and the
// serve bench use).
func datasetByName(name string) (gen.Dataset, error) {
	if d, err := gen.DatasetByName(name); err == nil {
		return d, nil
	}
	for _, d := range gen.TinyDatasets() {
		if d.Name == name {
			return d, nil
		}
	}
	return gen.Dataset{}, fmt.Errorf("unknown dataset %q", name)
}

// modeByName parses the request's engine-mode string. Only the session-
// capable MRA modes are served: naive evaluation cannot re-fixpoint
// incrementally, so a parked naive session would be useless for
// /v1/mutate and no faster for /v1/query.
func modeByName(name string) (runtime.Mode, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "unified", "syncasync", "mra+syncasync":
		return runtime.MRASyncAsync, nil
	case "sync", "mra+sync":
		return runtime.MRASync, nil
	case "async", "mra+async":
		return runtime.MRAAsync, nil
	case "ssp", "mra+ssp":
		return runtime.MRASSP, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (have unified, sync, async, ssp)", name)
	}
}

// algoSource resolves a catalogue algorithm to its Datalog source and
// whether it runs on the weighted build of the dataset (unweighted
// builds the other one, for the algorithm that has to look at it). The serving
// catalogue is the subset of Table 1 that needs only the edge relation —
// Adsorption and BP also need attribute columns, which a stateless
// query request has nowhere to carry.
func algoSource(algo string, unweighted func() *graph.Graph) (src string, weighted bool, err error) {
	switch algo {
	case "SSSP":
		return progs.SSSP, true, nil
	case "CC":
		return progs.CC, false, nil
	case "PageRank":
		return progs.PageRank, false, nil
	case "Katz":
		// Scale the attenuation below the spectral bound so the metric
		// is finite on skewed graphs, as the bench harness does.
		alpha := 0.1
		if lambda := gen.SpectralRadiusEstimate(unweighted(), 12); lambda > 0 && 0.9/lambda < alpha {
			alpha = 0.9 / lambda
		}
		return progs.KatzWithAlpha(alpha), false, nil
	default:
		return "", false, fmt.Errorf("unknown algo %q (have SSSP, CC, PageRank, Katz)", algo)
	}
}

// buildPlan compiles a plan for (algo|source, dataset) over a PRIVATE
// copy of the dataset graph. A non-empty source is a client-submitted
// Datalog program; it must read its edges from a binary relation named
// "edge" and passes through the same parse/analyze pipeline as the
// catalogue (the analyzer rejects programs that fail the MRA condition
// check). Custom programs get the weighted build.
func buildPlan(algo, source, dataset string) (*compiler.Plan, error) {
	d, err := datasetByName(dataset)
	if err != nil {
		return nil, err
	}
	var src string
	weighted := true
	if source != "" {
		src = source
	} else {
		// Katz probes the unweighted build for the spectral radius (the
		// weighted flag does not change it structurally); nothing else
		// builds — and leaves in gen's cache — a graph it will not run on.
		src, weighted, err = algoSource(algo, func() *graph.Graph { return d.Build(false) })
		if err != nil {
			return nil, err
		}
	}
	base := d.Build(weighted)
	g, err := graph.FromEdges(base.NumVertices(), base.Edges(), weighted)
	if err != nil {
		return nil, fmt.Errorf("copy dataset graph: %w", err)
	}
	db := edb.NewDB()
	db.SetGraph("edge", g)
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := analyzer.Analyze(prog)
	if err != nil {
		return nil, err
	}
	return compiler.Compile(info, db, compiler.Options{})
}
