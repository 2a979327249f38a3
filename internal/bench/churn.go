package bench

import (
	"fmt"
	"io"
	"time"

	"powerlog/internal/analyzer"
	"powerlog/internal/compiler"
	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/parser"
	"powerlog/internal/progs"
	"powerlog/internal/runtime"
)

// sessionModes are the engines a long-lived Session supports (naive
// evaluation cannot re-fixpoint incrementally, and AAP is the Figure-11
// comparator only).
var sessionModes = []runtime.Mode{runtime.MRASync, runtime.MRAAsync, runtime.MRASyncAsync, runtime.MRASSP}

// churnPlan compiles an isolated plan over a private graph copy. The
// churn experiment must never hand the session gen's cached dataset
// graph: Session.Apply mutates the plan's EDB in place, which would
// poison every later run that Builds the same dataset.
func churnPlan(algo string, n int, edges []graph.Edge, weighted bool) (*compiler.Plan, error) {
	g, err := graph.FromEdges(n, edges, weighted)
	if err != nil {
		return nil, err
	}
	var src string
	switch algo {
	case "SSSP":
		src = progs.SSSP
	case "PageRank":
		src = progs.PageRank
	default:
		return nil, fmt.Errorf("bench: churn has no workload for %q", algo)
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

// Churn measures the engine-lifecycle refactor's payoff (DESIGN.md §10):
// for SSSP (selective min: support closure + reseed on deletes) and
// PageRank (combining sum: algebraic ΔX¹ correction), a long-lived
// session absorbs a reproducible mutation stream batch by batch, and the
// mean Session.Apply wall time is compared against a cold Run on the
// mutated EDB. The sweep crosses churn fraction (0.1%, 1%, 10% of edges
// per batch), batch shape (insert, delete, mixed), and every
// session-capable mode. The crossover is the result: incremental
// re-fixpoint should win clearly at low churn and surrender its lead as
// a batch approaches a rebuild-sized fraction of the graph — deletes,
// which erase and re-derive every key the deleted edges supported, give
// the smallest margins.
func Churn(w io.Writer, cfg RunConfig) ([]Measurement, error) {
	dsName := "LiveJ"
	ds, err := gen.DatasetByName(dsName)
	if err != nil {
		return nil, err
	}
	fracs := []float64{0.001, 0.01, 0.1}
	kinds := []string{"insert", "delete", "mixed"}
	batches := 2
	if cfg.Smoke {
		ds = gen.TinyDatasets()[0]
		dsName = ds.Name
		fracs = []float64{0.01}
		kinds = []string{"mixed"}
	}
	fmt.Fprintf(w, "Churn: incremental Session.Apply vs cold re-run (%s, %d batches per stream)\n", dsName, batches)

	var out []Measurement
	for _, algo := range []string{"SSSP", "PageRank"} {
		weighted := algo == "SSSP"
		base := ds.Build(weighted)
		n := base.NumVertices()
		fmt.Fprintf(w, "  %s:\n", algo)
		fmt.Fprintf(w, "    %-7s %6s  %-14s %12s %12s %9s\n",
			"kind", "churn", "mode", "apply(mean)", "cold", "speedup")
		for fi, frac := range fracs {
			for ki, kind := range kinds {
				seed := ds.Seed*100 + int64(10*fi+ki)
				stream, finalEdges, err := gen.ChurnStream(base, kind, frac, batches, seed)
				if err != nil {
					return nil, err
				}
				for _, mode := range sessionModes {
					rc, err := cfg.engineConfig(mode)
					if err != nil {
						return nil, err
					}
					label := fmt.Sprintf("%s/%s/%g%%", mode, kind, frac*100)

					plan, err := churnPlan(algo, n, base.Edges(), weighted)
					if err != nil {
						return nil, err
					}
					s, err := runtime.Open(plan, rc)
					if err != nil {
						return nil, fmt.Errorf("bench: churn %s %s: open: %w", algo, label, err)
					}
					var applySec float64
					var rounds int
					var msgs, flushes int64
					converged := true
					for bi, b := range stream {
						t0 := time.Now()
						res, err := s.Apply(runtime.Mutation{Inserts: b.Inserts, Deletes: b.Deletes})
						if err != nil {
							s.Close()
							return nil, fmt.Errorf("bench: churn %s %s: apply %d: %w", algo, label, bi+1, err)
						}
						applySec += time.Since(t0).Seconds()
						rounds += res.Rounds
						msgs += res.MessagesSent
						flushes += res.Flushes
						converged = converged && res.Converged
					}
					if err := s.Close(); err != nil {
						return nil, err
					}
					incr := Measurement{
						Algo: algo, Dataset: dsName, Series: label + "/incr",
						Seconds: applySec / float64(len(stream)), Rounds: rounds,
						Messages: msgs, Flushes: flushes, Converged: converged,
					}

					coldPlan, err := churnPlan(algo, n, finalEdges, weighted)
					if err != nil {
						return nil, err
					}
					coldRes, err := runtime.Run(coldPlan, rc)
					if err != nil {
						return nil, fmt.Errorf("bench: churn %s %s: cold: %w", algo, label, err)
					}
					cold := Measurement{
						Algo: algo, Dataset: dsName, Series: label + "/cold",
						Seconds: coldRes.Elapsed.Seconds(), Rounds: coldRes.Rounds,
						Messages: coldRes.MessagesSent, Flushes: coldRes.Flushes,
						Converged: coldRes.Converged,
					}
					out = append(out, incr, cold)
					fmt.Fprintf(w, "    %-7s %5g%%  %-14s %11.4fs %11.4fs %8.1fx\n",
						kind, frac*100, mode, incr.Seconds, cold.Seconds, cold.Seconds/incr.Seconds)
				}
			}
		}
	}
	return out, nil
}
