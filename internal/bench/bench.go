// Package bench is the experiment harness that regenerates the paper's
// evaluation: Table 1 (condition-check catalogue), Table 2 (datasets),
// Figure 1 (sync-vs-async motivation), Figure 9 (overall comparison),
// Figure 10 (factor analysis incl. graph-system comparators), and
// Figure 11 (adaptive engines). Absolute times differ from the paper's
// 17-node Aliyun cluster, but the shapes — who wins, by what factor,
// where the crossovers sit — are the reproduction targets recorded in
// EXPERIMENTS.md.
package bench

import (
	"fmt"
	"time"

	"powerlog/internal/analyzer"
	"powerlog/internal/compiler"
	"powerlog/internal/edb"
	"powerlog/internal/fault"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/metrics"
	"powerlog/internal/parser"
	"powerlog/internal/progs"
	"powerlog/internal/runtime"
)

// Algorithms evaluated in §6.3, in the paper's order.
var Algorithms = []string{"CC", "SSSP", "PageRank", "Adsorption", "Katz", "BP"}

// Workload couples an algorithm with a dataset and carries the prepared
// plan plus the raw inputs the graph-system comparators need.
type Workload struct {
	Algo    string
	Dataset gen.Dataset

	Plan  *compiler.Plan
	Graph *graph.Graph // the (possibly normalised) propagation graph

	// Attribute columns for Adsorption / BP comparators.
	Inj, Pi, Pc, Initial, H []float64

	// KatzAlpha is the attenuation used for the Katz workload (scaled to
	// the graph's spectral radius; see Prepare).
	KatzAlpha float64
}

// datasetSeed derives per-(algo,dataset) attribute seeds.
func datasetSeed(d gen.Dataset, salt int64) int64 { return d.Seed*1000 + salt }

// Prepare builds the workload: dataset graph, attribute relations, and
// the compiled plan.
func Prepare(algo string, d gen.Dataset) (*Workload, error) {
	w := &Workload{Algo: algo, Dataset: d}
	db := edb.NewDB()
	src, pred := "", "edge"
	switch algo {
	case "CC":
		w.Graph = d.Build(false)
		src = progs.CC
	case "SSSP":
		w.Graph = d.Build(true)
		src = progs.SSSP
	case "PageRank":
		w.Graph = d.Build(false)
		src = progs.PageRank
	case "Katz":
		w.Graph = d.Build(false)
		// Scale the attenuation below the spectral bound so the metric is
		// finite on skewed graphs (Katz 1953 requires α < 1/λ_max); 0.9/λ
		// keeps the series deep enough (≈60 effective hops) to exercise
		// the engines the way the paper's workload does.
		w.KatzAlpha = 0.1
		if lambda := gen.SpectralRadiusEstimate(w.Graph, 12); lambda > 0 && 0.9/lambda < w.KatzAlpha {
			w.KatzAlpha = 0.9 / lambda
		}
		src = progs.KatzWithAlpha(w.KatzAlpha)
	case "Adsorption":
		w.Graph = normalizedCopy(d.Build(true))
		n := w.Graph.NumVertices()
		w.Inj = ones(n)
		w.Pi = gen.VertexAttr(n, 0.1, 0.5, datasetSeed(d, 1))
		w.Pc = gen.VertexAttr(n, 0.2, 0.8, datasetSeed(d, 2))
		db.AddRelation(column("pi", w.Pi))
		db.AddRelation(column("pc", w.Pc))
		src, pred = progs.Adsorption, "A"
	case "BP":
		w.Graph = normalizedCopy(d.Build(true))
		n := w.Graph.NumVertices()
		w.Initial = gen.VertexAttr(n, 0.1, 1, datasetSeed(d, 3))
		w.H = gen.VertexAttr(n, 0.2, 0.9, datasetSeed(d, 4))
		db.AddRelation(column("I", w.Initial))
		db.AddRelation(column("H", w.H))
		src, pred = progs.BP, "E"
	default:
		return nil, fmt.Errorf("bench: unknown algorithm %q", algo)
	}
	db.SetGraph(pred, w.Graph)
	var err error
	if w.Plan, err = compile(src, db); err != nil {
		return nil, err
	}
	return w, nil
}

// compile takes program text over a database to its plan.
func compile(src string, db *edb.DB) (*compiler.Plan, error) {
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

// normalizedCopy clones a weighted graph with out-weight sums capped at 1
// (sub-stochastic propagation), leaving the cached original untouched.
func normalizedCopy(g *graph.Graph) *graph.Graph {
	edges := g.Edges()
	cp, err := graph.FromEdges(g.NumVertices(), edges, true)
	if err != nil {
		panic("bench: copy of a valid graph cannot fail: " + err.Error())
	}
	gen.NormalizeWeightsByOut(cp, 1)
	return cp
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func column(name string, vals []float64) *edb.Relation {
	r := edb.NewRelation(name, 2)
	for i, v := range vals {
		r.Add(float64(i), v)
	}
	return r
}

// RunConfig is the engine configuration an experiment starts from — the
// runtime's own Config, whose Mode every run overwrites — plus what only
// the harness knows.
type RunConfig struct {
	runtime.Config

	// PerfectNetwork disables the cluster-fabric emulation: by default a
	// run emulates the paper's 1.5 Gbps NIC as a 10M KV/s serialisation
	// cost on each worker's comm thread (latency pipelines on real
	// fabrics, so only bandwidth is charged).
	PerfectNetwork bool

	// Faults is a fault-injection spec (fault.ParseSpec syntax, e.g.
	// "seed=42,sendfail=0.1,stall=5:300us") applied to every engine run;
	// empty disables injection. The recovery experiments set it per run.
	Faults string

	// Smoke swaps every Table-2 stand-in for gen.TinyDatasets — seconds
	// instead of minutes, for CI and the package's table test.
	Smoke bool
}

// orDefaults fills the harness's defaults where they differ from the
// runtime's.
func (c RunConfig) orDefaults() RunConfig {
	if c.Tau <= 0 {
		c.Tau = time.Millisecond
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = 2 * time.Millisecond
	}
	return c
}

// dataset resolves a Table-2 name, or its tiny stand-in under Smoke.
func (c RunConfig) dataset(name string) (gen.Dataset, error) {
	if c.Smoke {
		return gen.TinyDatasets()[0], nil
	}
	return gen.DatasetByName(name)
}

// Measurement is one timed engine run.
type Measurement struct {
	Algo, Dataset, Series string
	Seconds               float64
	Rounds                int
	Messages              int64
	Converged             bool

	// Keys is the size of the result; Sched the schedule the passes
	// drained under (runtime Result.Sched).
	Keys  int
	Sched string

	// Flushes counts data messages (batches); Messages/Flushes is the
	// realised mean batch size — the quantity the flush policies steer.
	Flushes int64
	// StragglerWait sums the time workers spent blocked at the SSP
	// staleness gate (zero for other modes).
	StragglerWait time.Duration
	// BetaFinal is the mean over workers of the last sampled adaptive
	// buffer size β (unified mode with combining aggregates; else 0).
	BetaFinal float64

	// Metrics is the master's snapshot merged with every worker's
	// (counters summed, histograms bucket-wise).
	Metrics metrics.Snapshot
}

// RunMode times one engine mode on a prepared workload.
func RunMode(w *Workload, mode runtime.Mode, cfg RunConfig) (Measurement, error) {
	cfg = cfg.orDefaults()
	rc := cfg.Config
	rc.Mode = mode
	if !cfg.PerfectNetwork {
		rc.Network = runtime.NetworkProfile{KVsPerSecond: 10e6}
	}
	if cfg.Faults != "" {
		spec, err := fault.ParseSpec(cfg.Faults)
		if err != nil {
			return Measurement{}, fmt.Errorf("bench: -faults: %w", err)
		}
		rc.Fault = fault.New(spec)
	}
	res, err := runtime.Run(w.Plan, rc)
	if err != nil {
		return Measurement{}, err
	}
	m := Measurement{
		Algo:      w.Algo,
		Dataset:   w.Dataset.Name,
		Series:    mode.String(),
		Seconds:   res.Elapsed.Seconds(),
		Rounds:    res.Rounds,
		Messages:  res.MessagesSent,
		Converged: res.Converged,
		Keys:      len(res.Values),
		Sched:     res.Sched,
		Flushes:   res.Flushes,
		Metrics:   res.Master,
	}
	betaSum, betaN := 0.0, 0
	for _, ws := range res.Workers {
		m.StragglerWait += ws.StragglerWait
		m.Metrics = m.Metrics.Merge(ws.Metrics)
		if len(ws.Beta) > 0 {
			betaSum += ws.Beta[len(ws.Beta)-1]
			betaN++
		}
	}
	if betaN > 0 {
		m.BetaFinal = betaSum / float64(betaN)
	}
	return m, nil
}
