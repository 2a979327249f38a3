package bench

import (
	"fmt"
	"io"
	stdruntime "runtime"
	"time"

	"powerlog/internal/checker"
	"powerlog/internal/gen"
	"powerlog/internal/graphsys"
	"powerlog/internal/progs"
	"powerlog/internal/runtime"
)

// series is one engine configuration timed in every cell of a grid: the
// Series label its rows carry and the run that produces them.
type series struct {
	label string
	run   func(*Workload, RunConfig) (Measurement, error)
	// base restarts the ratio column at this series; a cell's first
	// series always is one.
	base bool
}

func of(mode runtime.Mode) series {
	return series{label: mode.String(), run: func(wl *Workload, c RunConfig) (Measurement, error) {
		return RunMode(wl, mode, c)
	}}
}

func modes(ms ...runtime.Mode) []series {
	var out []series
	for _, m := range ms {
		out = append(out, of(m))
	}
	return out
}

// with relabels s and edits the experiment's config before each run.
func (s series) with(label string, edit func(*RunConfig)) series {
	run := s.run
	s.label = label
	s.run = func(wl *Workload, c RunConfig) (Measurement, error) {
		edit(&c)
		m, err := run(wl, c)
		m.Series = label
		return m, err
	}
	return s
}

// grid is algos × datasets × series; an experiment is a list of them.
type grid struct {
	algos    []string
	datasets []string // Table-2 names; one tiny dataset under Smoke
	series   []series
	// prepare builds an algo's workload where it is not Prepare on a
	// Table-2 dataset; such a grid lists one placeholder dataset, and the
	// rows carry the name the workload gives itself.
	prepare func(algo string) (*Workload, error)
}

// experiment is one regenerable table or figure: grids run by the one
// sweep, or a procedure with its own body.
type experiment struct {
	id, title string
	edit      func(*RunConfig) // the experiment's own settings, if any
	grids     []grid
	// counters and hists name the metrics a row prints after the run's
	// own figures; one a mode never registers prints as zero — the
	// absence is itself the signal (e.g. no β activity outside the
	// unified mode).
	counters, hists []string
	run             func(io.Writer, RunConfig) ([]Measurement, error)
}

var (
	allModes = modes(runtime.NaiveSync, runtime.MRASync, runtime.MRAAsync,
		runtime.MRAAAP, runtime.MRASyncAsync, runtime.MRASSP)
	// Table 2's six, in its order; largeDatasets are the three of §6.4.
	allDatasets   = []string{"Flickr", "LiveJ", "Orkut", "Web", "Wiki", "Arabic"}
	largeDatasets = []string{"Wiki", "Web", "Arabic"}
	twoAlgos      = []string{"SSSP", "PageRank"}
)

// table is every experiment plbench can regenerate. "ablation", "ssp",
// "extra", "recovery", "rejoin", "policymetrics" and "cores" are not paper
// figures: they cover this implementation's own additions.
var table = []experiment{
	{id: "table1", run: func(w io.Writer, _ RunConfig) ([]Measurement, error) { return nil, Table1(w) }},
	{id: "table2", run: func(w io.Writer, _ RunConfig) ([]Measurement, error) { return nil, Table2(w) }},
	// The motivation: neither sync nor async wins consistently.
	{id: "fig1", title: "Figure 1: sync vs async across algorithms and datasets", grids: []grid{
		{algos: twoAlgos, datasets: []string{"LiveJ"}, series: modes(runtime.MRASync, runtime.MRAAsync)},
		{algos: []string{"SSSP"}, datasets: []string{"Wiki", "Arabic"}, series: modes(runtime.MRASync, runtime.MRAAsync)},
	}},
	// Monotonic programs run incrementally on every system (SociaLite and
	// BigDatalog sync, Myria async); the non-monotonic four fall back to
	// naive evaluation everywhere except PowerLog (§6.3).
	{id: "fig9", title: "Figure 9: overall performance (columns = engine configurations modelling SociaLite/BigDatalog [sync], Myria [async], PowerLog)", grids: []grid{
		{algos: Algorithms[:2], datasets: allDatasets, series: modes(runtime.MRASync, runtime.MRAAsync, runtime.MRASyncAsync)},
		{algos: Algorithms[2:], datasets: allDatasets, series: modes(runtime.NaiveSync, runtime.MRASyncAsync)},
	}},
	// The factor analysis, plus the hand-coded graph-system comparators
	// (PowerGraph for CC/SSSP, Maiter for PageRank, Adsorption and Katz,
	// Prom for BP).
	{id: "fig10", title: "Figure 10: performance gain from MRA evaluation and sync-async execution", grids: []grid{
		{algos: Algorithms, datasets: largeDatasets, series: append(
			modes(runtime.NaiveSync, runtime.MRASync, runtime.MRAAsync, runtime.MRASyncAsync),
			series{run: RunComparator})},
	}},
	{id: "fig11", title: "Figure 11: unified sync-async vs AAP", grids: []grid{
		{algos: twoAlgos, datasets: largeDatasets, series: modes(runtime.MRASync, runtime.MRAAsync, runtime.MRAAAP, runtime.MRASyncAsync)},
	}},
	// (a) SSSP under the schedule its plan draws (the delta-stepping
	// buckets, DESIGN.md §5b) over the small-diameter Web graph — the
	// workload the paper says SociaLite's delta stepping wins — and the
	// deep Wiki graph; (b) the §5.4 priority threshold, the one knob.
	{id: "ablation", title: "Ablation: SSSP's drawn schedule and the §5.4 priority threshold", grids: []grid{
		{algos: []string{"SSSP"}, datasets: []string{"Web", "Wiki"}, series: []series{{label: "sched=", run: runSched}}},
		{algos: []string{"PageRank"}, datasets: []string{"LiveJ"}, series: vary(of(runtime.MRASyncAsync), "threshold", func(c *RunConfig, thr float64) { c.PriorityThreshold = thr }, 0, 1e-7, 1e-5)},
	}},
	// SSP among the five other engines, then its staleness bound swept
	// from lockstep-adjacent to loose.
	{id: "ssp", title: "SSP: stale synchronous parallel vs the existing engines", grids: []grid{
		{algos: twoAlgos, datasets: []string{"LiveJ", "Wiki"}, series: allModes},
		{algos: []string{"SSSP"}, datasets: []string{"LiveJ"}, series: vary(of(runtime.MRASSP), "staleness", func(c *RunConfig, b int) { c.Staleness = b }, 1, 2, 4, 8)},
	}},
	// The six Table-1 programs §6.3 does not time, on generated workloads:
	// the whole catalogue is executable, pair-keyed programs on sparse
	// MonoTable shards included. On a perfect network, as their recorded
	// rows were: under the emulated NIC the path-counting programs' unified
	// runs send 25× the updates and take 16 s.
	{id: "extra", title: "Extra: the remaining Table-1 programs end-to-end",
		edit: func(c *RunConfig) { c.PerfectNetwork = true }, grids: []grid{
			{algos: extraAlgos(), datasets: []string{""}, series: modes(runtime.MRASync, runtime.MRASyncAsync), prepare: prepareExtra},
		}},
	{id: "recovery", title: "Recovery: crash mid-run with checkpoints on, restart, time to re-fixpoint", run: Recovery},
	{id: "rejoin", title: "Rejoin: crashed worker re-joins live vs restart-the-world", run: Rejoin},
	// One selective workload (SSSP, whose plan draws the bucket schedule)
	// and one combining workload (PageRank under the §5.4 threshold — a
	// selective plan ignores it — which exercises hold/release and the
	// adaptive β dial): which policy activity a mode pays for, next to
	// what it buys (DESIGN.md §8).
	{id: "policymetrics", title: "PolicyMetrics: per-policy counters across the six modes",
		edit: func(c *RunConfig) { c.PriorityThreshold = 1e-7 },
		counters: []string{"sched.hold", "sched.release", "sched.bucket.held", "flush.beta.band.exit",
			"flush.beta.clamp.floor", "flush.beta.clamp.ceil", "barrier.marker.resend", "recv.dup.batch"},
		hists: []string{"flush.size.dst", "barrier.straggler.wait_us"}, grids: []grid{
			{algos: twoAlgos, datasets: []string{"LiveJ"}, series: allModes},
		}},
	// Scaling past GOMAXPROCS is concurrency, not parallelism: rows from a
	// 1-CPU box show the fan-out's overhead, not a speedup (DESIGN.md §9).
	{id: "cores", title: "Cores: intra-worker subshard-scan scaling",
		counters: []string{"scan.steal", "scan.parallel.pass"}, grids: []grid{
			{algos: twoAlgos, datasets: []string{"LiveJ"}, series: coresSeries(1, 2, 4, 8)},
		}},
}

// Experiments lists the regenerable experiment ids.
var Experiments = func() []string {
	var ids []string
	for _, e := range table {
		ids = append(ids, e.id)
	}
	return ids
}()

// RunExperiment runs the experiment with the given id, writes its rows to
// w and returns them.
func RunExperiment(id string, w io.Writer, cfg RunConfig) ([]Measurement, error) {
	for _, e := range table {
		if e.id != id {
			continue
		}
		cfg = cfg.orDefaults()
		if e.edit != nil {
			e.edit(&cfg)
		}
		if e.title != "" {
			fmt.Fprintf(w, "%s (workers=%d cores=%d GOMAXPROCS=%d NumCPU=%d smoke=%v)\n", e.title,
				cfg.Workers, cfg.CoresPerWorker, stdruntime.GOMAXPROCS(0), stdruntime.NumCPU(), cfg.Smoke)
		}
		if e.run != nil {
			return e.run(w, cfg)
		}
		return sweep(w, e, cfg)
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, Experiments)
}

// sweep is the one experiment body: every cell of every grid is prepared
// once and each of its series timed once, a row per run.
func sweep(w io.Writer, e experiment, cfg RunConfig) ([]Measurement, error) {
	var out []Measurement
	for _, g := range e.grids {
		datasets := g.datasets
		if cfg.Smoke {
			datasets = datasets[:1]
		}
		for _, algo := range g.algos {
			for _, ds := range datasets {
				wl, err := g.workload(algo, ds, cfg)
				if err != nil {
					return out, err
				}
				var base Measurement
				for i, s := range g.series {
					m, err := s.run(wl, cfg)
					if err != nil {
						return out, fmt.Errorf("%s/%s/%s: %w", algo, wl.Dataset.Name, s.label, err)
					}
					if i == 0 || s.base {
						base = m
					}
					out = append(out, m)
					fmt.Fprintln(w, e.row(m, base))
				}
			}
		}
	}
	return out, nil
}

// workload prepares one cell.
func (g grid) workload(algo, ds string, cfg RunConfig) (*Workload, error) {
	if g.prepare != nil {
		return g.prepare(algo)
	}
	d, err := cfg.dataset(ds)
	if err != nil {
		return nil, err
	}
	return Prepare(algo, d)
}

// row renders one run: wall time, its ratio to the cell's base series, the
// quantities the policy layers steer — realised batch size (messages per
// flush), time blocked at the staleness gate, the adaptive β where one was
// sampled — and the experiment's metrics.
func (e experiment) row(m, base Measurement) string {
	batch := 0.0
	if m.Flushes > 0 {
		batch = float64(m.Messages) / float64(m.Flushes)
	}
	s := fmt.Sprintf("  %-10s %-9s %-22s %8.3fs  (%5.2fx vs %s)  rounds=%-5d msgs=%-9d batch=%7.1f straggler=%v keys=%d conv=%v",
		m.Algo, m.Dataset, m.Series, m.Seconds, base.Seconds/m.Seconds, base.Series,
		m.Rounds, m.Messages, batch, m.StragglerWait, m.Keys, m.Converged)
	if m.BetaFinal > 0 {
		s += fmt.Sprintf(" β≈%.0f", m.BetaFinal)
	}
	for _, c := range e.counters {
		s += fmt.Sprintf(" %s=%d", c, m.Metrics.Counter(c))
	}
	for _, h := range e.hists {
		hist := m.Metrics.MergeHistograms(h)
		s += fmt.Sprintf(" %s.p50/p99=%.0f/%.0f", h, hist.Quantile(0.5), hist.Quantile(0.99))
	}
	return s
}

// runSched is the unified mode labelled with the schedule the plan drew.
func runSched(wl *Workload, cfg RunConfig) (Measurement, error) {
	m, err := RunMode(wl, runtime.MRASyncAsync, cfg)
	m.Series = "sched=" + m.Sched
	return m, err
}

// vary is one series per value of a config knob, labelled name=value; the
// ratio column restarts at the first.
func vary[T any](s series, name string, set func(*RunConfig, T), vals ...T) []series {
	var out []series
	for i, v := range vals {
		point := s.with(fmt.Sprintf("%s=%v", name, v), func(c *RunConfig) { set(c, v) })
		point.base = i == 0
		out = append(out, point)
	}
	return out
}

// coresSeries sweeps the per-worker scan parallelism (runtime
// Config.CoresPerWorker) under the two barrier-free modes that fan out.
func coresSeries(cores ...int) []series {
	var out []series
	for _, mode := range []runtime.Mode{runtime.MRAAsync, runtime.MRASyncAsync} {
		out = append(out, vary(of(mode), mode.String()+" cores",
			func(c *RunConfig, n int) { c.CoresPerWorker = n }, cores...)...)
	}
	return out
}

// Table1 reproduces the condition-check catalogue: every program is run
// through the automatic checker; twelve must pass, CommNet and
// GCN-Forward must fail.
func Table1(w io.Writer) error {
	fmt.Fprintf(w, "Table 1: MRA condition check over the program catalogue\n")
	fmt.Fprintf(w, "%-26s %-6s %-9s %-22s %-22s\n", "Program", "Agg", "MRA sat.", "P1", "P2")
	for _, p := range progs.Catalog() {
		rep, _, err := checker.CheckSource(p.Source)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		sat := "yes"
		if !rep.Satisfied {
			sat = "no"
		}
		fmt.Fprintf(w, "%-26s %-6s %-9s %-22v %-22v\n",
			p.Name, rep.Agg, sat, rep.P1.Verdict, rep.P2.Verdict)
		if rep.Satisfied != p.ExpectSat {
			return fmt.Errorf("%s: checker verdict %v diverges from Table 1 (%v)", p.Name, rep.Satisfied, p.ExpectSat)
		}
	}
	return nil
}

// Table2 prints the dataset registry: the paper's six graphs and their
// synthetic stand-ins.
func Table2(w io.Writer) error {
	fmt.Fprintf(w, "Table 2: datasets (paper original → synthetic stand-in)\n")
	fmt.Fprintf(w, "%-8s %-12s %13s %13s | %10s %10s  %s\n",
		"Name", "Original", "orig |V|", "orig |E|", "|V|", "|E|", "generator")
	for _, d := range gen.Datasets() {
		g := d.Build(false)
		fmt.Fprintf(w, "%-8s %-12s %13d %13d | %10d %10d  %s\n",
			d.Name, d.Original, d.OrigV, d.OrigE, g.NumVertices(), g.NumEdges(), d.Kind)
	}
	return nil
}

// RunComparator times the graph-processing-system stand-in for the
// workload (Figure 10's PowerGraph/Maiter/Prom series).
func RunComparator(wl *Workload, cfg RunConfig) (Measurement, error) {
	g := wl.Graph
	timed := func(run func()) float64 {
		start := time.Now()
		run()
		return time.Since(start).Seconds()
	}
	maiter := func(p *graphsys.Program) float64 { return timed(func() { graphsys.RunAsync(g, p, cfg.Workers) }) }
	series, secs := "Maiter", 0.0
	switch wl.Algo {
	case "SSSP", "CC":
		// The paper uses PowerGraph's best of sync/async; sync wins on
		// these laptop-scale shards, so time both and keep the best.
		p := graphsys.SSSP(0)
		if wl.Algo == "CC" {
			p = graphsys.CC(g)
		}
		series, secs = "PowerGraph", min(timed(func() { graphsys.RunSync(g, p) }), maiter(p))
	case "PageRank":
		secs = maiter(graphsys.PageRank(g, 1e-4))
	case "Adsorption":
		secs = maiter(graphsys.Adsorption(g, wl.Inj, wl.Pi, wl.Pc, 1e-3))
	case "Katz":
		secs = maiter(graphsys.Katz(0, 10000, wl.KatzAlpha, 1e-3))
	case "BP":
		p := graphsys.BeliefPropagation(g, wl.Initial, wl.H, 1e-4)
		series, secs = "Prom", timed(func() { graphsys.RunPrioritized(g, p) })
	default:
		return Measurement{}, fmt.Errorf("bench: no comparator for %s", wl.Algo)
	}
	return Measurement{Algo: wl.Algo, Dataset: wl.Dataset.Name, Series: series, Seconds: secs, Converged: true}, nil
}
