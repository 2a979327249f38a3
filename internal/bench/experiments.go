package bench

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"powerlog/internal/checker"
	"powerlog/internal/gen"
	"powerlog/internal/graphsys"
	"powerlog/internal/progs"
	"powerlog/internal/runtime"
)

// Experiments lists the regenerable experiment ids. "ablation" is not a
// paper figure: it sweeps this implementation's own design knobs
// (DESIGN.md §5) — the delta-stepping bucket schedule and the §5.4
// priority threshold.
var Experiments = []string{"table1", "table2", "fig1", "fig9", "fig10", "fig11", "ablation", "ssp", "extra", "recovery", "rejoin", "policymetrics", "cores", "churn", "serve"}

// RunExperiment dispatches by experiment id and writes the rows to w.
func RunExperiment(id string, w io.Writer, cfg RunConfig) error {
	switch id {
	case "table1":
		return Table1(w)
	case "table2":
		return Table2(w)
	case "fig1":
		_, err := Figure1(w, cfg)
		return err
	case "fig9":
		_, err := Figure9(w, cfg, Algorithms, datasetNames())
		return err
	case "fig10":
		_, err := Figure10(w, cfg)
		return err
	case "fig11":
		_, err := Figure11(w, cfg)
		return err
	case "ablation":
		_, err := Ablation(w, cfg)
		return err
	case "ssp":
		_, err := SSP(w, cfg)
		return err
	case "extra":
		_, err := Extra(w, cfg)
		return err
	case "recovery":
		_, err := Recovery(w, cfg)
		return err
	case "rejoin":
		_, err := Rejoin(w, cfg)
		return err
	case "policymetrics":
		_, err := PolicyMetrics(w, cfg)
		return err
	case "cores":
		_, err := Cores(w, cfg)
		return err
	case "churn":
		_, err := Churn(w, cfg)
		return err
	case "serve":
		_, err := Serve(w, cfg)
		return err
	default:
		return fmt.Errorf("bench: unknown experiment %q (have %v)", id, Experiments)
	}
}

func datasetNames() []string {
	var names []string
	for _, d := range gen.Datasets() {
		names = append(names, d.Name)
	}
	return names
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

// Figure1 reproduces the motivation: neither sync nor async wins
// consistently. (a) SSSP and PageRank on LiveJ; (b) SSSP on Wiki and
// Arabic. Series: sync engine vs async engine.
func Figure1(w io.Writer, cfg RunConfig) ([]Measurement, error) {
	fmt.Fprintf(w, "Figure 1: sync vs async across algorithms and datasets\n")
	var out []Measurement
	runPair := func(algo, ds string) error {
		d, err := gen.DatasetByName(ds)
		if err != nil {
			return err
		}
		wl, err := Prepare(algo, d)
		if err != nil {
			return err
		}
		for _, mode := range []runtime.Mode{runtime.MRASync, runtime.MRAAsync} {
			m, err := RunMode(wl, mode, cfg)
			if err != nil {
				return err
			}
			out = append(out, m)
			fmt.Fprintf(w, "  %-9s %-7s %-14s %8.3fs\n", algo, ds, m.Series, m.Seconds)
		}
		return nil
	}
	for _, p := range [][2]string{{"SSSP", "LiveJ"}, {"PageRank", "LiveJ"}, {"SSSP", "Wiki"}, {"SSSP", "Arabic"}} {
		if err := runPair(p[0], p[1]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// figure9Modes maps each algorithm to the engine configurations modelling
// the paper's comparison systems: monotonic programs run incrementally on
// every system (SociaLite/BigDatalog sync, Myria async); the
// non-monotonic four fall back to naive evaluation everywhere except
// PowerLog (§6.3).
func figure9Modes(algo string) []runtime.Mode {
	switch algo {
	case "CC", "SSSP":
		return []runtime.Mode{runtime.MRASync, runtime.MRAAsync, runtime.MRASyncAsync}
	default:
		return []runtime.Mode{runtime.NaiveSync, runtime.MRASyncAsync}
	}
}

// Figure9 reproduces the overall comparison over six algorithms and six
// datasets.
func Figure9(w io.Writer, cfg RunConfig, algos, datasets []string) ([]Measurement, error) {
	fmt.Fprintf(w, "Figure 9: overall performance (columns = engine configurations modelling SociaLite/BigDatalog [sync], Myria [async], PowerLog)\n")
	var out []Measurement
	for _, algo := range algos {
		for _, ds := range datasets {
			d, err := gen.DatasetByName(ds)
			if err != nil {
				return nil, err
			}
			wl, err := Prepare(algo, d)
			if err != nil {
				return nil, err
			}
			base := -1.0
			for _, mode := range figure9Modes(algo) {
				m, err := RunMode(wl, mode, cfg)
				if err != nil {
					return nil, err
				}
				out = append(out, m)
				if base < 0 {
					base = m.Seconds
				}
				fmt.Fprintf(w, "  %-10s %-7s %-14s %8.3fs  (%5.1fx vs first)\n",
					algo, ds, m.Series, m.Seconds, base/m.Seconds)
			}
		}
	}
	return out, nil
}

// figure10Datasets are the three large graphs of §6.4.
var figure10Datasets = []string{"Wiki", "Web", "Arabic"}

// Figure10 reproduces the factor analysis: Naive+Sync vs MRA+Sync vs
// MRA+Async vs MRA+SyncAsync, plus the hand-coded graph-system
// comparators (PowerGraph for CC/SSSP, Maiter for PageRank, Adsorption,
// Katz, and Prom for BP).
func Figure10(w io.Writer, cfg RunConfig) ([]Measurement, error) {
	fmt.Fprintf(w, "Figure 10: performance gain from MRA evaluation and sync-async execution\n")
	cfg = cfg.orDefaults()
	var out []Measurement
	modes := []runtime.Mode{runtime.NaiveSync, runtime.MRASync, runtime.MRAAsync, runtime.MRASyncAsync}
	for _, algo := range Algorithms {
		for _, ds := range figure10Datasets {
			d, err := gen.DatasetByName(ds)
			if err != nil {
				return nil, err
			}
			wl, err := Prepare(algo, d)
			if err != nil {
				return nil, err
			}
			naive := -1.0
			for _, mode := range modes {
				m, err := RunMode(wl, mode, cfg)
				if err != nil {
					return nil, err
				}
				if mode == runtime.NaiveSync {
					naive = m.Seconds
				}
				out = append(out, m)
				fmt.Fprintf(w, "  %-10s %-6s %-14s %8.3fs  (%5.1fx vs naive)\n",
					algo, ds, m.Series, m.Seconds, naive/m.Seconds)
			}
			m, err := RunComparator(wl, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
			fmt.Fprintf(w, "  %-10s %-6s %-14s %8.3fs  (%5.1fx vs naive)\n",
				algo, ds, m.Series, m.Seconds, naive/m.Seconds)
		}
	}
	return out, nil
}

// RunComparator times the graph-processing-system stand-in for the
// workload (Figure 10's PowerGraph/Maiter/Prom series).
func RunComparator(wl *Workload, cfg RunConfig) (Measurement, error) {
	var prog *graphsys.Program
	series := ""
	switch wl.Algo {
	case "SSSP":
		prog, series = graphsys.SSSP(0), "PowerGraph"
	case "CC":
		prog, series = graphsys.CC(wl.Graph), "PowerGraph"
	case "PageRank":
		prog, series = graphsys.PageRank(wl.Graph, 1e-4), "Maiter"
	case "Adsorption":
		prog, series = graphsys.Adsorption(wl.Graph, wl.Inj, wl.Pi, wl.Pc, 1e-3), "Maiter"
	case "Katz":
		prog, series = graphsys.Katz(0, 10000, wl.KatzAlpha, 1e-3), "Maiter"
	case "BP":
		prog, series = graphsys.BeliefPropagation(wl.Graph, wl.Initial, wl.H, 1e-4), "Prom"
	default:
		return Measurement{}, fmt.Errorf("bench: no comparator for %s", wl.Algo)
	}
	start := time.Now()
	switch series {
	case "PowerGraph":
		// The paper uses PowerGraph's best of sync/async; sync wins on
		// these laptop-scale shards, so time both and keep the best.
		s0 := time.Now()
		graphsys.RunSync(wl.Graph, prog)
		best := time.Since(s0)
		s1 := time.Now()
		graphsys.RunAsync(wl.Graph, prog, cfg.Workers)
		if d := time.Since(s1); d < best {
			best = d
		}
		return Measurement{Algo: wl.Algo, Dataset: wl.Dataset.Name, Series: series,
			Seconds: best.Seconds(), Converged: true}, nil
	case "Prom":
		graphsys.RunPrioritized(wl.Graph, prog)
	default: // Maiter
		graphsys.RunAsync(wl.Graph, prog, cfg.Workers)
	}
	return Measurement{Algo: wl.Algo, Dataset: wl.Dataset.Name, Series: series,
		Seconds: time.Since(start).Seconds(), Converged: true}, nil
}

// Figure11 compares the adaptive engines: Sync, Async, AAP, SyncAsync on
// SSSP and PageRank over the three large datasets.
func Figure11(w io.Writer, cfg RunConfig) ([]Measurement, error) {
	fmt.Fprintf(w, "Figure 11: unified sync-async vs AAP\n")
	var out []Measurement
	modes := []runtime.Mode{runtime.MRASync, runtime.MRAAsync, runtime.MRAAAP, runtime.MRASyncAsync}
	for _, algo := range []string{"SSSP", "PageRank"} {
		for _, ds := range figure10Datasets {
			d, err := gen.DatasetByName(ds)
			if err != nil {
				return nil, err
			}
			wl, err := Prepare(algo, d)
			if err != nil {
				return nil, err
			}
			for _, mode := range modes {
				m, err := RunMode(wl, mode, cfg)
				if err != nil {
					return nil, err
				}
				out = append(out, m)
				fmt.Fprintf(w, "  %-9s %-6s %-14s %8.3fs\n", algo, ds, m.Series, m.Seconds)
			}
		}
	}
	return out, nil
}

// Ablation covers this implementation's additions: (a) SSSP under the
// schedule its plan draws (the delta-stepping buckets, DESIGN.md §5b) over
// the small-diameter Web graph — the workload the paper says SociaLite's
// delta stepping wins — and the deep Wiki graph; (b) the §5.4 priority
// threshold, the one knob, on PageRank.
func Ablation(w io.Writer, cfg RunConfig) ([]Measurement, error) {
	fmt.Fprintf(w, "Ablation: SSSP's drawn schedule and the §5.4 priority threshold\n")
	var out []Measurement
	for _, ds := range []string{"Web", "Wiki"} {
		d, err := gen.DatasetByName(ds)
		if err != nil {
			return nil, err
		}
		wl, err := Prepare("SSSP", d)
		if err != nil {
			return nil, err
		}
		m, res, err := runModeResult(wl, runtime.MRASyncAsync, cfg)
		if err != nil {
			return nil, err
		}
		m.Series = "sched=" + res.Sched
		out = append(out, m)
		fmt.Fprintf(w, "  SSSP %-5s %-22s %8.3fs msgs=%d\n", ds, m.Series, m.Seconds, m.Messages)
	}
	d, err := gen.DatasetByName("LiveJ")
	if err != nil {
		return nil, err
	}
	wl, err := Prepare("PageRank", d)
	if err != nil {
		return nil, err
	}
	for _, thr := range []float64{0, 1e-7, 1e-5} {
		c := cfg
		c.PriorityThreshold = thr
		m, err := RunMode(wl, runtime.MRASyncAsync, c)
		if err != nil {
			return nil, err
		}
		m.Series = fmt.Sprintf("threshold=%g", thr)
		out = append(out, m)
		fmt.Fprintf(w, "  PageRank LiveJ %-16s %8.3fs msgs=%d\n", m.Series, m.Seconds, m.Messages)
	}
	return out, nil
}

// SSP places the stale-synchronous-parallel mode among the five existing
// engines on SSSP and PageRank, then sweeps its staleness bound. Beyond
// wall time it reports the quantities the policy layers steer: realised
// batch sizes (messages per flush) and the time workers spent blocked at
// the staleness gate.
func SSP(w io.Writer, cfg RunConfig) ([]Measurement, error) {
	fmt.Fprintf(w, "SSP: stale synchronous parallel vs the existing engines\n")
	var out []Measurement
	modes := []runtime.Mode{runtime.NaiveSync, runtime.MRASync, runtime.MRAAsync,
		runtime.MRAAAP, runtime.MRASyncAsync, runtime.MRASSP}
	report := func(algo, ds string, m Measurement) {
		batch := 0.0
		if m.Flushes > 0 {
			batch = float64(m.Messages) / float64(m.Flushes)
		}
		extra := ""
		if m.BetaFinal > 0 {
			extra = fmt.Sprintf(" β≈%.0f", m.BetaFinal)
		}
		fmt.Fprintf(w, "  %-9s %-6s %-16s %8.3fs  rounds=%-5d batch=%7.1f straggler=%v%s\n",
			algo, ds, m.Series, m.Seconds, m.Rounds, batch, m.StragglerWait, extra)
	}
	for _, algo := range []string{"SSSP", "PageRank"} {
		for _, ds := range []string{"LiveJ", "Wiki"} {
			d, err := gen.DatasetByName(ds)
			if err != nil {
				return nil, err
			}
			wl, err := Prepare(algo, d)
			if err != nil {
				return nil, err
			}
			for _, mode := range modes {
				m, err := RunMode(wl, mode, cfg)
				if err != nil {
					return nil, err
				}
				out = append(out, m)
				report(algo, ds, m)
			}
		}
	}
	// Staleness sweep: lockstep-adjacent through loose.
	fmt.Fprintf(w, "  staleness sweep (SSSP on LiveJ):\n")
	d, err := gen.DatasetByName("LiveJ")
	if err != nil {
		return nil, err
	}
	wl, err := Prepare("SSSP", d)
	if err != nil {
		return nil, err
	}
	for _, s := range []int{1, 2, 4, 8} {
		c := cfg
		c.Staleness = s
		m, err := RunMode(wl, runtime.MRASSP, c)
		if err != nil {
			return nil, err
		}
		m.Series = fmt.Sprintf("staleness=%d", s)
		out = append(out, m)
		report("SSSP", "LiveJ", m)
	}
	return out, nil
}

// Recovery measures crash recovery: for one selective workload (SSSP —
// restored from uncoordinated stale snapshots, Theorem 3) and one
// combining workload (PageRank — restored from consistent cuts: BSP
// barrier snapshots or async/SSP marker episodes), each mode runs three
// times: clean, crashed mid-run with checkpointing on, and restarted
// from the crashed run's snapshot directory. The headline number is the
// time-to-refixpoint: the restart's wall time relative to the clean run.
func Recovery(w io.Writer, cfg RunConfig) ([]Measurement, error) {
	d, err := gen.DatasetByName("LiveJ")
	if err != nil {
		return nil, err
	}
	return recoveryOn(w, cfg, d)
}

func recoveryOn(w io.Writer, cfg RunConfig, d gen.Dataset) ([]Measurement, error) {
	fmt.Fprintf(w, "Recovery: crash mid-run with checkpoints on, restart, time to re-fixpoint\n")
	modes := []runtime.Mode{runtime.MRASync, runtime.MRASyncAsync, runtime.MRASSP}
	var out []Measurement
	for _, algo := range []string{"SSSP", "PageRank"} {
		wl, err := Prepare(algo, d)
		if err != nil {
			return nil, err
		}
		for _, mode := range modes {
			clean, err := RunMode(wl, mode, cfg)
			if err != nil {
				return nil, err
			}
			clean.Series = mode.String() + "/clean"
			out = append(out, clean)

			dir, err := os.MkdirTemp("", "plbench-recovery-*")
			if err != nil {
				return nil, err
			}
			crashCfg := cfg
			crashCfg.SnapshotDir = dir
			crashCfg.SnapshotEvery = 1
			crashCfg.Faults = "seed=7,crash=6"
			crashed, err := RunMode(wl, mode, crashCfg)
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			crashed.Series = mode.String() + "/crashed"
			out = append(out, crashed)

			restoreCfg := cfg
			restoreCfg.RestoreDir = dir
			restored, err := RunMode(wl, mode, restoreCfg)
			os.RemoveAll(dir)
			if err != nil {
				return nil, err
			}
			restored.Series = mode.String() + "/restored"
			out = append(out, restored)

			fmt.Fprintf(w, "  %-9s %-6s %-14s clean=%7.3fs  crashed@round=%-3d  refixpoint=%7.3fs (%.2fx clean, converged=%v)\n",
				algo, d.Name, mode.String(), clean.Seconds, crashed.Rounds,
				restored.Seconds, restored.Seconds/clean.Seconds, restored.Converged)
		}
	}
	return out, nil
}

// BestSeries returns, per (algo, dataset), the fastest series — used by
// tests asserting the paper's headline claim that the unified engine wins
// or ties everywhere.
func BestSeries(ms []Measurement) map[string]string {
	best := map[string]float64{}
	who := map[string]string{}
	for _, m := range ms {
		k := m.Algo + "/" + m.Dataset
		if t, ok := best[k]; !ok || m.Seconds < t {
			best[k] = m.Seconds
			who[k] = m.Series
		}
	}
	return who
}

// Speedups computes, per (algo, dataset), the ratio of each series' time
// to the reference series' time.
func Speedups(ms []Measurement, reference string) map[string]map[string]float64 {
	ref := map[string]float64{}
	for _, m := range ms {
		if m.Series == reference {
			ref[m.Algo+"/"+m.Dataset] = m.Seconds
		}
	}
	out := map[string]map[string]float64{}
	for _, m := range ms {
		k := m.Algo + "/" + m.Dataset
		r, ok := ref[k]
		if !ok || m.Seconds == 0 {
			continue
		}
		if out[k] == nil {
			out[k] = map[string]float64{}
		}
		out[k][m.Series] = r / m.Seconds
	}
	return out
}

// SortMeasurements orders rows deterministically for golden comparisons.
func SortMeasurements(ms []Measurement) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Algo != ms[j].Algo {
			return ms[i].Algo < ms[j].Algo
		}
		if ms[i].Dataset != ms[j].Dataset {
			return ms[i].Dataset < ms[j].Dataset
		}
		return ms[i].Series < ms[j].Series
	})
}
