package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"powerlog/internal/gen"
	"powerlog/internal/runtime"
)

// tinyDataset builds a small workload-compatible dataset for fast tests.
func tinyDataset() gen.Dataset {
	ds := gen.TinyDatasets()
	return ds[0] // tiny-rmat
}

func fastCfg() RunConfig {
	return RunConfig{Config: runtime.Config{
		Workers:       2,
		Tau:           200 * time.Microsecond,
		CheckInterval: 300 * time.Microsecond,
		MaxWall:       30 * time.Second,
	}}
}

func TestPrepareAllAlgorithms(t *testing.T) {
	d := tinyDataset()
	for _, algo := range Algorithms {
		wl, err := Prepare(algo, d)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if wl.Plan == nil || wl.Graph == nil {
			t.Fatalf("%s: incomplete workload", algo)
		}
	}
	if _, err := Prepare("nope", d); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
}

func TestRunModeAllAlgorithmsTiny(t *testing.T) {
	d := tinyDataset()
	for _, algo := range Algorithms {
		wl, err := Prepare(algo, d)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []runtime.Mode{runtime.MRASync, runtime.MRASyncAsync} {
			m, err := RunMode(wl, mode, fastCfg())
			if err != nil {
				t.Fatalf("%s/%v: %v", algo, mode, err)
			}
			if !m.Converged {
				t.Errorf("%s/%v did not converge", algo, mode)
			}
			if m.Seconds <= 0 {
				t.Errorf("%s/%v: non-positive time", algo, mode)
			}
			if m.Algo != algo || m.Dataset != d.Name {
				t.Errorf("mislabelled measurement %+v", m)
			}
		}
	}
}

func TestComparatorsTiny(t *testing.T) {
	d := tinyDataset()
	for _, algo := range Algorithms {
		wl, err := Prepare(algo, d)
		if err != nil {
			t.Fatal(err)
		}
		m, err := RunComparator(wl, fastCfg())
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		switch algo {
		case "CC", "SSSP":
			if m.Series != "PowerGraph" {
				t.Errorf("%s comparator = %s", algo, m.Series)
			}
		case "BP":
			if m.Series != "Prom" {
				t.Errorf("%s comparator = %s", algo, m.Series)
			}
		default:
			if m.Series != "Maiter" {
				t.Errorf("%s comparator = %s", algo, m.Series)
			}
		}
	}
}

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"SSSP", "PageRank", "GCN-Forward", "CommNet", "Viterbi"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, " yes") != 12 || strings.Count(out, " no ") < 2 {
		t.Errorf("Table 1 verdict counts wrong:\n%s", out)
	}
}

func TestTable2Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Flickr", "LiveJ", "Orkut", "Web", "Wiki", "Arabic", "ClueWeb09"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, out)
		}
	}
}

// TestExperimentTable runs every entry of the experiment table on the
// tiny dataset: each declared series yields its row, in declaration order,
// every run converges, and only an id the table lacks is unknown.
func TestExperimentTable(t *testing.T) {
	cfg := fastCfg()
	cfg.Smoke = true
	for _, e := range table {
		t.Run(e.id, func(t *testing.T) {
			var buf bytes.Buffer
			ms, err := RunExperiment(e.id, &buf, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ms {
				// A crashed run was aborted by the injected master crash
				// (or beat it).
				if !m.Converged && !strings.HasSuffix(m.Series, "/crashed") {
					t.Errorf("%s %s %s did not converge", m.Algo, m.Dataset, m.Series)
				}
				if hist := m.Metrics.MergeHistograms("flush.size.dst"); e.id == "policymetrics" && m.Flushes > 0 && int64(hist.Count) != m.Flushes {
					t.Errorf("%s %s: flush histogram count %d != Flushes %d", m.Algo, m.Series, hist.Count, m.Flushes)
				}
			}
			if e.grids == nil {
				if e.title != "" && len(ms) == 0 {
					t.Errorf("no rows:\n%s", buf.String())
				}
				return
			}
			i := 0
			for _, g := range e.grids {
				for _, algo := range g.algos {
					for _, s := range g.series {
						if i == len(ms) {
							t.Fatalf("%d rows, then none for %s %q:\n%s", i, algo, s.label, buf.String())
						}
						if m := ms[i]; m.Algo != algo || (g.prepare == nil && m.Dataset != "tiny-rmat") || !strings.HasPrefix(m.Series, s.label) {
							t.Errorf("row %d is %s %s %q, want %s tiny-rmat %q", i, m.Algo, m.Dataset, m.Series, algo, s.label)
						}
						i++
					}
				}
			}
			if i != len(ms) {
				t.Errorf("%d rows for %d declared series", len(ms), i)
			}
		})
	}
	for _, id := range []string{"churn", "serve", "nope"} {
		if _, err := RunExperiment(id, io.Discard, cfg); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("%s: err = %v, want unknown experiment", id, err)
		}
	}
}

// TestFigure9ShapeTiny runs the Figure-9 grid on a scaled-down workload
// and asserts the paper's qualitative claim: incremental evaluation beats
// naive on the non-monotonic algorithms.
func TestFigure9ShapeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	d := tinyDataset()
	wl, err := Prepare("PageRank", d)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := RunMode(wl, runtime.NaiveSync, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	mra, err := RunMode(wl, runtime.MRASyncAsync, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Converged || !mra.Converged {
		t.Fatal("runs did not converge")
	}
	// On any non-trivial graph MRA must not be dramatically slower than
	// naive; the speedup claim itself is asserted at full scale in the
	// bench harness (see EXPERIMENTS.md).
	if mra.Seconds > naive.Seconds*5 {
		t.Errorf("MRA %vs suspiciously slower than naive %vs", mra.Seconds, naive.Seconds)
	}
}

func TestExtraWorkloadSpecs(t *testing.T) {
	if len(extraSpecs) != 6 {
		t.Fatalf("extra grid should cover the six untimed Table-1 programs, got %d", len(extraSpecs))
	}
	seen := map[string]bool{}
	for _, s := range extraSpecs {
		if seen[s.name] {
			t.Errorf("duplicate workload %q", s.name)
		}
		seen[s.name] = true
		if g := s.graph(); g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Errorf("%s: empty graph", s.name)
		}
		if s.pred == "" || s.source == "" {
			t.Errorf("%s: incomplete spec", s.name)
		}
	}
}

func TestRunModeSSPTiny(t *testing.T) {
	d := tinyDataset()
	for _, algo := range []string{"SSSP", "PageRank"} {
		wl, err := Prepare(algo, d)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastCfg()
		cfg.Staleness = 2
		m, err := RunMode(wl, runtime.MRASSP, cfg)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !m.Converged {
			t.Errorf("%s under SSP did not converge", algo)
		}
		if m.Flushes <= 0 {
			t.Errorf("%s: no flushes recorded", algo)
		}
		if m.Series != "MRA+SSP" {
			t.Errorf("series = %q", m.Series)
		}
	}
}

func TestRunModeFaultsTiny(t *testing.T) {
	d := tinyDataset()
	wl, err := Prepare("SSSP", d)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.Faults = "seed=3,sendfail=0.1,stall=4:200us"
	m, err := RunMode(wl, runtime.MRASyncAsync, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Converged {
		t.Error("faulted run did not converge")
	}
	cfg.Faults = "bogus"
	if _, err := RunMode(wl, runtime.MRASyncAsync, cfg); err == nil {
		t.Error("malformed fault spec should fail the run, not be ignored")
	}
}

func TestBetaFinalSurfaced(t *testing.T) {
	// The unified mode on a combining aggregate must surface a β value;
	// a selective one must not.
	d := tinyDataset()
	pr, err := Prepare("PageRank", d)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.Tau = 100 * time.Microsecond
	m, err := RunMode(pr, runtime.MRASyncAsync, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.BetaFinal <= 0 {
		t.Error("no β surfaced for adaptive PageRank run")
	}
	ss, err := Prepare("SSSP", d)
	if err != nil {
		t.Fatal(err)
	}
	m, err = RunMode(ss, runtime.MRASyncAsync, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if m.BetaFinal != 0 {
		t.Errorf("selective run surfaced β = %v", m.BetaFinal)
	}
}
