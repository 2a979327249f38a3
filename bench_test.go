// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, at the synthetic Table-2 scale with the emulated cluster
// NIC, plus micro-benchmarks of the engine's hot paths. Regenerate all
// results with:
//
//	go test -bench=. -benchmem ./...
//
// or target a single experiment, e.g.:
//
//	go test -bench=BenchmarkFigure10/PageRank -benchmem .
//
// Shapes (speedup factors, who wins) are the reproduction target;
// absolute times are laptop-scale. See EXPERIMENTS.md.
package powerlog

import (
	"fmt"
	"io"
	"testing"
	"time"

	"powerlog/internal/agg"
	"powerlog/internal/bench"
	"powerlog/internal/checker"
	"powerlog/internal/gen"
	"powerlog/internal/monotable"
	"powerlog/internal/progs"
	"powerlog/internal/runtime"
)

func benchCfg(workers int) bench.RunConfig {
	return bench.RunConfig{Workers: workers, MaxWall: 90 * time.Second}
}

// runWorkload times one (algo, dataset, mode) cell once per b.N.
func runWorkload(b *testing.B, algo, dataset string, mode runtime.Mode) {
	b.Helper()
	d, err := gen.DatasetByName(dataset)
	if err != nil {
		b.Fatal(err)
	}
	wl, err := bench.Prepare(algo, d)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := bench.RunMode(wl, mode, benchCfg(4))
		if err != nil {
			b.Fatal(err)
		}
		if !m.Converged {
			b.Fatalf("%s/%s/%v did not converge within the wall limit", algo, dataset, mode)
		}
		b.ReportMetric(float64(m.Messages), "kv-msgs")
		b.ReportMetric(float64(m.Rounds), "rounds")
	}
}

// BenchmarkTable1 times the automatic condition checker over the whole
// catalogue (the paper's "automated, not manual" contribution).
func BenchmarkTable1ConditionCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range progs.Catalog() {
			rep, _, err := checker.CheckSource(p.Source)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Satisfied != p.ExpectSat {
				b.Fatalf("%s: wrong verdict", p.Name)
			}
		}
	}
}

// BenchmarkTable2 regenerates the dataset registry (graph construction).
func BenchmarkTable2Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1 reproduces the motivation: sync vs async flip winners
// across algorithms and datasets.
func BenchmarkFigure1(b *testing.B) {
	cells := []struct {
		algo, ds string
		mode     runtime.Mode
	}{
		{"SSSP", "LiveJ", runtime.MRASync},
		{"SSSP", "LiveJ", runtime.MRAAsync},
		{"PageRank", "LiveJ", runtime.MRASync},
		{"PageRank", "LiveJ", runtime.MRAAsync},
		{"SSSP", "Wiki", runtime.MRASync},
		{"SSSP", "Wiki", runtime.MRAAsync},
		{"SSSP", "Arabic", runtime.MRASync},
		{"SSSP", "Arabic", runtime.MRAAsync},
	}
	for _, c := range cells {
		b.Run(fmt.Sprintf("%s/%s/%v", c.algo, c.ds, c.mode), func(b *testing.B) {
			runWorkload(b, c.algo, c.ds, c.mode)
		})
	}
}

// figure9Modes mirrors bench.Figure9: the engine configurations modelling
// SociaLite/BigDatalog (sync), Myria (async), and PowerLog per algorithm.
func figure9Modes(algo string) []runtime.Mode {
	switch algo {
	case "CC", "SSSP":
		return []runtime.Mode{runtime.MRASync, runtime.MRAAsync, runtime.MRASyncAsync}
	default:
		return []runtime.Mode{runtime.NaiveSync, runtime.MRASyncAsync}
	}
}

// BenchmarkFigure9 is the overall comparison: six algorithms × six
// datasets × the per-algorithm system grid.
func BenchmarkFigure9(b *testing.B) {
	for _, algo := range bench.Algorithms {
		for _, d := range gen.Datasets() {
			for _, mode := range figure9Modes(algo) {
				b.Run(fmt.Sprintf("%s/%s/%v", algo, d.Name, mode), func(b *testing.B) {
					runWorkload(b, algo, d.Name, mode)
				})
			}
		}
	}
}

// BenchmarkFigure10 is the factor analysis on the three large datasets:
// Naive+Sync vs MRA+Sync vs MRA+Async vs MRA+SyncAsync.
func BenchmarkFigure10(b *testing.B) {
	modes := []runtime.Mode{runtime.NaiveSync, runtime.MRASync, runtime.MRAAsync, runtime.MRASyncAsync}
	for _, algo := range bench.Algorithms {
		for _, ds := range []string{"Wiki", "Web", "Arabic"} {
			for _, mode := range modes {
				b.Run(fmt.Sprintf("%s/%s/%v", algo, ds, mode), func(b *testing.B) {
					runWorkload(b, algo, ds, mode)
				})
			}
		}
	}
}

// BenchmarkFigure10Comparators times the hand-coded graph-system
// stand-ins (PowerGraph / Maiter / Prom) on the same workloads.
func BenchmarkFigure10Comparators(b *testing.B) {
	for _, algo := range bench.Algorithms {
		for _, ds := range []string{"Wiki", "Web", "Arabic"} {
			b.Run(fmt.Sprintf("%s/%s", algo, ds), func(b *testing.B) {
				d, err := gen.DatasetByName(ds)
				if err != nil {
					b.Fatal(err)
				}
				wl, err := bench.Prepare(algo, d)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := bench.RunComparator(wl, benchCfg(4)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFigure11 compares the adaptive engines (Sync / Async / AAP /
// SyncAsync) on SSSP and PageRank.
func BenchmarkFigure11(b *testing.B) {
	modes := []runtime.Mode{runtime.MRASync, runtime.MRAAsync, runtime.MRAAAP, runtime.MRASyncAsync}
	for _, algo := range []string{"SSSP", "PageRank"} {
		for _, ds := range []string{"Wiki", "Web", "Arabic"} {
			for _, mode := range modes {
				b.Run(fmt.Sprintf("%s/%s/%v", algo, ds, mode), func(b *testing.B) {
					runWorkload(b, algo, ds, mode)
				})
			}
		}
	}
}

// --- engine micro-benchmarks -----------------------------------------

// BenchmarkMonoTableFoldDelta measures protocol step 3 on a dense shard.
func BenchmarkMonoTableFoldDelta(b *testing.B) {
	t := monotable.NewDense(agg.ByKind(agg.Sum), 1<<16, 1, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.FoldDelta(int64(i&0xffff), 1)
	}
}

// BenchmarkMonoTableDrainFold measures steps 1-2 (drain + accumulate).
func BenchmarkMonoTableDrainFold(b *testing.B) {
	t := monotable.NewDense(agg.ByKind(agg.Min), 1<<16, 1, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := int64(i & 0xffff)
		t.FoldDelta(k, float64(i))
		if v, ok := t.Drain(k); ok {
			t.FoldAcc(k, v)
		}
	}
}

// BenchmarkPropagate measures the compiled F' closure over a CSR
// adjacency — the engine's hot path.
func BenchmarkPropagate(b *testing.B) {
	d := gen.Datasets()[1] // LiveJ
	wl, err := bench.Prepare("PageRank", d)
	if err != nil {
		b.Fatal(err)
	}
	sink := 0.0
	scratch := wl.Plan.NewScratch()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wl.Plan.PropagateInto(scratch, int64(i%wl.Plan.N), 1.0, func(dst int64, v float64) {
			sink += v
		})
	}
	_ = sink
}

// BenchmarkParseAnalyzeCheck measures the full frontend on PageRank.
func BenchmarkParseAnalyzeCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := checker.CheckSource(progs.PageRank); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOrderedScan sweeps the delta-stepping-style schedule
// on SSSP over the small-diameter Web graph (the paper's ClueWeb09 case
// where SociaLite's delta stepping wins) and the deep Wiki graph.
func BenchmarkAblationOrderedScan(b *testing.B) {
	for _, ds := range []string{"Web", "Wiki"} {
		for _, ordered := range []bool{false, true} {
			b.Run(fmt.Sprintf("SSSP/%s/ordered=%v", ds, ordered), func(b *testing.B) {
				d, err := gen.DatasetByName(ds)
				if err != nil {
					b.Fatal(err)
				}
				wl, err := bench.Prepare("SSSP", d)
				if err != nil {
					b.Fatal(err)
				}
				cfg := benchCfg(4)
				cfg.OrderedScan = ordered
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m, err := bench.RunMode(wl, runtime.MRASyncAsync, cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(m.Messages), "kv-msgs")
				}
			})
		}
	}
}

// BenchmarkAblationPriorityThreshold sweeps §5.4's importance threshold
// on PageRank.
func BenchmarkAblationPriorityThreshold(b *testing.B) {
	for _, thr := range []float64{0, 1e-7, 1e-5} {
		b.Run(fmt.Sprintf("PageRank/LiveJ/thr=%g", thr), func(b *testing.B) {
			d, err := gen.DatasetByName("LiveJ")
			if err != nil {
				b.Fatal(err)
			}
			wl, err := bench.Prepare("PageRank", d)
			if err != nil {
				b.Fatal(err)
			}
			cfg := benchCfg(4)
			cfg.PriorityThreshold = thr
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := bench.RunMode(wl, runtime.MRASyncAsync, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(m.Messages), "kv-msgs")
			}
		})
	}
}
