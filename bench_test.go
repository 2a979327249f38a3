// Micro-benchmarks of the engine's hot paths. The paper's tables and
// figures are regenerated by plbench, one experiment id each:
//
//	go run ./cmd/plbench -exp table1|table2|fig1|fig9|fig10|fig11|ablation
//
// and these with:
//
//	go test -run xxx -bench=. -benchmem .
//
// See EXPERIMENTS.md.
package powerlog

import (
	"bytes"
	"testing"

	"powerlog/internal/agg"
	"powerlog/internal/analyzer"
	"powerlog/internal/bench"
	"powerlog/internal/checker"
	"powerlog/internal/compiler"
	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/monotable"
	"powerlog/internal/parser"
	"powerlog/internal/progs"
)

// BenchmarkMonoTableFoldDelta measures protocol step 3 on a dense shard:
// the fold by slot that the inbox uses (a load, a fold and a store).
func BenchmarkMonoTableFoldDelta(b *testing.B) {
	t := monotable.NewDense(agg.ByKind(agg.Sum), 1<<16, 1, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.FoldDeltaOwned(i&0xffff, 1)
	}
}

// BenchmarkDrainPass measures steps 1-2 (drain + accumulate) over a whole
// dirty shard of 4096 rows, by slot as a pass over a Dense shard does it,
// ns per drained key.
func BenchmarkDrainPass(b *testing.B) {
	const rows = 1 << 12
	d := monotable.NewDense(agg.ByKind(agg.Min), rows, 1, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < rows; k++ {
			d.FoldDeltaOwned(k, float64(-i))
		}
		b.StartTimer()
		d.DrainAdmitted(monotable.Admit{}, func(k int64, v float64) { d.FoldAccOwned(int(k), v) })
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/key")
}

// BenchmarkPropagate measures the F' row kernel through its per-edge
// adapter, one sub-benchmark per kernel class (DESIGN.md §9) on the
// LiveJ stand-in: an op is one key's row, ns/edge the cost of one
// emitted contribution.
func BenchmarkPropagate(b *testing.B) {
	d := gen.Datasets()[1] // LiveJ
	simRank := func() (*compiler.Plan, error) {
		g := d.Build(true)
		gen.NormalizeWeightsByOut(g, 1)
		db := NewDatabase()
		db.SetGraph("pairedge", g)
		prog, err := Parse(progs.SimRank)
		if err != nil {
			return nil, err
		}
		return prog.Compile(db)
	}
	prepared := func(algo string) func() (*compiler.Plan, error) {
		return func() (*compiler.Plan, error) {
			wl, err := bench.Prepare(algo, d)
			if err != nil {
				return nil, err
			}
			return wl.Plan, nil
		}
	}
	for _, bc := range []struct {
		class analyzer.Class
		name  string
		plan  func() (*compiler.Plan, error)
	}{
		{analyzer.RowConst, "PageRank", prepared("PageRank")},
		{analyzer.AddW, "SSSP", prepared("SSSP")},
		{analyzer.MulW, "SimRank", simRank},
		{analyzer.Generic, "BP", prepared("BP")},
	} {
		name := bc.class.String()
		if bc.class == analyzer.Generic {
			name = "fallback"
		}
		b.Run(name+"/"+bc.name, func(b *testing.B) {
			plan, err := bc.plan()
			if err != nil {
				b.Fatal(err)
			}
			if got := plan.Kernel.Desc().Class; got != bc.class {
				b.Fatalf("%s compiled to the %s kernel, want %s", bc.name, got, bc.class)
			}
			sink, edges := 0.0, 0
			emit := func(dst int64, v float64) { sink += v; edges++ }
			scratch := plan.NewScratch()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan.PropagateInto(scratch, int64(i%plan.N), 1.0, emit)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(edges, 1)), "ns/edge")
			_ = sink
		})
	}
}

// BenchmarkParseAnalyzeCheck measures the full frontend on PageRank.
func BenchmarkParseAnalyzeCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := checker.CheckSource(progs.PageRank); err != nil {
			b.Fatal(err)
		}
	}
}

// The layers in front of the fixpoint (DESIGN.md, "The path in front of
// the fixpoint"), on plperf's two R-MAT inputs: the PageRank workload's
// 2^13 vertices / 82 k edges and the churn workload's 2^14 / 171 k
// weighted.
var setupGraphs = []struct {
	name         string
	src          string
	scale, edges int
	maxW         float64
}{
	{"PageRank-82k", progs.PageRank, 13, 82000, 0},
	{"SSSP-171k", progs.SSSP, 14, 171000, 100},
}

func analyzed(b *testing.B, src string) *analyzer.Info {
	b.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	info, err := analyzer.Analyze(prog)
	if err != nil {
		b.Fatal(err)
	}
	return info
}

// BenchmarkLoadTSV measures the EDB load: edge-list text to CSR, ns per
// edge; allocs/op is per load, not per edge.
func BenchmarkLoadTSV(b *testing.B) {
	for i, name := range []string{"rmat13-82k", "rmat14-171k-weighted"} {
		sg := setupGraphs[i]
		b.Run(name, func(b *testing.B) {
			g := gen.RMAT(sg.scale, sg.edges, sg.maxW, 1)
			var text bytes.Buffer
			if err := g.WriteTSV(&text); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(text.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := graph.LoadTSV(bytes.NewReader(text.Bytes()), g.NumVertices(), g.Weighted()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.NumEdges()), "ns/edge")
		})
	}
}

// BenchmarkSortRows measures the layout a plan's first fixpoint runs
// (compiler.Plan.Layout): graph.SortRows, in place, on each plperf
// workload's graph — R-MAT 2^13 unweighted, the 8000-vertex chain, R-MAT
// 2^14 weighted and the weighted Flickr stand-in — ms per sort, and B/op
// the bytes it allocates. A graph sorts once, so every op sorts a fresh
// copy, made with the timer stopped. At -cpu 1 the sort runs in one
// part, serially: -cpu 1,2 is the serial/parallel pair.
func BenchmarkSortRows(b *testing.B) {
	flickr, err := gen.DatasetByName("Flickr")
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat13-82k", gen.RMAT(13, 82000, 0, 1)},
		{"chain-8k", gen.LocalChain(8000, 4, 40, 100, 1)},
		{"rmat14-171k-weighted", gen.RMAT(14, 171000, 100, 1)},
		{"flickr-weighted", flickr.Build(true)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			edges := bc.g.Edges()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g, err := graph.FromEdges(bc.g.NumVertices(), edges, bc.g.Weighted())
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				g.SortRows()
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
		})
	}
}

// BenchmarkCompile measures compiler.Compile against a fresh database:
// supporting relations, attribute columns, kernels and ΔX¹.
func BenchmarkCompile(b *testing.B) {
	for _, sg := range setupGraphs {
		b.Run(sg.name, func(b *testing.B) {
			g := gen.RMAT(sg.scale, sg.edges, sg.maxW, 1)
			info := analyzed(b, sg.src)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db := edb.NewDB()
				db.SetGraph("edge", g)
				if _, err := compiler.Compile(info, db, compiler.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheck measures the MRA condition check of an analysed program.
func BenchmarkCheck(b *testing.B) {
	for _, p := range []struct{ name, src string }{{"PageRank", progs.PageRank}, {"SSSP", progs.SSSP}} {
		b.Run(p.name, func(b *testing.B) {
			info := analyzed(b, p.src)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rep := checker.Check(info); !rep.Satisfied {
					b.Fatal(rep)
				}
			}
		})
	}
}
