// Command powerlog checks and executes a recursive aggregate Datalog
// program, the paper's Figure-2 pipeline as a CLI: parse → analyse →
// condition-check → (MRA on the unified engine | naive on the sync
// engine) → results.
//
// Usage:
//
//	powerlog -graph edges.tsv program.dl
//	powerlog -builtin SSSP -gen LiveJ -mode sync-async -workers 8
//	powerlog selfcontained.dl   # programs with inline edge facts
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"powerlog"
	"powerlog/internal/analyzer"
	"powerlog/internal/compiler"
	"powerlog/internal/gen"
	"powerlog/internal/parser"
)

var modeNames = map[string]powerlog.Mode{
	"naive":      powerlog.ModeNaiveSync,
	"sync":       powerlog.ModeSync,
	"async":      powerlog.ModeAsync,
	"sync-async": powerlog.ModeSyncAsync,
	"aap":        powerlog.ModeAAP,
	"ssp":        powerlog.ModeSSP,
}

func main() {
	graphPath := flag.String("graph", "", "edge-list TSV (src dst [weight]) registered under the program's join predicate")
	genName := flag.String("gen", "", "synthetic dataset name instead of -graph (Flickr, LiveJ, Orkut, Web, Wiki, Arabic)")
	builtin := flag.String("builtin", "", "run a catalogue program (SSSP, CC, PageRank, ...) instead of a file")
	modeName := flag.String("mode", "sync-async", "engine: naive, sync, async, sync-async, aap, ssp")
	workers := flag.Int("workers", 4, "worker shards")
	weighted := flag.Bool("weighted", true, "interpret the third TSV column as edge weight")
	top := flag.Int("top", 10, "print the top-N result rows")
	replMode := flag.Bool("repl", false, "start the interactive shell")
	flag.Parse()

	if *replMode {
		runREPL(*workers)
		return
	}

	mode, ok := modeNames[*modeName]
	if !ok {
		fail(fmt.Errorf("unknown mode %q", *modeName))
	}

	src, err := programSource(*builtin)
	if err != nil {
		fail(err)
	}

	prog, err := powerlog.Parse(src)
	if err != nil {
		fail(err)
	}
	rep := prog.Check()
	fmt.Print(rep)

	db := powerlog.NewDatabase()
	if err := loadData(db, src, *graphPath, *genName, *weighted); err != nil {
		fail(err)
	}
	plan, err := prog.Compile(db)
	if err != nil {
		fail(err)
	}
	res, err := powerlog.Run(plan, powerlog.Options{Mode: mode, Workers: *workers})
	if err != nil {
		fail(err)
	}
	fmt.Println(powerlog.Summary(res))
	printTop(res, *top)
}

func programSource(builtin string) (string, error) {
	if builtin != "" {
		switch strings.ToLower(builtin) {
		case "sssp":
			return powerlog.Programs.SSSP, nil
		case "cc":
			return powerlog.Programs.CC, nil
		case "pagerank":
			return powerlog.Programs.PageRank, nil
		case "katz":
			return powerlog.Programs.Katz, nil
		case "viterbi":
			return powerlog.Programs.Viterbi, nil
		case "apsp":
			return powerlog.Programs.APSP, nil
		default:
			return "", fmt.Errorf("no builtin %q (try SSSP, CC, PageRank, Katz, Viterbi, APSP)", builtin)
		}
	}
	if flag.NArg() != 1 {
		return "", fmt.Errorf("usage: powerlog [-graph edges.tsv | -gen NAME | -builtin NAME] [program.dl]")
	}
	b, err := os.ReadFile(flag.Arg(0))
	return string(b), err
}

// loadData registers the propagation graph under the program's join
// predicate: from a TSV file, a synthetic dataset, or inline facts.
func loadData(db *powerlog.Database, src, graphPath, genName string, weighted bool) error {
	pred, info, err := joinPredicate(src)
	if err != nil {
		return err
	}
	switch {
	case graphPath != "":
		f, err := os.Open(graphPath)
		if err != nil {
			return err
		}
		defer f.Close()
		g, err := powerlog.LoadGraphTSV(f, weighted)
		if err != nil {
			return err
		}
		db.SetGraph(pred, g)
	case genName != "":
		d, err := gen.DatasetByName(genName)
		if err != nil {
			return err
		}
		db.SetGraph(pred, d.Build(weighted))
	default:
		g, err := compiler.GraphFromFacts(info, pred, 0)
		if err != nil {
			return fmt.Errorf("no -graph/-gen given and no usable inline facts: %w", err)
		}
		db.SetGraph(pred, g)
	}
	return nil
}

// joinPredicate finds the edge-like predicate of the recursive body (the
// one connecting the recursive key to the head key).
func joinPredicate(src string) (string, *analyzer.Info, error) {
	tree, err := parser.Parse(src)
	if err != nil {
		return "", nil, err
	}
	info, err := analyzer.Analyze(tree)
	if err != nil {
		return "", nil, err
	}
	if info.Facts.Shape == nil {
		return "", nil, errors.New(info.Facts.ShapeErr)
	}
	return info.Facts.Shape.Join.Name, info, nil
}

func printTop(res *powerlog.Result, n int) {
	type kv struct {
		k int64
		v float64
	}
	rows := make([]kv, 0, len(res.Values))
	for k, v := range res.Values {
		rows = append(rows, kv{k, v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].v != rows[j].v {
			return rows[i].v > rows[j].v
		}
		return rows[i].k < rows[j].k
	})
	if n > len(rows) {
		n = len(rows)
	}
	fmt.Printf("top %d of %d keys:\n", n, len(rows))
	for _, r := range rows[:n] {
		fmt.Printf("  %8d  %g\n", r.k, r.v)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "powerlog:", err)
	os.Exit(1)
}
