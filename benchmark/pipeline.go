package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"powerlog/internal/analyzer"
	"powerlog/internal/checker"
	"powerlog/internal/compiler"
	"powerlog/internal/edb"
	"powerlog/internal/graph"
	"powerlog/internal/parser"
	prt "powerlog/internal/runtime"
)

// engineConfig is the one engine configuration every workload runs
// with (BENCHMARK.json records it): two single-core workers on the two
// cores of the reference box, serving-grade flush and check intervals,
// no network emulation, faults or checkpoints.
func engineConfig(mode prt.Mode) prt.Config {
	return prt.Config{
		Workers:        2,
		CoresPerWorker: 1,
		Mode:           mode,
		Tau:            time.Millisecond,
		CheckInterval:  2 * time.Millisecond,
		MaxWall:        time.Minute,
	}
}

// pipeline is what set-up produces from Datalog text and an edge list
// on disk: the loaded graph and the compiled plan over it.
type pipeline struct {
	tsv  string
	g    *graph.Graph
	plan *compiler.Plan
}

// buildPipeline is the set-up path every workload shares, one span per
// layer: graph.LoadTSV → edb → parser → analyzer → checker → compiler.
// n is the generator's vertex count, so a trailing vertex without edges
// stays in the key space.
func buildPipeline(tr *tracer, parent int, tsv, source string, n int, weighted bool) (*pipeline, error) {
	sp := tr.begin("graph.LoadTSV", parent, 0)
	f, err := os.Open(tsv)
	if err != nil {
		return nil, err
	}
	g, err := graph.LoadTSV(bufio.NewReaderSize(f, 1<<16), n, weighted)
	f.Close()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", tsv, err)
	}

	sp = tr.begin("edb.SetGraph", parent, 0)
	db := edb.NewDB()
	db.SetGraph("edge", g)
	tr.end(sp)

	sp = tr.begin("parser.Parse", parent, 0)
	prog, err := parser.Parse(source)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("analyzer.Analyze", parent, 0)
	info, err := analyzer.Analyze(prog)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("checker.Check", parent, 0)
	rep := checker.Check(info)
	tr.end(sp)
	if !rep.Satisfied {
		return nil, fmt.Errorf("program fails the MRA condition check")
	}

	sp = tr.begin("compiler.Compile", parent, 0)
	plan, err := compiler.Compile(info, db, compiler.Options{})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &pipeline{tsv: tsv, g: g, plan: plan}, nil
}

// writeTSV writes g's edge list where buildPipeline reads it.
func writeTSV(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteTSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
