// Command plcheck runs PowerLog's automatic MRA condition checker on
// recursive aggregate Datalog programs — the paper's Table 1 in CLI form.
//
// Usage:
//
//	plcheck -all                 # check the fourteen catalogue programs
//	plcheck -rewrite program.dl  # check one file, print the incremental form
package main

import (
	"flag"
	"fmt"
	"os"

	"powerlog"
	"powerlog/internal/bench"
	"powerlog/internal/progs"
)

func main() {
	all := flag.Bool("all", false, "check the built-in Table-1 catalogue")
	table := flag.Bool("table", false, "with -all: print the compact Table-1 summary instead of full reports")
	doRewrite := flag.Bool("rewrite", false, "also print the incremental (monotonic) form for satisfying programs")
	smtlib := flag.Bool("smtlib", false, "also print the Property-2 verification condition as SMT-LIB 2 (paper Figure 4)")
	flag.Parse()
	emitSMT = *smtlib

	switch {
	case *all && *table:
		if err := bench.Table1(os.Stdout); err != nil {
			fail(err)
		}
	case *all:
		for _, p := range progs.Catalog() {
			fmt.Printf("== %s ==\n", p.Name)
			if p.Notes != "" {
				fmt.Printf("note: %s\n", p.Notes)
			}
			checkOne(p.Source, *doRewrite)
			fmt.Println()
		}
	case flag.NArg() == 1:
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		checkOne(string(src), *doRewrite)
	default:
		fmt.Fprintln(os.Stderr, "usage: plcheck -all [-table] | plcheck [-rewrite] program.dl")
		os.Exit(2)
	}
}

var emitSMT bool

func checkOne(src string, doRewrite bool) {
	prog, err := powerlog.Parse(src)
	if err != nil {
		fail(err)
	}
	rep := prog.Check()
	fmt.Print(rep)
	// What the text alone decides about F' (DESIGN.md "Program facts").
	fmt.Print("facts:\n", prog.Facts())
	if emitSMT {
		if text, err := prog.SMTLIB(); err == nil {
			fmt.Println("-- SMT-LIB 2 (paper Figure 4 encoding) --")
			fmt.Print(text)
		} else {
			fmt.Printf("-- no SMT-LIB encoding: %v --\n", err)
		}
	}
	if doRewrite && rep.Satisfied {
		text, err := prog.Rewrite()
		if err != nil {
			fail(err)
		}
		fmt.Println("-- incremental form --")
		fmt.Print(text)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "plcheck:", err)
	os.Exit(1)
}
