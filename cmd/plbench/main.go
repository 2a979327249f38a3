// Command plbench regenerates the paper's evaluation tables and figures
// on the synthetic Table-2 stand-in datasets.
//
// Usage:
//
//	plbench -exp table1                 # condition-check catalogue
//	plbench -exp fig10 -workers 8       # factor analysis
//	plbench -exp policymetrics -smoke   # per-policy counters, tiny dataset
//	plbench -exp all                    # everything (slow)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"powerlog/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment id: table1, table2, fig1, fig9, fig10, fig11, ablation, ssp, recovery, rejoin, policymetrics, cores, churn, serve, or all")
	workers := flag.Int("workers", 4, "worker shards per engine run")
	cores := flag.Int("cores", 0, "cores a worker may fan a scan pass out to (0 = min(GOMAXPROCS, 8); 1 = never fan out)")
	maxWall := flag.Duration("maxwall", 5*time.Minute, "per-run wall-clock cap")
	staleness := flag.Int("staleness", 0, "MRA+SSP superstep bound (0 = runtime default)")
	faults := flag.String("faults", "", `fault-injection spec applied to every run, e.g. "seed=42,sendfail=0.1,stall=5:300us"`)
	smoke := flag.Bool("smoke", false, "shrink the experiment to its tiny-dataset variant (CI smoke runs)")
	flag.Parse()

	if *exp == "" {
		fmt.Fprintf(os.Stderr, "usage: plbench -exp {%v|all}\n", bench.Experiments)
		os.Exit(2)
	}
	cfg := bench.RunConfig{Workers: *workers, Cores: *cores, MaxWall: *maxWall, Staleness: *staleness, Faults: *faults, Smoke: *smoke}
	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.Experiments
	}
	for _, id := range ids {
		start := time.Now()
		if err := bench.RunExperiment(id, os.Stdout, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "plbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
