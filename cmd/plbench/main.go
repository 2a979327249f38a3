// Command plbench regenerates the paper's evaluation tables and figures
// on the synthetic Table-2 stand-in datasets.
//
// Usage:
//
//	plbench -exp table1                 # condition-check catalogue
//	plbench -exp fig10 -workers 8       # factor analysis
//	plbench -exp policymetrics -smoke   # per-policy counters, tiny dataset
//	plbench -exp all                    # everything (slow)
//
// Session churn and the serving front end are measured by the gated
// benchmark instead: bash benchmark/run.sh --workload sssp-churn-session
// (or serve-read-write).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"powerlog/internal/bench"
)

func main() {
	var cfg bench.RunConfig
	exp := flag.String("exp", "", fmt.Sprintf("experiment id: one of %v, or all", bench.Experiments))
	flag.IntVar(&cfg.Workers, "workers", 4, "worker shards per engine run")
	flag.IntVar(&cfg.CoresPerWorker, "cores", 0, "cores a worker may fan a scan pass out to (0 = 1, the paper's one compute thread per worker; the cores experiment sweeps it)")
	flag.DurationVar(&cfg.MaxWall, "maxwall", 5*time.Minute, "per-run wall-clock cap")
	flag.IntVar(&cfg.Staleness, "staleness", 0, "MRA+SSP superstep bound (0 = runtime default)")
	flag.StringVar(&cfg.Faults, "faults", "", `fault-injection spec applied to every run, e.g. "seed=42,sendfail=0.1,stall=5:300us"`)
	flag.BoolVar(&cfg.Smoke, "smoke", false, "swap every dataset for its tiny stand-in (CI smoke runs)")
	flag.Parse()

	if *exp == "" {
		fmt.Fprintf(os.Stderr, "usage: plbench -exp {%v|all}\n", bench.Experiments)
		os.Exit(2)
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.Experiments
	}
	for _, id := range ids {
		start := time.Now()
		if _, err := bench.RunExperiment(id, os.Stdout, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "plbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
