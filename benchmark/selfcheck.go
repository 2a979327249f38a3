package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is
// what the driver that accepts the benchmark computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// child runs this binary once, as the driver does, and returns the
// result object it prints last.
func child(exe, workload string, seed int64, seconds int, traced, toy bool) (*result, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds)}
	if traced {
		args = append(args, "-trace", "1")
	}
	if toy {
		args = append(args, "-toy")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last []byte
	for sc := bufio.NewScanner(bytes.NewReader(stdout)); sc.Scan(); {
		last = append(last[:0], sc.Bytes()...)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("%s seed %d: correct=%v, %d of %d ops failed", workload, seed, res.Correct, res.Failed, res.Attempted)
	}
	return &res, nil
}

// exactOnBSP are the counters that must repeat exactly on
// pagerank-rmat-bsp: barriers make its message schedule a function of
// the graph alone.
var exactOnBSP = []string{"runtime.rounds", "runtime.kvs_sent", "runtime.flushes"}

// runSelfcheck is the A/A test. It makes `sets` sets of runs on this
// one build — per workload `runs` untraced runs (seeds 1..runs) and one
// traced run — and holds them to the rule the benchmark is accepted by:
// within a set, each end-to-end metric's interquartile spread over its
// median stays within the metric's bound (setup_s excepted), and no
// later set's median is worse than the first's by more than the bound.
// A metric that cannot hold its bound is demoted to a per-layer metric,
// not given a wider bound (README, Repeatability).
func runSelfcheck(sets, runs int, only string, seconds int, toy bool) error {
	if runs < 2 {
		return fmt.Errorf("selfcheck needs at least 2 runs in a set")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	breaches := 0
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		medians := map[string][]float64{} // metric → median per set
		spreads := map[string][]float64{}
		var traces []*result
		for set := 0; set < sets; set++ {
			values := map[string][]float64{}
			for seed := int64(1); seed <= int64(runs); seed++ {
				res, err := child(exe, w.name, seed, seconds, false, toy)
				if err != nil {
					return err
				}
				fmt.Printf("%s set %d seed %d:", w.name, set+1, seed)
				for _, d := range endToEnd {
					values[d.name] = append(values[d.name], res.Metrics[d.name].Value)
					fmt.Printf(" %s=%.5g", d.name, res.Metrics[d.name].Value)
				}
				fmt.Println()
			}
			for _, d := range endToEnd {
				med := median(values[d.name])
				q1, q3 := quartiles(values[d.name])
				medians[d.name] = append(medians[d.name], med)
				spreads[d.name] = append(spreads[d.name], (q3-q1)/med)
			}
			tr, err := child(exe, w.name, 1, seconds, true, toy)
			if err != nil {
				return err
			}
			traces = append(traces, tr)
		}

		fmt.Printf("\n%s: %d sets of %d runs, %d s each\n", w.name, sets, runs, seconds)
		fmt.Printf("  %-18s %6s  %-8s %s\n", "metric", "bound", "drift", "per set: median (spread)")
		for _, d := range endToEnd {
			drift, verdict := 0.0, ""
			for set, med := range medians[d.name] {
				drift = max(drift, (med-medians[d.name][0])/medians[d.name][0])
				if spreads[d.name][set] > bound && d.name != "setup_s" {
					verdict = "  SPREAD BREACH"
				}
			}
			if drift > bound {
				verdict += "  DRIFT BREACH"
			}
			if verdict != "" {
				breaches++
			}
			fmt.Printf("  %-18s %6.2f  %-8.4f", d.name, bound, drift)
			for set, med := range medians[d.name] {
				fmt.Printf(" %.5g (%.3f)", med, spreads[d.name][set])
			}
			fmt.Println(verdict)
		}
		fmt.Printf("  per-layer metrics of the traced runs (seed 1), lowest … highest over the sets:\n")
		for _, d := range perLayer {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, tr := range traces {
				lo, hi = min(lo, tr.Metrics[d.name].Value), max(hi, tr.Metrics[d.name].Value)
			}
			verdict := ""
			if w.name == "pagerank-rmat-bsp" && lo != hi {
				for _, name := range exactOnBSP {
					if name == d.name {
						verdict = "  NOT EXACT"
						breaches++
					}
				}
			}
			fmt.Printf("  %-38s %14.6g … %-14.6g %s%s\n", d.name, lo, hi, d.unit, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("selfcheck: %d breaches", breaches)
	}
	fmt.Println("\nselfcheck: every metric within its bound")
	return nil
}
