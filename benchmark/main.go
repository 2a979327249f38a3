// Command plperf is PowerLog-Go's benchmark: four long-run workloads,
// end-to-end metrics from an untraced run and per-layer metrics from a
// traced one, each run a fresh process on two cores. BENCHMARK.json at
// the root of the repository is its contract; README.md in this
// directory is the glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 30

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", defaultSeconds, "length of the timed section")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics in place of end-to-end ones")
	traceOut := flag.String("trace-out", "", "traced run: write the spans here as NDJSON (default .bench_build/trace-<workload>.ndjson)")
	selfcheck := flag.Int("selfcheck", 0, "run this many sets of -runs runs per workload and compare them with the bounds")
	runs := flag.Int("runs", 10, "selfcheck: runs (seeds 1..runs) in a set")
	toy := flag.Bool("toy", false, "unit-test sizes: seconds of work, not a measurement")
	flag.Parse()

	// Every run is one process on the reference box's two cores with
	// the collector at its default pace, whatever the environment says.
	runtime.GOMAXPROCS(2)
	debug.SetGCPercent(100)

	var err error
	if *selfcheck > 0 {
		err = runSelfcheck(*selfcheck, *runs, *workload, *seconds, *toy)
	} else {
		err = runOne(*workload, *seed, time.Duration(*seconds)*time.Second, *trace != 0, *traceOut, *toy)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "plperf:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

// runOne is one run: it prints every metric by name with its unit and
// sample count, then the result object as the last line.
func runOne(name string, seed int64, d time.Duration, traced bool, traceOut string, toy bool) error {
	def, err := findWorkload(name)
	if err != nil {
		return err
	}
	// Generated inputs live under the build directory of the checkout
	// the benchmark was started in, and go when the run ends.
	scratch := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, "plperf-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	o := options{dir: dir, seed: seed, d: d, toy: toy}
	quiet := "quiet gate: off at toy size"
	if !toy {
		gate := quietGate{ledger: filepath.Join(".bench_build", "quiet-waited"), probe: probeSteal, pause: time.Sleep}
		waited, share, err := gate.await()
		if err != nil {
			return fmt.Errorf("quiet gate: %w", err)
		}
		quiet = fmt.Sprintf("quiet gate: waited %v, then %.1f %% of the cores' time was stolen", waited, 100*share)
	}
	var rep *report
	defs := endToEnd
	if traced {
		defs = perLayer
		o.traceTo = traceOut
		if o.traceTo == "" {
			o.traceTo = filepath.Join(".bench_build", "trace-"+name+".ndjson")
		}
		rep, err = runTraced(def.make(toy), o)
	} else {
		rep, err = runUntraced(def.make(toy), o)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	rep.notes = append(rep.notes, quiet)
	return rep.print(name, seed, defs)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) print(name string, seed int64, defs []metricDef) error {
	fmt.Printf("workload %s seed %d: attempted %d, failed %d, correct %v\n", name, seed, r.attempted, r.failed, r.correct)
	if r.firstErr != nil {
		fmt.Printf("first failure: %v\n", r.firstErr)
	}
	res := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := r.values[d.name]
		if n, ok := r.samples[d.name]; ok {
			fmt.Printf("%-36s %16.6f %-6s n=%d\n", d.name, v, d.unit, n)
		} else {
			fmt.Printf("%-36s %16.6f %s\n", d.name, v, d.unit)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, note := range r.notes {
		fmt.Println(note)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}
