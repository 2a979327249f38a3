package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func toyOptions(t *testing.T) options {
	return options{dir: t.TempDir(), seed: 3, d: 200 * time.Millisecond, toy: true}
}

// Every workload runs end to end at toy size: generated inputs, timed
// set-ups, oracle-checked ops, every end-to-end metric present.
func TestWorkloadsAtToySize(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			rep, err := runUntraced(def.make(true), toyOptions(t))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct || rep.failed != 0 || rep.attempted < 100 {
				t.Fatalf("correct=%v failed=%d attempted=%d first=%v", rep.correct, rep.failed, rep.attempted, rep.firstErr)
			}
			for _, d := range endToEnd {
				if v, ok := rep.values[d.name]; !ok || v <= 0 {
					t.Errorf("%s = %v", d.name, v)
				}
			}
		})
	}
}

// A traced run yields every per-layer metric, whatever the workload,
// and writes its spans out.
func TestTracedRunMeasuresEveryLayer(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			o := toyOptions(t)
			o.d = time.Second
			o.traceTo = filepath.Join(o.dir, "trace.ndjson")
			rep, err := runTraced(def.make(true), o)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct {
				t.Fatalf("incorrect: %v", rep.firstErr)
			}
			for _, d := range perLayer {
				if _, ok := rep.values[d.name]; !ok {
					t.Errorf("%s missing", d.name)
				}
			}
			if st, err := os.Stat(o.traceTo); err != nil || st.Size() == 0 {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// The same seed generates the same inputs, another seed other ones.
func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	for _, def := range workloads[:3] { // the served dataset is fixed; its seed drives requests
		read := func(seed int64) string {
			dir := t.TempDir()
			if err := def.make(true).generate(dir, seed); err != nil {
				t.Fatal(err)
			}
			files, _ := filepath.Glob(filepath.Join(dir, "*.tsv"))
			if len(files) != 1 {
				t.Fatalf("%s wrote %v", def.name, files)
			}
			b, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		if read(5) != read(5) {
			t.Errorf("%s: seed 5 gave two different inputs", def.name)
		}
		if read(5) == read(6) {
			t.Errorf("%s: seeds 5 and 6 gave the same input", def.name)
		}
	}
}

// BENCHMARK.json at the root of the repository and the tables in run.go
// state the same contract.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var c struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in run.go", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q with a why of %d characters", i, w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in run.go", len(got), kind, len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d: %s [%s] in BENCHMARK.json, %s [%s] in run.go", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded && (m.Bound == nil || *m.Bound != bound) {
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in run.go", m.Name, m.Bound, bound)
			}
			if !bounded && m.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	check("end-to-end", c.EndToEnd, endToEnd, true)
	check("per-layer", c.PerLayer, perLayer, false)
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", c.RunSeconds, defaultSeconds)
	}
}
