package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// metricDef names a metric and its unit. The tables below are the
// benchmark's contract and mirror BENCHMARK.json (a test compares
// them). Every end-to-end metric is better when lower.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_min", "ms"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb_per_op", "MB"},
}

// bound is the share of the parent's median by which a later change may
// worsen an end-to-end metric; BENCHMARK.json gives it to each of them.
const bound = 0.25

// timedSetups is how many fresh set-ups an untraced run times, and
// opsFloor the fewest ops it times, so that p90 has its ten samples
// beyond.
const (
	timedSetups = 20
	opsFloor    = 100
)

var perLayer = []metricDef{
	{"parser.parse_us", "us"},
	{"analyzer.analyze_us", "us"},
	{"checker.check_ms", "ms"},
	{"compiler.compile_us", "us"},
	{"graph.load_tsv_ms", "ms"},
	{"graph.load_ns_per_edge", "ns"},
	{"compiler.propagate_ns_per_edge", "ns"},
	{"graph.neighbors_ns_per_edge", "ns"},
	{"monotable.fold_ns", "ns"},
	{"monotable.foldacc_ns", "ns"},
	{"monotable.scan_drain_ns_per_key", "ns"},
	{"transport.chan_ns_per_kv", "ns"},
	{"transport.tcp_ns_per_kv", "ns"},
	{"transport.tcp_small_msg_us", "us"},
	{"transport.tcp_bytes_per_kv", "bytes"},
	{"transport.tcp_wire_ms", "ms"},
	{"runtime.rounds", "count"},
	{"runtime.kvs_sent", "count"},
	{"runtime.flushes", "count"},
	{"runtime.kvs_per_flush", "count"},
	{"runtime.passes", "count"},
	{"runtime.kvs_per_s", "1/s"},
	{"runtime.master_collect_wait_us_mean", "us"},
	{"runtime.worker_kvs_skew", "ratio"},
	{"runtime.open_ms", "ms"},
	{"runtime.apply_insert_ms_p50", "ms"},
	{"runtime.apply_delete_ms_p50", "ms"},
	{"runtime.apply_empty_ms_p50", "ms"},
	{"runtime.reseed_keys", "count"},
	{"runtime.invalidate_keys", "count"},
	{"runtime.close_ms", "ms"},
	{"server.lookup_ms_p50", "ms"},
	{"server.lookup_ms_p99", "ms"},
	{"server.mutate_ms_p50", "ms"},
	{"server.mutate_ms_p90", "ms"},
	{"server.handler_overhead_ms", "ms"},
	{"server.reads_per_s", "1/s"},
	{"server.writes_per_s", "1/s"},
	{"metrics.scrape_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"op.ms_p50", "ms"},
}

// workloadDef names a workload and builds its runner.
type workloadDef struct {
	name string
	make func(toy bool) runner
}

var workloads = []workloadDef{
	{"pagerank-rmat-bsp", func(toy bool) runner { return newPagerank(toy) }},
	{"sssp-chain-tcp", func(toy bool) runner { return newChain(toy) }},
	{"sssp-churn-session", func(toy bool) runner { return newChurn(toy) }},
	{"serve-read-write", func(toy bool) runner { return newServe(toy) }},
}

// report is one run's result. samples holds, per metric, how many
// samples its value rests on (printed beside it, not part of the JSON).
type report struct {
	attempted, failed int
	correct           bool
	firstErr          error
	values            layers
	samples           map[string]int
	notes             []string // printed under the metrics
}

// options are one run's inputs.
type options struct {
	dir     string        // scratch directory for generated inputs
	seed    int64         // drives every generated input
	d       time.Duration // length of the timed section
	toy     bool          // unit-test sizes
	traceTo string        // where a traced run writes its spans
}

// setupOnce times one fresh set-up under a "setup" span.
func setupOnce(w runner, tr *tracer) (float64, error) {
	sp := tr.begin("setup", -1, 0)
	t0 := time.Now()
	err := w.setup(tr, sp)
	s := time.Since(t0).Seconds()
	tr.end(sp)
	return s, err
}

// setUpTimes makes `times` fresh set-ups, tearing down what stood
// before each, and returns how long each took. The last one stays up.
func setUpTimes(w runner, tr *tracer, times int) ([]float64, error) {
	var took []float64
	for i := 0; i < times; i++ {
		if err := w.teardown(); err != nil {
			return nil, fmt.Errorf("teardown: %w", err)
		}
		s, err := setupOnce(w, tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		took = append(took, s)
	}
	return took, nil
}

// runUntraced measures the end-to-end metrics. Half of the timed
// set-ups run before the ops and half after them, half a minute apart,
// so that they do not all meet the box in the same state.
func runUntraced(w runner, o options) (rep *report, err error) {
	if err := w.generate(o.dir, o.seed); err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	defer func() {
		if terr := w.teardown(); err == nil && terr != nil {
			rep, err = nil, fmt.Errorf("teardown: %w", terr)
		}
	}()
	setups, err := setUpTimes(w, nil, timedSetups/2)
	if err != nil {
		return nil, err
	}
	if err := w.warmup(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	var m measurement
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ticks, err := readStealTicks()
	if err != nil {
		return nil, err
	}
	rss := watchRSS()
	t0 := time.Now()
	merr := w.measure(o.d, opsFloor, nil, &m)
	stolen, serr := stolenSince(ticks, t0)
	peaks, err := rss.finish()
	if merr != nil {
		return nil, fmt.Errorf("measure: %w", merr)
	}
	if err != nil {
		return nil, fmt.Errorf("resident set: %w", err)
	}
	if serr != nil {
		return nil, serr
	}
	runtime.ReadMemStats(&after)
	verr := w.verify()
	later, err := setUpTimes(w, nil, timedSetups-timedSetups/2)
	if err != nil {
		return nil, err
	}
	setups = append(setups, later...)

	rep = newReport(&m, verr)
	n := len(m.ops.ms)
	if n == 0 {
		return nil, fmt.Errorf("no op succeeded (first failure: %v)", rep.firstErr)
	}
	rep.set("setup_s", slices.Min(setups), len(setups))
	rep.set("op_ms_min", slices.Min(m.ops.ms), n)
	// Beside a write stream the divisor is the writes: an Apply
	// allocates what some three hundred lookups do, so per lookup the
	// figure would follow the ratio of the two request rates, which is
	// timing; per write that ratio scales only the lookups' third.
	per := m.ops.attempted
	if m.writes.attempted > 0 {
		per = m.writes.attempted
	}
	rep.set("alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc-m.oracleAlloc)/(1<<20)/float64(per), per)
	rep.set("peak_rss_mb", median(peaks), len(peaks))

	// The middle and the tail of both distributions follow the state
	// the box is in (README, Repeatability): reported, not gated.
	note := fmt.Sprintf("not gated: setup_s median %.6f", median(setups))
	for _, p := range []float64{50, 90} {
		if v, err := percentile(m.ops.ms, p); err == nil {
			note += fmt.Sprintf(", op_ms_p%g %.6f", p, v)
		} else {
			note += fmt.Sprintf(", op_ms_p%g refused (%v)", p, err)
		}
	}
	rep.notes = []string{
		fmt.Sprintf("%s (n=%d)", note, n),
		fmt.Sprintf("not gated: highest %v window of peak_rss_mb %.6f", rssWindow, slices.Max(peaks)),
		fmt.Sprintf("%.1f %% of the cores' time was stolen while the ops ran", 100*stolen),
	}
	return rep, nil
}

func newReport(m *measurement, verr error) *report {
	rep := &report{
		attempted: m.ops.attempted + m.writes.attempted,
		failed:    m.ops.failed + m.writes.failed,
		firstErr:  verr,
		values:    layers{},
		samples:   map[string]int{},
	}
	for _, err := range []error{m.writes.firstErr, m.ops.firstErr} {
		if err != nil {
			rep.firstErr = err
		}
	}
	rep.correct = rep.failed == 0 && verr == nil
	return rep
}

func (r *report) set(name string, v float64, samples int) {
	r.values[name], r.samples[name] = v, samples
}

// runTraced measures the per-layer metrics: set-up stage by stage, the
// workload's ops with spans on and off in turn, and the layer probes
// at the workload's size.
func runTraced(w runner, o options) (rep *report, err error) {
	tr := newTracer()
	if err := w.generate(o.dir, o.seed); err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	if _, err := setUpTimes(w, tr, 3); err != nil {
		return nil, err
	}
	defer func() {
		if terr := w.teardown(); err == nil && terr != nil {
			rep, err = nil, fmt.Errorf("teardown: %w", terr)
		}
	}()
	if err := w.warmup(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	// Four blocks, spans off and on in turn, share 0.4 of the run; the
	// rest of it belongs to the probes.
	var all measurement
	var off, on []float64
	blockOps := 5
	if _, serving := w.(*serveRunner); serving {
		blockOps = opsFloor / 4 // its write stream needs 100 samples over the four blocks for a p90
	}
	for block := 0; block < 4; block++ {
		t, into := tr, &on
		if block%2 == 0 {
			t, into = nil, &off
		}
		from := len(all.ops.ms)
		if err := w.measure(o.d/10, blockOps, t, &all); err != nil {
			return nil, fmt.Errorf("measure: %w", err)
		}
		*into = append(*into, all.ops.ms[from:]...)
	}
	verr := w.verify()
	rep = newReport(&all, verr)
	out := rep.values
	out["trace.overhead_ratio"] = ratio(median(on), median(off))
	out["op.ms_p50"] = median(all.ops.ms)

	edges := float64(w.pipe().g.NumEdges())
	stage := func(span string) float64 { return median(tr.durationsMS(span)) }
	out["parser.parse_us"] = stage("parser.Parse") * 1e3
	out["analyzer.analyze_us"] = stage("analyzer.Analyze") * 1e3
	out["checker.check_ms"] = stage("checker.Check")
	out["compiler.compile_us"] = stage("compiler.Compile") * 1e3
	out["graph.load_tsv_ms"] = stage("graph.LoadTSV")
	out["graph.load_ns_per_edge"] = stage("graph.LoadTSV") * 1e6 / edges

	kernelProbe(w.pipe(), out)
	monotableProbe(w.pipe(), out)
	if err := chanProbe(out); err != nil {
		return nil, err
	}
	if err := tcpProbe(tr, out); err != nil {
		return nil, err
	}

	// The session and server layers: a workload that does not cross
	// them still measures them, with the same probe every time, so
	// every traced run has a number for every layer.
	eng := &all.eng
	batch, applies, serveFor := max(w.pipe().g.NumEdges()/2000, 1), 40, 2500*time.Millisecond
	if o.toy {
		applies, serveFor = 5, 100*time.Millisecond
	}
	srv, serving := w.(*serveRunner)
	if serving {
		batch = srv.batch
	}
	probeEng, err := sessionProbe(tr, w.pipe().tsv, w.pipe().plan.N, batch, applies, o.seed, out)
	if err != nil {
		return nil, err
	}
	switch w := w.(type) {
	case *chainRunner:
		if err := w.twin(eng, 5); err != nil {
			return nil, err
		}
	case *serveRunner:
		// HTTP returns no Result: the engine counters of a write are
		// those of the same batch applied to the probe's session.
		eng = probeEng
	}
	eng.layers(out)

	probed := &all
	if !serving {
		srv = newServe(o.toy)
		srv.warm /= 4
		if probed, err = serverProbe(srv, o, serveFor); err != nil {
			return nil, fmt.Errorf("server probe: %w", err)
		}
	}
	if err := srv.serverLayers(probed, out); err != nil {
		return nil, err
	}

	for _, d := range perLayer {
		if _, ok := out[d.name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
	}
	printSelfTimes(tr)
	if o.traceTo != "" {
		if err := os.MkdirAll(filepath.Dir(o.traceTo), 0o755); err != nil {
			return nil, err
		}
		f, err := os.Create(o.traceTo)
		if err != nil {
			return nil, err
		}
		if err := tr.writeNDJSON(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// serverProbe runs the serve workload briefly beside another
// workload's trace and returns its measured section.
func serverProbe(srv *serveRunner, o options, d time.Duration) (m *measurement, err error) {
	if err := srv.generate(o.dir, o.seed); err != nil {
		return nil, err
	}
	if err := srv.setup(nil, -1); err != nil {
		return nil, err
	}
	defer func() {
		if terr := srv.teardown(); err == nil {
			err = terr
		}
	}()
	if err := srv.warmup(); err != nil {
		return nil, err
	}
	m = &measurement{}
	if err := srv.measure(d, opsFloor, nil, m); err != nil {
		return nil, err
	}
	if m.ops.failed+m.writes.failed > 0 {
		return nil, fmt.Errorf("%d failed requests", m.ops.failed+m.writes.failed)
	}
	return m, srv.verify()
}

func printSelfTimes(tr *tracer) {
	fmt.Println("span                      count     total_ms      self_ms")
	for _, r := range tr.totals() {
		fmt.Printf("%-24s %6d %12.3f %12.3f\n", r.Name, r.Count, r.TotalMS, r.Self)
	}
}
