package main

import (
	"path/filepath"
	"runtime"
	"time"

	"powerlog/internal/gen"
	"powerlog/internal/progs"
	"powerlog/internal/ref"
	prt "powerlog/internal/runtime"
)

// pagerankRunner is pagerank-rmat-bsp: cold PageRank fixpoints under
// BSP barriers on the in-process transport. Every vertex is active in
// every superstep, so the F' kernel, MonoTable fold/scan and the
// combiner do almost all the work.
type pagerankRunner struct {
	scale, edges int

	tsv  string
	n    int
	p    *pipeline
	want []float64
	tol  float64
	op   int
}

func newPagerank(toy bool) *pagerankRunner {
	if toy {
		return &pagerankRunner{scale: 6, edges: 300}
	}
	return &pagerankRunner{scale: 13, edges: 82000}
}

func (w *pagerankRunner) generate(dir string, seed int64) error {
	g := gen.RMAT(w.scale, w.edges, 0, seed)
	w.tsv, w.n = filepath.Join(dir, "pagerank-rmat.tsv"), g.NumVertices()
	return writeTSV(w.tsv, g)
}

func (w *pagerankRunner) setup(tr *tracer, parent int) (err error) {
	w.p, err = buildPipeline(tr, parent, w.tsv, progs.PageRank, w.n, false)
	return err
}

func (w *pagerankRunner) teardown() error { return nil }
func (w *pagerankRunner) pipe() *pipeline { return w.p }
func (w *pagerankRunner) verify() error   { return nil }

func (w *pagerankRunner) warmup() error {
	w.want = ref.PageRank(w.p.g, 1000, 1e-12)
	// The engine stops when the global Σ|Δ| drops below ε, which leaves
	// at most a few ε of mass undelivered per key.
	w.tol = 10 * w.p.plan.Termination.Epsilon
	var m measurement
	if err := w.measure(0, 5, nil, &m); err != nil {
		return err
	}
	return m.ops.firstErr
}

func (w *pagerankRunner) measure(d time.Duration, minOps int, tr *tracer, m *measurement) error {
	cfg := engineConfig(prt.MRASync)
	timedLoop(d, minOps, m, func() {
		runtime.GC()
		w.op++
		sp := tr.begin("op", -1, w.op) // the op is exactly one runtime.Run
		t0 := time.Now()
		res, err := prt.Run(w.p.plan, cfg)
		ms := msSince(t0)
		tr.end(sp)
		err = runVerdict(res, err, w.want, w.tol)
		m.ops.record(ms, err)
		if err == nil {
			m.eng.add(res, false)
		}
	})
	return nil
}
