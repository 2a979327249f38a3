package main

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/progs"
	"powerlog/internal/ref"
	prt "powerlog/internal/runtime"
)

// churnGen draws mutation batches against a live edge list, as a pure
// function of its seed, and keeps that list in step with the engine's
// graph: a delete names a pair and removes every parallel edge of it,
// and an insert never repeats a pair that exists. gen.ChurnStream draws
// the same kind of batch but needs their number beforehand, copies the
// edge list for each and returns only the final one; a run that is
// bounded by time and checks the oracle every few ops needs batches one
// at a time, each allocating a few kilobytes beside the op's megabytes.
type churnGen struct {
	rng   *rand.Rand
	n     int
	edges []graph.Edge
	has   map[int64]int // edges per (src, dst) pair
}

func pairKey(src, dst int32) int64 { return int64(src)<<32 | int64(uint32(dst)) }

func newChurnGen(n int, edges []graph.Edge, seed int64) *churnGen {
	c := &churnGen{rng: rand.New(rand.NewSource(seed)), n: n, edges: edges, has: make(map[int64]int, len(edges))}
	for _, e := range edges {
		c.has[pairKey(e.Src, e.Dst)]++
	}
	return c
}

// next draws one batch of the given numbers of deletes and inserts and
// applies it to the generator's own edge list.
func (c *churnGen) next(deletes, inserts int) prt.Mutation {
	var mut prt.Mutation
	for i := 0; i < deletes && len(c.edges) > 0; i++ {
		j := c.rng.Intn(len(c.edges))
		e := c.edges[j]
		if c.has[pairKey(e.Src, e.Dst)] == 1 {
			c.edges[j] = c.edges[len(c.edges)-1]
			c.edges = c.edges[:len(c.edges)-1]
		} else { // parallel edges (the chain generator makes some): drop them all
			c.edges = slices.DeleteFunc(c.edges, func(o graph.Edge) bool { return o.Src == e.Src && o.Dst == e.Dst })
		}
		delete(c.has, pairKey(e.Src, e.Dst))
		mut.Deletes = append(mut.Deletes, graph.Edge{Src: e.Src, Dst: e.Dst})
	}
	for len(mut.Inserts) < inserts {
		src, dst := int32(c.rng.Intn(c.n)), int32(c.rng.Intn(c.n))
		if src == dst || c.has[pairKey(src, dst)] > 0 {
			continue
		}
		e := graph.Edge{Src: src, Dst: dst, W: 1 + 99*c.rng.Float64()}
		c.has[pairKey(src, dst)] = 1
		c.edges = append(c.edges, e)
		mut.Inserts = append(mut.Inserts, e)
	}
	return mut
}

// oracle is Dijkstra over the generator's current edge list.
func (c *churnGen) oracle() ([]float64, error) {
	g, err := graph.FromEdges(c.n, c.edges, true)
	if err != nil {
		return nil, err
	}
	return ref.Dijkstra(g, 0), nil
}

// churnRunner is sssp-churn-session: a warm parked session absorbs
// small mixed batches. Every batch carries inserts and deletes, so the
// op distribution has one mode (insert-only and delete-only Applys
// differ threefold).
type churnRunner struct {
	scale, edges int
	batch        int // inserts and deletes per batch, each
	warm         int
	checkEvery   int

	tsv  string
	n    int
	seed int64
	p    *pipeline
	sess *prt.Session
	gen  *churnGen
	op   int
}

func newChurn(toy bool) *churnRunner {
	if toy {
		return &churnRunner{scale: 7, edges: 600, batch: 2, warm: 5, checkEvery: 25}
	}
	// 0.05 % of 171 k edges on each side of a batch.
	return &churnRunner{scale: 14, edges: 171000, batch: 85, warm: 50, checkEvery: 25}
}

func (w *churnRunner) generate(dir string, seed int64) error {
	g := gen.RMAT(w.scale, w.edges, 100, seed)
	w.tsv, w.n, w.seed = filepath.Join(dir, "sssp-churn.tsv"), g.NumVertices(), seed
	return writeTSV(w.tsv, g)
}

func (w *churnRunner) setup(tr *tracer, parent int) (err error) {
	if w.p, err = buildPipeline(tr, parent, w.tsv, progs.SSSP, w.n, true); err != nil {
		return err
	}
	sp := tr.begin("runtime.Open", parent, 0)
	w.sess, err = prt.Open(w.p.plan, engineConfig(prt.MRASyncAsync))
	tr.end(sp)
	return err
}

func (w *churnRunner) teardown() error {
	if w.sess == nil {
		return nil
	}
	s := w.sess
	w.sess = nil
	return s.Close()
}

func (w *churnRunner) pipe() *pipeline { return w.p }

func (w *churnRunner) warmup() error {
	// Session.Apply mutates the plan's graph in place, so the generator
	// starts from a copy of its edge list.
	w.gen = newChurnGen(w.n, w.p.g.Edges(), w.seed)
	want, err := w.gen.oracle()
	if err != nil {
		return err
	}
	if err := runVerdict(w.sess.Result(), nil, want, 1e-9); err != nil {
		return err
	}
	var m measurement
	if err := w.measure(0, w.warm, nil, &m); err != nil {
		return err
	}
	return m.ops.firstErr
}

func (w *churnRunner) measure(d time.Duration, minOps int, tr *tracer, m *measurement) error {
	timedLoop(d, minOps, m, func() {
		w.op++
		mut := w.gen.next(w.batch, w.batch)
		sp := tr.begin("op", -1, w.op) // the op is exactly one Session.Apply
		t0 := time.Now()
		res, err := w.sess.Apply(mut)
		ms := msSince(t0)
		tr.end(sp)
		err = runVerdict(res, err, nil, 0)
		if err == nil && w.op%w.checkEvery == 0 {
			err = w.checkAgainstOracle(res, m)
		}
		m.ops.record(ms, err)
		if err == nil {
			m.eng.add(res, true)
		}
	})
	return nil
}

// checkAgainstOracle compares res with Dijkstra on the mutated graph
// and books what the check allocates, so it stays out of
// alloc_mb_per_op.
func (w *churnRunner) checkAgainstOracle(res *prt.Result, m *measurement) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	want, err := w.gen.oracle()
	if err == nil {
		err = checkValues(res.Values, want, 1e-9)
	}
	runtime.GC() // keep the oracle's garbage out of the next op
	runtime.ReadMemStats(&after)
	m.oracleAlloc += after.TotalAlloc - before.TotalAlloc
	return err
}

// verify checks the last fixpoint against the fully mutated graph.
func (w *churnRunner) verify() error {
	want, err := w.gen.oracle()
	if err != nil {
		return err
	}
	return runVerdict(w.sess.Result(), nil, want, 1e-9)
}
