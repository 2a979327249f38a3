package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"powerlog/internal/gen"
	"powerlog/internal/progs"
	"powerlog/internal/ref"
	prt "powerlog/internal/runtime"
	"powerlog/internal/transport"
)

// chainRunner is sssp-chain-tcp: cold SSSP fixpoints in the unified
// mode on a high-diameter chain, two RunWorkers and a RunMaster wired
// over loopback TCP. The frontier is sparse and deep, so an op is
// thousands of small flushes: wire codec, TCP send path and the
// master's termination loop dominate and the kernel does little.
type chainRunner struct {
	vertices, skips, span int

	tsv  string
	n    int
	p    *pipeline
	want []float64
	op   int
}

func newChain(toy bool) *chainRunner {
	if toy {
		return &chainRunner{vertices: 120, skips: 2, span: 8}
	}
	return &chainRunner{vertices: 8000, skips: 4, span: 40}
}

func (w *chainRunner) generate(dir string, seed int64) error {
	g := gen.LocalChain(w.vertices, w.skips, w.span, 100, seed)
	w.tsv, w.n = filepath.Join(dir, "sssp-chain.tsv"), g.NumVertices()
	return writeTSV(w.tsv, g)
}

func (w *chainRunner) setup(tr *tracer, parent int) (err error) {
	w.p, err = buildPipeline(tr, parent, w.tsv, progs.SSSP, w.n, true)
	return err
}

func (w *chainRunner) teardown() error { return nil }
func (w *chainRunner) pipe() *pipeline { return w.p }
func (w *chainRunner) verify() error   { return nil }

func (w *chainRunner) warmup() error {
	w.want = ref.Dijkstra(w.p.g, 0)
	var m measurement
	if err := w.measure(0, 5, nil, &m); err != nil {
		return err
	}
	return m.ops.firstErr
}

// countConn counts, on the transport.Conn boundary, the Data batches
// and KVs a worker sends: RunWorker returns no Result, so this is the
// only outside view of the flush policy on the TCP path.
type countConn struct {
	transport.Conn
	flushes, kvs atomic.Int64
}

func (c *countConn) Send(to int, m transport.Message) error {
	if m.Kind == transport.Data {
		c.flushes.Add(1)
		c.kvs.Add(int64(len(m.KVs)))
	}
	return c.Conn.Send(to, m)
}

// wireTCP starts workers+1 loopback endpoints on ephemeral ports and
// exchanges the address book.
func wireTCP(workers int) ([]*transport.TCPConn, error) {
	boot := make([]string, workers+1)
	for i := range boot {
		boot[i] = "127.0.0.1:0"
	}
	eps := make([]*transport.TCPConn, 0, workers+1)
	for i := range boot {
		c, err := transport.NewTCPEndpoint(i, workers, boot)
		if err != nil {
			closeTCP(eps)
			return nil, err
		}
		eps = append(eps, c)
	}
	addrs := make([]string, len(eps))
	for i, c := range eps {
		addrs[i] = c.Addr()
	}
	for _, c := range eps {
		c.SetAddressBook(addrs)
	}
	return eps, nil
}

func closeTCP(eps []*transport.TCPConn) {
	for _, c := range eps {
		c.Close()
	}
}

func (w *chainRunner) measure(d time.Duration, minOps int, tr *tracer, m *measurement) error {
	timedLoop(d, minOps, m, func() {
		runtime.GC()
		w.op++
		ms, err := w.oneOp(tr, &m.eng)
		m.ops.record(ms, err)
	})
	return nil
}

// oneOp wires a fresh cluster, runs the fixpoint and closes the
// cluster. The op's latency runs from the first RunWorker start to the
// master's verdict and every worker's return; wiring and Close are
// timed apart as tcp.wire and tcp.close.
func (w *chainRunner) oneOp(tr *tracer, eng *engineCounters) (float64, error) {
	cfg := engineConfig(prt.MRASyncAsync)
	sp := tr.begin("tcp.wire", -1, w.op)
	eps, err := wireTCP(cfg.Workers)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	conns := make([]transport.Conn, len(eps))
	var counts []*countConn
	for i, c := range eps {
		conns[i] = c
		if tr != nil && i < cfg.Workers {
			cc := &countConn{Conn: c}
			counts, conns[i] = append(counts, cc), cc
		}
	}

	locals := make([]map[int64]float64, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	opSpan := tr.begin("op", -1, w.op)
	t0 := time.Now()
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ws := tr.begin("runtime.RunWorker", opSpan, w.op)
			locals[i], errs[i] = prt.RunWorker(w.p.plan, cfg, conns[i])
			tr.end(ws)
		}(i)
	}
	ms := tr.begin("runtime.RunMaster", opSpan, w.op)
	rounds, converged, err := prt.RunMaster(w.p.plan, cfg, conns[cfg.Workers])
	tr.end(ms)
	wg.Wait()
	lat := msSince(t0)
	tr.end(opSpan)

	sp = tr.begin("tcp.close", -1, w.op)
	closeTCP(eps)
	tr.end(sp)

	for i, werr := range errs {
		if err == nil && werr != nil {
			err = fmt.Errorf("worker %d: %w", i, werr)
		}
	}
	if err != nil {
		return 0, err
	}
	if !converged {
		return 0, fmt.Errorf("Converged=false after %d rounds", rounds)
	}
	merged := make(map[int64]float64, w.n)
	for _, local := range locals {
		for k, v := range local {
			merged[k] = v
		}
	}
	if err := checkValues(merged, w.want, 1e-9); err != nil {
		return 0, err
	}
	if counts != nil {
		var kvs, flushes, most int64
		for _, c := range counts {
			kvs += c.kvs.Load()
			flushes += c.flushes.Load()
			most = max(most, c.kvs.Load())
		}
		eng.addCounts(float64(rounds), float64(kvs), float64(flushes), lat/1e3, kvs, most, len(counts))
	}
	return lat, nil
}

// twin runs the op's plan and Config a few times in-process, over the
// channel transport, for the two counters no TCP-side API returns:
// compute passes and the master's collect-wait histogram.
func (w *chainRunner) twin(eng *engineCounters, runs int) error {
	var t engineCounters
	for i := 0; i < runs; i++ {
		res, err := prt.Run(w.p.plan, engineConfig(prt.MRASyncAsync))
		if err := runVerdict(res, err, w.want, 1e-9); err != nil {
			return fmt.Errorf("in-process twin: %w", err)
		}
		t.add(res, false)
	}
	eng.passes, eng.collectWait = t.passes, t.collectWait
	return nil
}
