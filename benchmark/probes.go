package main

import (
	"fmt"
	"time"

	"powerlog/internal/metrics"
	"powerlog/internal/monotable"
	"powerlog/internal/progs"
	prt "powerlog/internal/runtime"
	"powerlog/internal/transport"
)

// The probes time calls into one layer's exported functions, at the
// size of the workload being traced. Each repeats its pass until
// probeTime has gone by and reports the median pass, so a probe's cost
// in the traced run is fixed and its number does not ride on one pass.
const probeTime = 150 * time.Millisecond

// layers maps a per-layer metric's name to its value.
type layers map[string]float64

// sink keeps probe results alive so the compiler cannot drop the loops.
var sink float64

// repeat runs pass until probeTime has elapsed (at least three times)
// and returns the median of what it returns.
func repeat(pass func() float64) float64 {
	var xs []float64
	for start := time.Now(); time.Since(start) < probeTime || len(xs) < 3; {
		xs = append(xs, pass())
	}
	return median(xs)
}

// kernelProbe times the compiled F' kernel, and the CSR iteration under
// it, over every vertex of the workload's own graph.
func kernelProbe(p *pipeline, out layers) {
	n := int64(p.plan.N)
	scratch := p.plan.NewScratch()
	emitted := 0
	emit := func(_ int64, v float64) { emitted++; sink += v }
	out["compiler.propagate_ns_per_edge"] = repeat(func() float64 {
		emitted = 0
		t0 := time.Now()
		for v := int64(0); v < n; v++ {
			p.plan.PropagateInto(scratch, v, 1, emit)
		}
		return ratio(float64(time.Since(t0)), float64(emitted))
	})
	out["graph.neighbors_ns_per_edge"] = repeat(func() float64 {
		t0 := time.Now()
		for v := int32(0); v < int32(n); v++ {
			targets, weights := p.g.Neighbors(v)
			for _, t := range targets {
				sink += float64(t)
			}
			for _, w := range weights {
				sink += w
			}
		}
		return ratio(float64(time.Since(t0)), float64(p.g.NumEdges()))
	})
}

// monotableProbe times the three MonoTable steps of a scan pass on a
// Dense shard with the workload's aggregate and key count: fold a delta
// into every row, scan and drain the dirty rows, fold into Accumulation.
func monotableProbe(p *pipeline, out layers) {
	n := int64(p.plan.N)
	t := monotable.NewDense(p.plan.Op, int(n), 1, 0)
	keys := make([]int64, 0, n)
	var fold, scan, acc []float64
	pass := 0.0
	for start := time.Now(); time.Since(start) < probeTime || len(fold) < 3; {
		// Values fall from pass to pass, so min keeps improving and
		// every fold takes the write path, as sum always does.
		pass++
		t0 := time.Now()
		for k := int64(0); k < n; k++ {
			t.FoldDelta(k, 1e9-pass*1e3-float64(k%7))
		}
		fold = append(fold, ratio(float64(time.Since(t0)), float64(n)))

		keys = keys[:0]
		t0 = time.Now()
		t.ScanDirty(func(k int64) { keys = append(keys, k) })
		for _, k := range keys {
			v, _ := t.Drain(k)
			sink += v
		}
		scan = append(scan, ratio(float64(time.Since(t0)), float64(len(keys))))

		t0 = time.Now()
		for k := int64(0); k < n; k++ {
			t.FoldAcc(k, 1e9-pass*1e3-float64(k%7))
		}
		acc = append(acc, ratio(float64(time.Since(t0)), float64(n)))
	}
	out["monotable.fold_ns"] = median(fold)
	out["monotable.scan_drain_ns_per_key"] = median(scan)
	out["monotable.foldacc_ns"] = median(acc)
}

func dataBatch(kvs int) transport.Message {
	b := transport.GetBatch(kvs)
	for i := 0; i < kvs; i++ {
		b = append(b, transport.KV{K: int64(i), V: float64(i)})
	}
	return transport.Message{Kind: transport.Data, KVs: b}
}

// chanProbe times the in-process transport's whole batch cycle:
// GetBatch → Send → Inbox → PutBatch, 256 KVs per batch.
func chanProbe(out layers) error {
	const kvs, batches = 256, 1000
	net := transport.NewChannelNetwork(2, 4096)
	defer net.Close()
	from, to := net.Conn(0), net.Conn(1)
	var err error
	out["transport.chan_ns_per_kv"] = repeat(func() float64 {
		t0 := time.Now()
		for i := 0; i < batches && err == nil; i++ {
			err = from.Send(1, dataBatch(kvs))
			if err == nil {
				m := <-to.Inbox()
				transport.PutBatch(m.KVs)
			}
		}
		return float64(time.Since(t0)) / (kvs * batches)
	})
	return err
}

// tcpProbe times the TCP transport on a loopback cluster wired as an
// op wires it: the wiring and Close, a stream of 256-KV batches (cost
// and wire bytes per KV) and a stream of 8-KV batches (cost per small
// message, where framing and the send path dominate).
func tcpProbe(tr *tracer, out layers) error {
	const bigKVs, bigBatches, smallKVs, smallBatches = 256, 300, 8, 2000
	var wire, perKV, perMsg, bytesPerKV []float64
	for rep := 0; rep < 5; rep++ {
		sp := tr.begin("probe.tcp.wire", -1, 0)
		t0 := time.Now()
		eps, err := wireTCP(2)
		wired := msSince(t0)
		tr.end(sp)
		if err != nil {
			return err
		}
		reg := metrics.NewRegistry()
		eps[0].SetMetrics(reg)

		// The receiver reports each time it has taken in another phase's
		// KVs; it ends when Close closes the inbox.
		phases := []int{smallKVs, bigKVs * bigBatches, smallKVs * smallBatches}
		reached := make(chan struct{}, len(phases))
		go func() {
			got, phase := 0, 0
			for m := range eps[1].Inbox() {
				got += len(m.KVs)
				transport.PutBatch(m.KVs)
				if phase < len(phases) && got == phases[phase] {
					got, phase = 0, phase+1
					reached <- struct{}{}
				}
			}
		}()
		stream := func(kvs, batches int) (time.Duration, error) {
			t0 := time.Now()
			for i := 0; i < batches; i++ {
				if err := eps[0].Send(1, dataBatch(kvs)); err != nil {
					return 0, err
				}
			}
			<-reached
			return time.Since(t0), nil
		}
		_, err = stream(smallKVs, 1) // dials the link
		var big, small time.Duration
		var sent uint64
		if err == nil {
			before := reg.Snapshot().Counter("tcp.peer1.bytes")
			big, err = stream(bigKVs, bigBatches)
			sent = reg.Snapshot().Counter("tcp.peer1.bytes") - before
		}
		if err == nil {
			small, err = stream(smallKVs, smallBatches)
		}
		sp = tr.begin("probe.tcp.close", -1, 0)
		t0 = time.Now()
		closeTCP(eps)
		wire = append(wire, wired+msSince(t0))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("tcp probe: %w", err)
		}
		perKV = append(perKV, float64(big)/(bigKVs*bigBatches))
		bytesPerKV = append(bytesPerKV, float64(sent)/(bigKVs*bigBatches))
		perMsg = append(perMsg, float64(small)/1e3/smallBatches)
	}
	out["transport.tcp_wire_ms"] = median(wire)
	out["transport.tcp_ns_per_kv"] = median(perKV)
	out["transport.tcp_bytes_per_kv"] = median(bytesPerKV)
	out["transport.tcp_small_msg_us"] = median(perMsg)
	return nil
}

// sessionProbe opens a session for SSSP on the workload's own edge list
// and times the three kinds of Apply apart — insert-only, delete-only
// and empty (the CSR rebuild and Park/EpochStart fence every Apply
// pays) — k of each with batch edges per batch. It returns the engine
// counters of the insert Applys.
func sessionProbe(tr *tracer, tsv string, n, batch, k int, seed int64, out layers) (*engineCounters, error) {
	p, err := buildPipeline(nil, -1, tsv, progs.SSSP, n, true)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("probe.runtime.Open", -1, 0)
	t0 := time.Now()
	sess, err := prt.Open(p.plan, engineConfig(prt.MRASyncAsync))
	out["runtime.open_ms"] = msSince(t0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	g := newChurnGen(n, p.g.Edges(), seed)
	var eng engineCounters
	var last *prt.Result
	apply := func(name string, deletes, inserts int) (float64, error) {
		var ms []float64
		for i := 0; i < k; i++ {
			mut := g.next(deletes, inserts)
			sp := tr.begin(name, -1, 0)
			t0 := time.Now()
			res, err := sess.Apply(mut)
			ms = append(ms, msSince(t0))
			tr.end(sp)
			if err := runVerdict(res, err, nil, 0); err != nil {
				return 0, fmt.Errorf("session probe: %w", err)
			}
			if inserts > 0 {
				eng.add(res, true)
			}
			last = res
		}
		return median(ms), nil
	}
	counter := func(name string) float64 { return float64(last.Master.Counter(name)) }

	last = sess.Result()
	reseeded := counter("delta.reseed.keys")
	if out["runtime.apply_insert_ms_p50"], err = apply("probe.Apply.insert", 0, batch); err == nil {
		out["runtime.reseed_keys"] = (counter("delta.reseed.keys") - reseeded) / float64(k)
		invalidated := counter("delete.invalidate.keys")
		out["runtime.apply_delete_ms_p50"], err = apply("probe.Apply.delete", batch, 0)
		out["runtime.invalidate_keys"] = (counter("delete.invalidate.keys") - invalidated) / float64(k)
	}
	if err == nil {
		out["runtime.apply_empty_ms_p50"], err = apply("probe.Apply.empty", 0, 0)
	}
	if err == nil {
		var want []float64
		if want, err = g.oracle(); err == nil {
			err = checkValues(last.Values, want, 1e-9)
		}
		if err != nil {
			err = fmt.Errorf("session probe: %w", err)
		}
	}
	sp = tr.begin("probe.Session.Close", -1, 0)
	t0 = time.Now()
	cerr := sess.Close()
	out["runtime.close_ms"] = msSince(t0)
	tr.end(sp)
	if err == nil {
		err = cerr
	}
	return &eng, err
}
