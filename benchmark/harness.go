package main

import (
	"time"

	"powerlog/internal/metrics"
	prt "powerlog/internal/runtime"
)

// runner is one workload. The harness drives every workload through
// the same phases: generate (untimed) → setup ×k (timed) → warmup →
// measure → verify → teardown.
type runner interface {
	// generate writes the workload's inputs under dir as a pure
	// function of seed; the engine later sees only those inputs.
	generate(dir string, seed int64) error
	// setup is one fresh set-up, from the files on disk to a system
	// ready to take ops. Its stages record spans under parent.
	setup(tr *tracer, parent int) error
	// teardown releases what the last setup built.
	teardown() error
	// warmup computes the oracle and runs the untimed, unrecorded ops.
	warmup() error
	// measure runs timed ops for at least d and at least minOps ops,
	// judging each against the oracle.
	measure(d time.Duration, minOps int, tr *tracer, m *measurement) error
	// verify is the end-of-run oracle check.
	verify() error
	// pipe is the pipeline the last setup built; the layer probes run
	// over its graph and plan.
	pipe() *pipeline
}

// measurement is what one timed section yields.
type measurement struct {
	ops    opLog // the workload's op
	writes opLog // serve-read-write's mutate stream; empty elsewhere
	eng    engineCounters
	// oracleAlloc is what oracle checks inside the timed section
	// allocated, so alloc_mb_per_op can leave it out.
	oracleAlloc uint64
	elapsed     time.Duration
}

// timedLoop calls op until d has elapsed and minOps ops have run.
func timedLoop(d time.Duration, minOps int, m *measurement, op func()) {
	start := time.Now()
	for i := 0; time.Since(start) < d || i < minOps; i++ {
		op()
	}
	m.elapsed += time.Since(start)
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

// engineCounters collects what runtime.Result publishes about each op:
// the per-layer runtime.* metrics are medians and ratios over these.
type engineCounters struct {
	rounds, kvs, flushes, passes, seconds, skew []float64
	collectWait                                 metrics.HistSnapshot
	// A session's WorkerStats are cumulative across epochs; prev holds
	// the last epoch's so each op contributes its own share.
	prevSent, prevPasses []int64
}

// add records one fixpoint. session says res came from Session.Apply
// (cumulative worker counters and master histogram) rather than Run.
func (c *engineCounters) add(res *prt.Result, session bool) {
	if !session || len(c.prevSent) != len(res.Workers) {
		c.prevSent = make([]int64, len(res.Workers))
		c.prevPasses = make([]int64, len(res.Workers))
	}
	var passes, total, most int64
	for i, ws := range res.Workers {
		sent := ws.Sent - c.prevSent[i]
		passes += ws.Passes - c.prevPasses[i]
		total += sent
		most = max(most, sent)
		if session {
			c.prevSent[i], c.prevPasses[i] = ws.Sent, ws.Passes
		}
	}
	c.addCounts(float64(res.Rounds), float64(res.MessagesSent), float64(res.Flushes),
		res.Elapsed.Seconds(), total, most, len(res.Workers))
	c.passes = append(c.passes, float64(passes))
	wait := res.Master.Histograms["master.collect.wait_us"]
	if session {
		c.collectWait = wait
	} else {
		c.collectWait = c.collectWait.Merge(wait)
	}
}

// addCounts records the counters that are also visible on a transport
// connection; most and total are KVs sent by the busiest worker and by
// all of them.
func (c *engineCounters) addCounts(rounds, kvs, flushes, seconds float64, total, most int64, workers int) {
	c.rounds = append(c.rounds, rounds)
	c.kvs = append(c.kvs, kvs)
	c.flushes = append(c.flushes, flushes)
	c.seconds = append(c.seconds, seconds)
	skew := 1.0
	if total > 0 {
		skew = float64(most) * float64(workers) / float64(total)
	}
	c.skew = append(c.skew, skew)
}

// layers derives the runtime.* metrics: medians over the ops, and
// ratios of their sums.
func (c *engineCounters) layers(out layers) {
	out["runtime.rounds"] = median(c.rounds)
	out["runtime.kvs_sent"] = median(c.kvs)
	out["runtime.flushes"] = median(c.flushes)
	out["runtime.kvs_per_flush"] = ratio(sum(c.kvs), sum(c.flushes))
	out["runtime.passes"] = median(c.passes)
	out["runtime.kvs_per_s"] = ratio(sum(c.kvs), sum(c.seconds))
	out["runtime.master_collect_wait_us_mean"] = c.collectWait.Mean()
	out["runtime.worker_kvs_skew"] = median(c.skew)
}
