package bench

import (
	"fmt"
	"io"

	"powerlog/internal/gen"
	"powerlog/internal/metrics"
	"powerlog/internal/runtime"
)

// PolicyMetrics runs the six-mode observability table (DESIGN.md §8): for
// one selective workload (SSSP, whose plan draws the bucket schedule) and
// one combining workload (PageRank with the §5.4 priority threshold, which
// exercises hold/release and the adaptive β dial), every mode runs once
// and its merged per-policy counters are printed next to the wall time.
// The point of the table is correlation: which policy activity a mode pays
// for, and what it buys — e.g. keys the buckets held against SSSP wall
// time, or β band exits against realised flush sizes.
func PolicyMetrics(w io.Writer, cfg RunConfig) ([]Measurement, error) {
	dsName := "LiveJ"
	ds, err := gen.DatasetByName(dsName)
	if err != nil {
		return nil, err
	}
	if cfg.Smoke {
		ds = gen.TinyDatasets()[0]
		dsName = ds.Name
	}
	fmt.Fprintf(w, "PolicyMetrics: per-policy counters across the six modes (%s)\n", dsName)

	modes := []runtime.Mode{runtime.NaiveSync, runtime.MRASync, runtime.MRAAsync,
		runtime.MRAAAP, runtime.MRASyncAsync, runtime.MRASSP}
	var out []Measurement
	for _, spec := range []struct {
		algo      string
		threshold float64
	}{{"SSSP", cfg.PriorityThreshold}, {"PageRank", 1e-7}} {
		wl, err := Prepare(spec.algo, ds)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "  %s:\n", spec.algo)
		fmt.Fprintf(w, "    %-16s %9s %7s %13s %8s %15s %11s %15s %7s %5s\n",
			"mode", "wall", "rounds", "hold/rel", "bkt held", "flush p50/p99", "β exit/clmp", "straggler(µs)", "resend", "dup")
		for _, mode := range modes {
			c := cfg
			c.PriorityThreshold = spec.threshold
			m, err := RunMode(wl, mode, c)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
			fmt.Fprintf(w, "    %-16s %8.3fs %7d %s\n", m.Series, m.Seconds, m.Rounds, policyRow(m.Metrics))
		}
	}
	if err := sessionCounters(w, ds, cfg); err != nil {
		return nil, err
	}
	return out, nil
}

// sessionCounters prints the engine-lifecycle counters (DESIGN.md §10):
// one session per session-capable mode runs an SSSP fixpoint and applies
// a single small mixed mutation batch, and the master's merged registry
// shows how many fixpoints the session converged ("engine.epoch"), how
// many keys the Apply reseeded ("delta.reseed.keys"), and how many the
// deletes' support closure erased ("delete.invalidate.keys").
func sessionCounters(w io.Writer, ds gen.Dataset, cfg RunConfig) error {
	base := ds.Build(true)
	fmt.Fprintf(w, "  Session (SSSP, one mixed 1%% batch):\n")
	fmt.Fprintf(w, "    %-16s %12s %17s %21s\n", "mode", "engine.epoch", "delta.reseed.keys", "delete.invalidate.keys")
	stream, _, err := gen.ChurnStream(base, "mixed", 0.01, 1, ds.Seed)
	if err != nil {
		return err
	}
	for _, mode := range sessionModes {
		rc, err := cfg.engineConfig(mode)
		if err != nil {
			return err
		}
		plan, err := churnPlan("SSSP", base.NumVertices(), base.Edges(), true)
		if err != nil {
			return err
		}
		s, err := runtime.Open(plan, rc)
		if err != nil {
			return err
		}
		res, err := s.Apply(runtime.Mutation{Inserts: stream[0].Inserts, Deletes: stream[0].Deletes})
		if err != nil {
			s.Close()
			return err
		}
		if err := s.Close(); err != nil {
			return err
		}
		c := res.Master.Counters
		fmt.Fprintf(w, "    %-16s %12d %17d %21d\n",
			mode, c["engine.epoch"], c["delta.reseed.keys"], c["delete.invalidate.keys"])
	}
	return nil
}

// policyRow renders one mode's merged counters in the table's column
// order. Counters a mode never registers print as zeros — the absence is
// itself the signal (e.g. no β activity outside the unified mode).
func policyRow(s metrics.Snapshot) string {
	flush := s.MergeHistograms("flush.size.dst")
	straggler := s.Histograms["barrier.straggler.wait_us"]
	return fmt.Sprintf("%6d/%-6d %8d %7.0f/%-7.0f %5d/%-5d %7.0f/%-7.0f %7d %5d",
		s.Counter("sched.hold"), s.Counter("sched.release"),
		s.Counter("sched.bucket.held"),
		flush.Quantile(0.5), flush.Quantile(0.99),
		s.Counter("flush.beta.band.exit"),
		s.Counter("flush.beta.clamp.floor")+s.Counter("flush.beta.clamp.ceil"),
		straggler.Quantile(0.5), straggler.Quantile(0.99),
		s.Counter("barrier.marker.resend"), s.Counter("recv.dup.batch"))
}
