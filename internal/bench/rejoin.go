package bench

import (
	"fmt"
	"io"
	"time"
)

// Rejoin measures crash re-join (DESIGN.md §11): a worker crashed
// silently mid-fixpoint is found by the master's liveness rule, replaced
// on a reset endpoint, and re-joined through a membership fence — in
// every mode, the barriered ones resuming under a fresh barrier. For one
// selective workload (SSSP — survivors keep their state and replay,
// Theorem 3) and one combining workload (PageRank — every shard reset to
// the ΔX¹ seed; naive evaluation starts over from its base tuples) on
// LiveJ, each mode runs four times:
//
//	clean     no faults, the baseline wall time
//	livejoin  crashw fault, live re-join; the fence latency (the
//	          master's decision to Release) is the time-to-recover, and
//	          the wall time relative to clean is the throughput dip
//	crashed   master-abort fault at round 6
//	rerun     the fleet re-runs from scratch: nothing is durable, so
//	          restart-the-world starts over
//
// The row's restart is crashed + rerun, what restart-the-world pays to
// reach the fixpoint. The headline comparison is time-to-recover: the
// live fence (ms) versus the restart (s).
func Rejoin(w io.Writer, cfg RunConfig) ([]Measurement, error) {
	// A crashed worker should be declared lost in milliseconds, not at the
	// MaxWall fallback.
	if cfg.CollectTimeout <= 0 {
		cfg.CollectTimeout = 250 * time.Millisecond
	}
	d, err := cfg.dataset("LiveJ")
	if err != nil {
		return nil, err
	}
	var out []Measurement
	for _, algo := range twoAlgos {
		wl, err := Prepare(algo, d)
		if err != nil {
			return nil, err
		}
		for _, mode := range everyMode {
			clean, err := RunMode(wl, mode, cfg)
			if err != nil {
				return nil, err
			}
			clean.Series = mode.String() + "/clean"
			// Live re-join: the worker dies without a Stop handshake.
			liveCfg := cfg
			liveCfg.Faults = "seed=9,crashw=1:6"
			live, err := RunMode(wl, mode, liveCfg)
			if err != nil {
				return nil, err
			}
			live.Series = mode.String() + "/livejoin"
			joins := live.Metrics.Counter("master.member.join")
			fence := live.Metrics.Histograms["master.fence.member_us"]

			crashCfg := cfg
			crashCfg.Faults = "seed=7,crash=6"
			crashed, err := RunMode(wl, mode, crashCfg)
			if err != nil {
				return nil, err
			}
			crashed.Series = mode.String() + "/crashed"
			rerun, err := RunMode(wl, mode, cfg)
			if err != nil {
				return nil, err
			}
			rerun.Series = mode.String() + "/rerun"
			restart := crashed.Seconds + rerun.Seconds

			note := ""
			if joins == 0 {
				note = "  [converged before the injected crash]"
			}
			fmt.Fprintf(w, "  %-9s %-14s clean=%7.3fs  live=%7.3fs (dip=%.2fx, joins=%d, fence=%.1fms)  restart=%7.3fs (%.2fx clean)%s\n",
				wl.Algo, mode, clean.Seconds, live.Seconds, live.Seconds/clean.Seconds,
				joins, float64(fence.Sum)/1e3, restart, restart/clean.Seconds, note)
			out = append(out, clean, live, crashed, rerun)
		}
	}
	return out, nil
}
