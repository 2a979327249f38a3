package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"powerlog/internal/runtime"
)

// crashRestart is restart-the-world: the whole fleet is aborted at master
// round 6 with a checkpoint per round, then a second run re-reaches the
// fixpoint from the first one's snapshots.
func crashRestart(wl *Workload, mode runtime.Mode, cfg RunConfig) (crashed, restored Measurement, err error) {
	dir, err := os.MkdirTemp("", "plbench-restart-*")
	if err != nil {
		return crashed, restored, err
	}
	defer os.RemoveAll(dir)
	crashCfg := cfg
	crashCfg.SnapshotDir = dir
	crashCfg.SnapshotEvery = 1
	crashCfg.Faults = "seed=7,crash=6"
	if crashed, err = RunMode(wl, mode, crashCfg); err != nil {
		return crashed, restored, err
	}
	crashed.Series = mode.String() + "/crashed"
	cfg.RestoreDir = dir
	restored, err = RunMode(wl, mode, cfg)
	return crashed, restored, err
}

// crashCells is the cell loop of the crash drills: SSSP (selective) and
// PageRank (combining) on LiveJ under each mode, a clean baseline run, then
// the drill, which returns its runs after printing the cell's row.
func crashCells(cfg RunConfig, modes []runtime.Mode, drill func(wl *Workload, mode runtime.Mode, clean Measurement) ([]Measurement, error)) ([]Measurement, error) {
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
		for _, mode := range modes {
			clean, err := RunMode(wl, mode, cfg)
			if err != nil {
				return nil, err
			}
			clean.Series = mode.String() + "/clean"
			ms, err := drill(wl, mode, clean)
			if err != nil {
				return nil, err
			}
			out = append(append(out, clean), ms...)
		}
	}
	return out, nil
}

// Recovery measures crash recovery: for one selective workload (SSSP)
// and one combining workload (PageRank), both restored exactly from the
// newest consistent cut (a BSP superstep's, or an async/SSP snapshot
// episode's), each mode runs three times: clean, crashed mid-run with
// checkpointing on, and restarted from the crashed run's snapshot
// directory. The headline number is the time-to-refixpoint: the
// restart's wall time relative to the clean run.
func Recovery(w io.Writer, cfg RunConfig) ([]Measurement, error) {
	modes := []runtime.Mode{runtime.MRASync, runtime.MRASyncAsync, runtime.MRASSP}
	return crashCells(cfg, modes, func(wl *Workload, mode runtime.Mode, clean Measurement) ([]Measurement, error) {
		crashed, restored, err := crashRestart(wl, mode, cfg)
		if err != nil {
			return nil, err
		}
		restored.Series = mode.String() + "/restored"
		fmt.Fprintf(w, "  %-9s %-6s %-14s clean=%7.3fs  crashed@round=%-3d  refixpoint=%7.3fs (%.2fx clean, converged=%v)\n",
			wl.Algo, wl.Dataset.Name, mode, clean.Seconds, crashed.Rounds,
			restored.Seconds, restored.Seconds/clean.Seconds, restored.Converged)
		return []Measurement{crashed, restored}, nil
	})
}

// Rejoin measures crash re-join (DESIGN.md §11): a worker crashed
// silently mid-fixpoint is detected by the liveness probe, replaced on a
// reset endpoint, and re-joined through a membership fence. For one
// selective workload (SSSP — survivors keep their state and replay,
// Theorem 3) and one combining workload (PageRank — every shard reset to
// the ΔX¹ seed) each non-barriered mode runs four times:
//
//	clean     no faults, the baseline wall time
//	livejoin  crashw fault, live re-join; the fence latency (the
//	          master's decision to Release) is the time-to-recover, and
//	          the wall time relative to clean is the throughput dip
//	crashed   master-abort fault with checkpoints on
//	restart   restore the crashed run's newest cut; its wall time
//	          is what restart-the-world pays to re-reach the fixpoint
//
// The headline comparison is time-to-recover: the live fence (ms) versus
// the restart re-fixpoint (s).
func Rejoin(w io.Writer, cfg RunConfig) ([]Measurement, error) {
	// A crashed worker should be declared lost in milliseconds, not at the
	// MaxWall fallback.
	if cfg.CollectTimeout <= 0 {
		cfg.CollectTimeout = 250 * time.Millisecond
	}
	// Only the non-barriered MRA family has live re-join; a BSP worker
	// joins no fence inside a superstep, so BSP aborts on loss.
	modes := []runtime.Mode{runtime.MRAAsync, runtime.MRASyncAsync, runtime.MRASSP}
	return crashCells(cfg, modes, func(wl *Workload, mode runtime.Mode, clean Measurement) ([]Measurement, error) {
		// Live re-join: the worker dies without a Stop handshake.
		// Checkpoints stay OFF here (re-join reads none): a combining
		// fleet resets to the ΔX¹ seed inside the fence, and a
		// selective fleet repairs by survivor replay alone. Leaving
		// episodic checkpoints on would charge the live run a
		// stop-the-world cut per master round, which is the restart
		// baseline's cost model, not this one's.
		liveCfg := cfg
		liveCfg.Faults = "seed=9,crashw=1:6"
		live, err := RunMode(wl, mode, liveCfg)
		if err != nil {
			return nil, err
		}
		live.Series = mode.String() + "/livejoin"
		joins := live.Metrics.Counter("master.member.join")
		fence := live.Metrics.Histograms["master.fence.member_us"]

		crashed, restart, err := crashRestart(wl, mode, cfg)
		if err != nil {
			return nil, err
		}
		restart.Series = mode.String() + "/restart"

		note := ""
		if joins == 0 {
			note = "  [converged before the injected crash]"
		}
		fmt.Fprintf(w, "  %-9s %-14s clean=%7.3fs  live=%7.3fs (dip=%.2fx, joins=%d, fence=%.1fms)  restart=%7.3fs (%.2fx clean)%s\n",
			wl.Algo, mode, clean.Seconds, live.Seconds, live.Seconds/clean.Seconds,
			joins, float64(fence.Sum)/1e3, restart.Seconds, restart.Seconds/clean.Seconds, note)
		return []Measurement{live, crashed, restart}, nil
	})
}
