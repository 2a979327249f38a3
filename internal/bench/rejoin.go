package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"powerlog/internal/ckpt"
	"powerlog/internal/runtime"
)

// crashRestart is restart-the-world: the whole fleet is aborted at master
// round `crash` with a cut every `every` rounds, then a second run
// re-reaches the fixpoint from the crashed run's newest cut, or from
// scratch when it completed none. cut is the restored cut's number (a
// superstep or snapshot episode), 0 for a start from scratch.
func crashRestart(wl *Workload, mode runtime.Mode, cfg RunConfig, crash, every int) (crashed, restored Measurement, cut int, err error) {
	dir, err := os.MkdirTemp("", "plbench-restart-*")
	if err != nil {
		return crashed, restored, 0, err
	}
	defer os.RemoveAll(dir)
	crashCfg := cfg
	crashCfg.SnapshotDir, crashCfg.SnapshotEvery = dir, every
	crashCfg.Faults = fmt.Sprintf("seed=7,crash=%d", crash)
	if crashed, err = RunMode(wl, mode, crashCfg); err != nil {
		return crashed, restored, 0, err
	}
	crashed.Series = mode.String() + "/crashed"
	if _, meta, err := ckpt.LoadAll(dir); err == nil {
		cfg.RestoreDir, cut = dir, meta.Epoch
	}
	restored, err = RunMode(wl, mode, cfg)
	return crashed, restored, cut, err
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

// Recovery weighs crash recovery against its price. For one selective
// workload (SSSP) and one combining workload (PageRank), both restored
// exactly from the newest consistent cut (a BSP superstep's, or an
// async/SSP snapshot episode's), each mode runs clean, then per cut
// period (every round, every tenth) once clean with checkpoints on — its
// wall over the clean run's is what the episodes cost — and crashed at
// 50 % and 90 % of that run's rounds (an async wave under episodes is
// longer, so it takes fewer), each crash restarted from its newest cut.
// The headline numbers are that overhead and each restart's
// time-to-refixpoint relative to the clean run.
func Recovery(w io.Writer, cfg RunConfig) ([]Measurement, error) {
	modes := []runtime.Mode{runtime.MRASync, runtime.MRASyncAsync, runtime.MRASSP}
	return crashCells(cfg, modes, func(wl *Workload, mode runtime.Mode, clean Measurement) ([]Measurement, error) {
		var out []Measurement
		for _, every := range []int{1, 10} {
			series := fmt.Sprintf("%v/every%d", mode, every)
			dir, err := os.MkdirTemp("", "plbench-ckpt-*")
			if err != nil {
				return nil, err
			}
			paidCfg := cfg
			paidCfg.SnapshotDir, paidCfg.SnapshotEvery = dir, every
			paid, err := RunMode(wl, mode, paidCfg)
			os.RemoveAll(dir)
			if err != nil {
				return nil, err
			}
			paid.Series = series + "/checkpointed"
			out = append(out, paid)
			row := fmt.Sprintf("  %-9s %-14s every=%-2d clean=%7.3fs  episodes=%.2fx clean",
				wl.Algo, mode, every, clean.Seconds, paid.Seconds/clean.Seconds)
			for _, pct := range []int{50, 90} {
				at := max(1, paid.Rounds*pct/100)
				crashed, restored, cut, err := crashRestart(wl, mode, cfg, at, every)
				if err != nil {
					return nil, err
				}
				crashed.Series = fmt.Sprintf("%s/%d%%/crashed", series, pct)
				restored.Series = fmt.Sprintf("%s/%d%%/restored", series, pct)
				out = append(out, crashed, restored)
				row += fmt.Sprintf("  crash@%d%%=r%d cut=%d refixpoint=%.3fs (%.2fx)",
					pct, at, cut, restored.Seconds, restored.Seconds/clean.Seconds)
			}
			fmt.Fprintln(w, row)
		}
		return out, nil
	})
}

// Rejoin measures crash re-join (DESIGN.md §11): a worker crashed
// silently mid-fixpoint is found by the master's liveness rule, replaced
// on a reset endpoint, and re-joined through a membership fence — in
// every mode, the barriered ones resuming under a fresh barrier. For one
// selective workload (SSSP — survivors keep their state and replay,
// Theorem 3) and one combining workload (PageRank — every shard reset to
// the ΔX¹ seed; naive evaluation starts over from its base tuples) each
// mode runs four times:
//
//	clean     no faults, the baseline wall time
//	livejoin  crashw fault, live re-join; the fence latency (the
//	          master's decision to Release) is the time-to-recover, and
//	          the wall time relative to clean is the throughput dip
//	crashed   master-abort fault with checkpoints on
//	restart   restore the crashed run's newest cut; its wall time
//	          is what restart-the-world pays to re-reach the fixpoint
//	          (naive evaluation writes no checkpoint: it starts over)
//
// The headline comparison is time-to-recover: the live fence (ms) versus
// the restart re-fixpoint (s).
func Rejoin(w io.Writer, cfg RunConfig) ([]Measurement, error) {
	// A crashed worker should be declared lost in milliseconds, not at the
	// MaxWall fallback.
	if cfg.CollectTimeout <= 0 {
		cfg.CollectTimeout = 250 * time.Millisecond
	}
	return crashCells(cfg, everyMode, func(wl *Workload, mode runtime.Mode, clean Measurement) ([]Measurement, error) {
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

		crashed, restart, _, err := crashRestart(wl, mode, cfg, 6, 1)
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
