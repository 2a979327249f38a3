package runtime

import (
	"powerlog/internal/compiler"
	"powerlog/internal/monotable"
)

// The MRA compute pass (paper Figure 7, DESIGN.md §9): drain the dirty
// keys in the Scheduler's order, fold each delta into its accumulation,
// propagate improvements through F'. There is one body, worker.scanPass,
// and it runs on the worker's compute goroutine — the paper's one compute
// thread per worker (§5.3), and the shard's only accessor while it runs.
// The unit of propagation is a CSR row: the plan's kernel opens the
// drained key's row, and the row's values fold straight into their
// owners' columns (worker.sinkOwned) — or, on a Sparse shard, the kernel
// fills in what F' yields along a chunk of the row's edges and each goes
// through worker.emit.
//
// The hot path is allocation-free: the drain slice, the kernel scratch
// and the pre-bound drain callbacks are the worker's and reused. Each
// fold's Σacc and |change| land in the worker totals as it is made, so a
// stats poll answered from inside the pass (a flush pumps the inbox)
// reads every fold made before it.

// scanPass is the MRA modes' compute pass (policySet.pass): drain the
// dirty keys into a snapshot, then fold each and propagate its row. It
// returns how many rows propagated. On a Dense shard — vertex keys strided
// by the static modulo partition (worker.newTable), whose slots
// monotable.Route.Split resolves — it drains, folds and sinks by slot.
func (w *worker) scanPass() int {
	dense, _ := w.table.(*monotable.Dense)
	w.drainBuf = w.drainBuf[:0]
	if dense != nil {
		dense.DrainOwned(w.takeFn)
		w.sink.Cols[w.id] = &dense.Column // the table is replaced on a rollback
	} else {
		w.table.ScanDirty(w.drainFn)
	}
	out := w.drainBuf
	// What the schedule holds back — §5.4's small combining deltas, a
	// bucket schedule's far keys — is refolded: the rows are dirty again
	// and wait for a later pass.
	run := out[:w.pol.sched.arrange(out)]
	for _, d := range out[len(run):] {
		w.table.FoldDelta(d.key, d.val)
	}
	n := 0
	for _, d := range run {
		var improved bool
		var change, signed float64
		if dense != nil {
			slot, _ := w.sink.Route.Split(int32(d.key))
			improved, change, signed = dense.FoldAccOwned(slot, d.val)
		} else {
			improved, change, signed = w.table.FoldAcc(d.key, d.val)
		}
		w.accFolds++
		w.accDelta += change
		w.accSum += signed
		if !w.shouldPropagate(improved, d.val) {
			continue
		}
		n++
		r := w.plan.Kernel.Row(w.scratch, d.key, d.val)
		if dense != nil && r.Form != monotable.Given {
			w.sinkOwned(r.Form, r.S, r.Targets, r.Weights)
			continue
		}
		for lo := 0; lo < len(r.Targets); lo += compiler.FillChunk {
			vals := w.plan.Kernel.Fill(w.scratch, r, lo)
			targets := r.Targets[lo : lo+len(vals)]
			if dense != nil {
				w.sinkOwned(monotable.Given, 0, targets, vals)
				continue
			}
			for i, t := range targets {
				w.emit(r.Hi|int64(t), vals[i])
			}
		}
	}
	return n
}

// sinkOwned folds a row — or a Fill chunk of one, whose values are given
// — in a pass over a Dense shard. Local and remote take the same steps
// (monotable.Sink.Fold): the route splits the key into its owner and its
// slot there, without a divide, and the value folds into the owner's
// column at that slot — the shard's own Intermediate, or the mirror that
// buffers for a peer (outBuf). A mirror whose newly staged slot brought it
// to the buffer's limit, or that was handed an urgent value, is flushed
// where the fold stops for it: the FlushPolicy's decision as worker.buffer
// takes it, asked when the count moves (the shard's own column stages
// nothing, and flushing buffer w.id sends nothing).
func (w *worker) sinkOwned(f monotable.Form, x float64, targets []int32, per []float64) {
	for i, o := 0, 0; i < len(targets); {
		if i, o = w.sink.Fold(f, x, targets, per, i); o >= 0 {
			w.flush(o)
		}
	}
}
