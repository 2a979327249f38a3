package runtime

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"powerlog/internal/ckpt"
	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/progs"
	"powerlog/internal/ref"
	"powerlog/internal/transport"
)

// TestCheckpointRestoreEquivalence simulates a crash: run MRASync with
// periodic snapshots, then resume purely from the snapshot directory (no
// ΔX¹ reseeding) and check the final result matches a clean run and the
// Dijkstra oracle.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	g := gen.Uniform(400, 2400, 50, 77)
	want := ref.Dijkstra(g, 0)
	dir := t.TempDir()

	db := edb.NewDB()
	db.SetGraph("edge", g)
	plan := compilePlan(t, progs.SSSP, db)

	// Phase 1: run with snapshots every superstep; the last snapshot is a
	// mid-run consistent cut unless the run converged exactly at one.
	res1, err := Run(plan, Config{
		Workers:       3,
		Mode:          MRASync,
		SnapshotDir:   dir,
		SnapshotEvery: 1,
		MaxWall:       30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Converged {
		t.Fatal("phase 1 did not converge")
	}
	// Epoch-stamped shards, pruned to the newest two epochs per worker.
	shards, _ := filepath.Glob(filepath.Join(dir, "ep*-shard-*.plck"))
	if len(shards) != 6 {
		t.Fatalf("expected 2 epochs x 3 shard snapshots, got %v", shards)
	}

	// Phase 2: "crash" and resume from the snapshots with a different
	// worker count (repartitioning on restore).
	res2, err := Run(plan, Config{
		Workers:    5,
		Mode:       MRASync,
		RestoreDir: dir,
		MaxWall:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Converged {
		t.Fatal("restored run did not converge")
	}
	expectClose(t, MRASync, res2.Values, want, math.Inf(1), 1e-9)
	// And identical to the uninterrupted result.
	if len(res1.Values) != len(res2.Values) {
		t.Fatalf("result sizes differ: %d vs %d", len(res1.Values), len(res2.Values))
	}
	for k, v := range res1.Values {
		if res2.Values[k] != v {
			t.Fatalf("key %d: %v vs %v", k, res2.Values[k], v)
		}
	}
}

// TestMidRunSnapshotResume takes a snapshot from a deliberately truncated
// run (round cap) and verifies resuming completes the computation.
func TestMidRunSnapshotResume(t *testing.T) {
	g := gen.Chain(500, 100, 50, 79) // high diameter: needs many rounds
	want := ref.Dijkstra(g, 0)
	dir := t.TempDir()

	db := edb.NewDB()
	db.SetGraph("edge", g)
	plan := compilePlan(t, progs.SSSP, db)
	plan.Termination.MaxIters = 10 // force a "crash" after 10 supersteps

	res, err := Run(plan, Config{
		Workers:       2,
		Mode:          MRASync,
		SnapshotDir:   dir,
		SnapshotEvery: 2,
		MaxWall:       30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Skip("graph converged before the forced crash; nothing to resume")
	}

	plan.Termination.MaxIters = 10000
	res2, err := Run(plan, Config{
		Workers:    2,
		Mode:       MRASync,
		RestoreDir: dir,
		MaxWall:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Converged {
		t.Fatal("resumed run did not converge")
	}
	expectClose(t, MRASync, res2.Values, want, math.Inf(1), 1e-9)
}

func TestRestoreMissingDirFails(t *testing.T) {
	g := gen.Uniform(50, 200, 10, 81)
	db := edb.NewDB()
	db.SetGraph("edge", g)
	plan := compilePlan(t, progs.SSSP, db)
	_, err := Run(plan, Config{Workers: 2, Mode: MRASync, RestoreDir: t.TempDir()})
	if err == nil {
		t.Fatal("restore from empty dir should fail")
	}
}

func TestSnapshotRowsCaptureIntermediates(t *testing.T) {
	// Direct check that RangeRows + SaveShard capture pending deltas.
	g := gen.Uniform(50, 200, 10, 83)
	db := edb.NewDB()
	db.SetGraph("edge", g)
	plan := compilePlan(t, progs.SSSP, db)
	w := newWorker(0, Config{Workers: 1}.withDefaults(), plan, noopConn{})
	defer func() {
		close(w.out)
		<-w.commDone
	}()
	w.table.FoldDelta(3, 7) // pending, undrained
	_, _ = w.table.Drain(5) // no-op
	w.table.FoldAcc(5, 2.5)
	dir := t.TempDir()
	w.cfg.SnapshotDir = dir
	if err := w.snapshot(1, false); err != nil {
		t.Fatal(err)
	}
	rows, meta, err := ckpt.LoadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Epoch != 1 {
		t.Fatalf("meta round trip: %+v", meta)
	}
	byKey := map[int64]ckpt.Row{}
	for _, r := range rows {
		byKey[r.Key] = r
	}
	if byKey[3].Inter != 7 {
		t.Errorf("pending intermediate lost: %+v", byKey[3])
	}
	if byKey[5].Acc != 2.5 {
		t.Errorf("accumulation lost: %+v", byKey[5])
	}
}

// noopConn satisfies transport.Conn for worker unit tests.
type noopConn struct{}

func (noopConn) ID() int                           { return 0 }
func (noopConn) Workers() int                      { return 1 }
func (noopConn) Send(int, transport.Message) error { return nil }
func (noopConn) Inbox() <-chan transport.Message   { return nil }
func (noopConn) Close() error                      { return nil }
