package runtime

import (
	"errors"
	"math"
	"path/filepath"
	"testing"
	"time"

	"powerlog/internal/ckpt"
	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/progs"
	"powerlog/internal/ref"
)

// TestCheckpointRestoreEquivalence simulates a crash: a session writes a
// park cut at each of two Applys, then a fleet of another size resumes
// purely from the directory (no ΔX¹ reseeding) and must match the
// session's result and the Dijkstra oracle on the mutated graph.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	g := gen.Uniform(400, 2400, 50, 77)
	n := g.NumVertices()
	dir := t.TempDir()
	muts := []Mutation{
		{Inserts: []graph.Edge{{Src: 0, Dst: 399, W: 0.5}}},
		{Inserts: []graph.Edge{{Src: 399, Dst: 200, W: 0.25}}},
	}
	edges := append([]graph.Edge(nil), g.Edges()...)
	db := edb.NewDB()
	db.SetGraph("edge", g)
	cfg := Config{Workers: 3, Mode: MRASync, CheckpointDir: dir, MaxWall: 30 * time.Second}
	s, err := Open(compilePlan(t, progs.SSSP, db), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res1 *Result
	for _, mut := range muts {
		if res1, err = s.Apply(mut); err != nil {
			t.Fatal(err)
		}
		edges = append(edges, mut.Inserts...)
	}
	s.Close()
	if !res1.Converged {
		t.Fatal("the session did not converge")
	}
	// MutEpoch-stamped shards, pruned to the newest two cuts per worker.
	shards, _ := filepath.Glob(filepath.Join(dir, "ep*-shard-*.plck"))
	if len(shards) != 6 {
		t.Fatalf("expected 2 cuts x 3 shard snapshots, got %v", shards)
	}

	// "Crash" and resume from the newest cut with a different worker
	// count (repartitioning on restore), on the graph as of that cut.
	g2, err := graph.FromEdges(n, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	db2 := edb.NewDB()
	db2.SetGraph("edge", g2)
	cfg.Workers = 5
	res2, err := Run(compilePlan(t, progs.SSSP, db2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Converged {
		t.Fatal("restored run did not converge")
	}
	expectClose(t, MRASync, res2.Values, ref.Dijkstra(g2, 0), math.Inf(1), 1e-9)
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

// TestRestoreMissingDirFails: a checkpoint directory with no shard is a
// fresh start — the run seeds ΔX¹ and reaches the oracle — while one
// whose shards make no complete cut fails the restore.
func TestRestoreMissingDirFails(t *testing.T) {
	g := gen.Uniform(50, 200, 10, 81)
	db := edb.NewDB()
	db.SetGraph("edge", g)
	plan := compilePlan(t, progs.SSSP, db)
	dir := t.TempDir()
	res, err := Run(plan, Config{Workers: 2, Mode: MRASync, CheckpointDir: dir})
	if err != nil || !res.Converged {
		t.Fatalf("run on an empty directory: %v (converged=%v)", err, res != nil && res.Converged)
	}
	expectClose(t, MRASync, res.Values, ref.Dijkstra(g, 0), math.Inf(1), 1e-9)
	// One shard of a 2-worker cut.
	if err := ckpt.SaveShard(dir, ckpt.Meta{MutEpoch: 1, Worker: 0, Workers: 2}, nil); err != nil {
		t.Fatal(err)
	}
	var miss *ckpt.MissingShardError
	if _, err := Run(plan, Config{Workers: 2, Mode: MRASync, CheckpointDir: dir}); !errors.As(err, &miss) {
		t.Fatalf("restore from a directory with no complete cut: err = %v, want a MissingShardError", err)
	}
}

// TestSnapshotRowsCaptureIntermediates: a park cut is written with the
// batch applied and its fixpoint pending, so its rows carry what the
// Apply reseeded as pending Intermediate beside the parked
// Accumulations — and a run restored from it finishes the fixpoint.
func TestSnapshotRowsCaptureIntermediates(t *testing.T) {
	g := gen.Uniform(50, 200, 10, 83)
	db := edb.NewDB()
	db.SetGraph("edge", g)
	plan := compilePlan(t, progs.SSSP, db)
	before := ref.Dijkstra(g, 0)
	far := 0
	for k, d := range before {
		if !math.IsInf(d, 1) && d > before[far] {
			far = k
		}
	}
	dir := t.TempDir()
	cfg := Config{Workers: 2, Mode: MRASync, CheckpointDir: dir, MaxWall: 30 * time.Second}
	s, err := Open(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Apply(Mutation{Inserts: []graph.Edge{{Src: 0, Dst: int32(far), W: 0.5}}})
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	rows, meta, err := ckpt.LoadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.MutEpoch != 1 || meta.Workers != 2 {
		t.Fatalf("meta round trip: %+v", meta)
	}
	byKey := map[int64]ckpt.Row{}
	for _, r := range rows {
		byKey[r.Key] = r
	}
	if r := byKey[int64(far)]; r.Inter != 0.5 || r.Acc != before[far] {
		t.Errorf("key %d: row %+v, want the parked accumulation %v and the pending 0.5", far, r, before[far])
	}
	if byKey[0].Acc != 0 {
		t.Errorf("source accumulation lost: %+v", byKey[0])
	}
	res, err := Run(plan, cfg)
	if err != nil || res.Values[int64(far)] != 0.5 {
		t.Fatalf("restored run: %v, key %d = %v, want 0.5", err, far, res.Values[int64(far)])
	}
}
