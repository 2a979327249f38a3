package runtime

import (
	"errors"
	"math"
	"os"
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
	// MutEpoch-stamped cuts, one file each, pruned to the newest two.
	cuts, _ := filepath.Glob(filepath.Join(dir, "cut-*.plck"))
	if len(cuts) != 2 {
		t.Fatalf("expected 2 cut files, got %v", cuts)
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

// TestRestoreMissingDirFails: a checkpoint directory with no cut is a
// fresh start — the run seeds ΔX¹ and reaches the oracle — while a torn
// newest cut fails the restore rather than falling back to an older one
// or to ΔX¹.
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
	// An older whole cut beside a torn newest one.
	for e := 1; e <= 2; e++ {
		if err := ckpt.Save(dir, ckpt.Meta{MutEpoch: e}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(ckpt.CutPath(dir, 2), 10); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(plan, Config{Workers: 2, Mode: MRASync, CheckpointDir: dir}); err == nil || errors.Is(err, ckpt.ErrNoCut) {
		t.Fatalf("restore from a torn newest cut: err = %v, want a checksum or truncation error", err)
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
	rows, meta, err := ckpt.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.MutEpoch != 1 {
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

// TestCutFailureCounted: a park cut that cannot be written never fails
// the Apply, but it is not silent either — the master's registry counts
// it ("session.cut.failed"), and times only the cuts that land
// ("session.cut_us"). A CheckpointDir replaced by a regular file once
// the session is open takes no cut (Open refuses one that is a file from
// the start: TestSetUpRefusesAlike).
func TestCutFailureCounted(t *testing.T) {
	g := gen.Uniform(50, 200, 10, 85)
	plan := compilePlan(t, progs.SSSP, edgeDB("edge")(g))
	for _, tc := range []struct {
		asFile         bool // the directory is a regular file by the Apply
		failed, cutsUS uint64
	}{{true, 1, 0}, {false, 0, 1}} {
		dir := filepath.Join(t.TempDir(), "ckpt")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		s, err := Open(plan, Config{Workers: 2, Mode: MRASync, CheckpointDir: dir, MaxWall: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if tc.asFile {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(dir, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Apply(Mutation{Inserts: []graph.Edge{{Src: 0, Dst: 49, W: 0.5}}})
		s.Close()
		if err != nil || !res.Converged {
			t.Fatalf("Apply with CheckpointDir %s (a file: %v): %v (converged=%v)", dir, tc.asFile, err, res != nil && res.Converged)
		}
		if got, n := res.Master.Counter("session.cut.failed"), res.Master.Histograms["session.cut_us"].Count; got != tc.failed || n != tc.cutsUS {
			t.Errorf("CheckpointDir %s (a file: %v): session.cut.failed = %d, session.cut_us count = %d; want %d, %d", dir, tc.asFile, got, n, tc.failed, tc.cutsUS)
		}
	}
}
