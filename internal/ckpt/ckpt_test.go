package ckpt

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func cutMeta(mutEpoch, worker, workers int) Meta {
	return Meta{MutEpoch: mutEpoch, Worker: worker, Workers: workers}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rows := []Row{
		{Key: 0, Acc: 1.5, Inter: math.Inf(1)},
		{Key: 42, Acc: -3, Inter: 0.25},
		{Key: 1<<40 + 7, Acc: 0, Inter: 0},
	}
	meta := Meta{MutEpoch: 3, Worker: 2, Workers: 5}
	var buf bytes.Buffer
	if err := Write(&buf, meta, rows); err != nil {
		t.Fatal(err)
	}
	got, gotMeta, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta = %+v, want %+v", gotMeta, meta)
	}
	if len(got) != len(rows) {
		t.Fatalf("rows = %d", len(got))
	}
	for i := range rows {
		if got[i].Key != rows[i].Key || got[i].Acc != rows[i].Acc || got[i].Inter != rows[i].Inter {
			t.Errorf("row %d = %+v, want %+v", i, got[i], rows[i])
		}
	}
}

func TestReadEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Meta{Worker: 0, Workers: 1}, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := Read(&buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestReadDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, cutMeta(1, 0, 1), []Row{{Key: 1, Acc: 2, Inter: 3}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Flip a payload byte.
	bad := append([]byte(nil), data...)
	bad[len(bad)-10] ^= 0xff
	if _, _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("corrupted payload should fail the checksum")
	}

	// Truncate (torn write).
	if _, _, err := Read(bytes.NewReader(data[:len(data)-6])); err == nil {
		t.Error("truncated snapshot should fail")
	}

	// Bad magic: an older format differs in the version byte alone (v3
	// has a kind flag, v4 a second stamp word, and neither a reader any
	// more).
	for _, v := range []byte{3, 4} {
		bad = append([]byte(nil), data...)
		bad[len(magic)-1] = v
		if _, _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Errorf("bad magic (v%d) should fail", v)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{Key: rng.Int63(), Acc: rng.NormFloat64(), Inter: rng.NormFloat64()}
		}
		meta := Meta{MutEpoch: rng.Intn(1 << 20), Worker: rng.Intn(64), Workers: 64}
		var buf bytes.Buffer
		if err := Write(&buf, meta, rows); err != nil {
			return false
		}
		got, gotMeta, err := Read(&buf)
		if err != nil || len(got) != len(rows) || gotMeta != meta {
			return false
		}
		for i := range rows {
			if got[i] != rows[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSaveLoadShards(t *testing.T) {
	dir := t.TempDir()
	if err := SaveShard(dir, cutMeta(1, 0, 2), []Row{{Key: 0, Acc: 1, Inter: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := SaveShard(dir, cutMeta(1, 1, 2), []Row{{Key: 1, Acc: 2, Inter: 0.5}}); err != nil {
		t.Fatal(err)
	}
	all, meta, err := LoadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || meta.MutEpoch != 1 || meta.Workers != 2 {
		t.Fatalf("rows = %v meta = %+v", all, meta)
	}
	// A newer complete epoch supersedes the old one.
	if err := SaveShard(dir, cutMeta(2, 0, 2), []Row{{Key: 9, Acc: 9, Inter: 9}}); err != nil {
		t.Fatal(err)
	}
	if err := SaveShard(dir, cutMeta(2, 1, 2), []Row{{Key: 8, Acc: 8, Inter: 8}}); err != nil {
		t.Fatal(err)
	}
	all, meta, err = LoadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[int64]bool{}
	for _, r := range all {
		keys[r.Key] = true
	}
	if !keys[9] || !keys[8] || keys[0] || meta.MutEpoch != 2 {
		t.Errorf("epoch 2 not selected: rows %v meta %+v", all, meta)
	}
	// No leftover temp files.
	tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmp) != 0 {
		t.Errorf("temp files left behind: %v", tmp)
	}
}

// TestIncompleteEpochFallsBack models a crash mid-cut: worker 0
// finished cut 3, worker 1 did not. The restore must come from the
// last complete epoch, not mix epochs of a consistent cut.
func TestIncompleteEpochFallsBack(t *testing.T) {
	dir := t.TempDir()
	for _, wk := range []int{0, 1} {
		if err := SaveShard(dir, cutMeta(2, wk, 2), []Row{{Key: int64(wk), Acc: 2, Inter: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := SaveShard(dir, cutMeta(3, 0, 2), []Row{{Key: 100, Acc: 3, Inter: 0}}); err != nil {
		t.Fatal(err)
	}
	all, meta, err := LoadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.MutEpoch != 2 {
		t.Fatalf("expected fallback to cut 2, got %+v", meta)
	}
	for _, r := range all {
		if r.Key == 100 {
			t.Fatalf("row from incomplete epoch 3 leaked into restore: %v", all)
		}
	}
}

// TestCrashMidWriteLeavesPreviousReadable simulates dying partway
// through SaveShard: a stale partial temp file sits next to a complete
// previous snapshot. The previous snapshot must load untouched and the
// torn temp file must be ignored (it is not a .plck shard).
func TestCrashMidWriteLeavesPreviousReadable(t *testing.T) {
	dir := t.TempDir()
	if err := SaveShard(dir, cutMeta(1, 0, 1), []Row{{Key: 5, Acc: 5, Inter: 0}}); err != nil {
		t.Fatal(err)
	}
	// The crash: half a frame written to the temp file, never renamed.
	var buf bytes.Buffer
	if err := Write(&buf, cutMeta(2, 0, 1), []Row{{Key: 6, Acc: 6, Inter: 0}}); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()/2]
	if err := os.WriteFile(filepath.Join(dir, "shard-123.tmp"), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	all, meta, err := LoadAll(dir)
	if err != nil {
		t.Fatalf("previous snapshot unreadable after simulated crash: %v", err)
	}
	if len(all) != 1 || all[0].Key != 5 || meta.MutEpoch != 1 {
		t.Fatalf("restored wrong state: %v %+v", all, meta)
	}
}

// TestTornShardRefused: a .plck file that fails its checksum must abort
// the whole load — never be silently skipped or restored.
func TestTornShardRefused(t *testing.T) {
	dir := t.TempDir()
	for _, wk := range []int{0, 1} {
		if err := SaveShard(dir, cutMeta(1, wk, 2), []Row{{Key: int64(wk), Acc: 1, Inter: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	path := ShardPath(dir, 1, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadAll(dir); err == nil {
		t.Fatal("torn shard silently restored")
	}
}

func TestLoadAllMissing(t *testing.T) {
	if _, _, err := LoadAll(t.TempDir()); !errors.Is(err, ErrNoCut) {
		t.Errorf("empty dir: err = %v, want ErrNoCut", err)
	}
}

func TestLoadAllReportsMissingShard(t *testing.T) {
	dir := t.TempDir()
	// Worker 1 of 3 never snapshotted at all.
	for _, wk := range []int{0, 2} {
		if err := SaveShard(dir, cutMeta(1, wk, 3), []Row{{Key: int64(wk), Acc: 1, Inter: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := LoadAll(dir)
	var miss *MissingShardError
	if !errors.As(err, &miss) {
		t.Fatalf("expected MissingShardError, got %v", err)
	}
	if miss.Workers != 3 || len(miss.Missing) != 1 || miss.Missing[0] != 1 {
		t.Fatalf("wrong report: %+v", miss)
	}
}

// TestLoadAllParkCutBeatsOlderEpoch: the newest complete cut wins
// whatever fleet wrote each. A 4-worker session's cut 1 is followed by
// the cut 2 of a session restored from it at 2 workers: workers 2 and
// 3's shards of cut 1 stay behind (nobody with their ids prunes), and
// must neither fail the load nor shadow cut 2.
func TestLoadAllParkCutBeatsOlderEpoch(t *testing.T) {
	dir := t.TempDir()
	for wk := 0; wk < 4; wk++ {
		if err := SaveShard(dir, cutMeta(1, wk, 4), []Row{{Key: int64(wk), Acc: 1, Inter: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	for wk := 0; wk < 2; wk++ {
		if err := SaveShard(dir, cutMeta(2, wk, 2), []Row{{Key: int64(10 + wk), Acc: 2, Inter: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	all, meta, err := LoadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[int64]bool{}
	for _, r := range all {
		keys[r.Key] = true
	}
	if len(all) != 2 || !keys[10] || !keys[11] || meta.MutEpoch != 2 || meta.Workers != 2 {
		t.Errorf("cut 2 of the 2-worker fleet not selected: rows %v meta %+v", all, meta)
	}
}

// TestLoadAllIncompleteFallsBackToParkCut: shards of one stamp written
// by fleets of two sizes never complete each other's cut. A 4-worker
// session completes cut 1 and dies writing cut 2 after worker 1's shard;
// a session restored from cut 1 at 2 workers dies writing its own cut 2
// after worker 0's. Stamp 2 then holds shards 0 and 1 — as many as the
// smaller fleet needs — and no complete cut: the restore must come from
// cut 1.
func TestLoadAllIncompleteFallsBackToParkCut(t *testing.T) {
	dir := t.TempDir()
	for wk := 0; wk < 4; wk++ {
		if err := SaveShard(dir, cutMeta(1, wk, 4), []Row{{Key: int64(wk), Acc: 1, Inter: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := SaveShard(dir, cutMeta(2, 1, 4), []Row{{Key: 101, Acc: 2, Inter: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := SaveShard(dir, cutMeta(2, 0, 2), []Row{{Key: 200, Acc: 3, Inter: 0}}); err != nil {
		t.Fatal(err)
	}
	all, meta, err := LoadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.MutEpoch != 1 || meta.Workers != 4 || len(all) != 4 {
		t.Fatalf("expected fallback to the 4-worker cut 1, got rows %v meta %+v", all, meta)
	}
	for _, r := range all {
		if r.Key >= 100 {
			t.Fatalf("row from an incomplete cut 2 leaked into restore: %v", all)
		}
	}
}

// TestPruneKeepsTwoNewestStamps: pruning orders a worker's shards by
// stamp as a number, not by name.
func TestPruneKeepsTwoNewestStamps(t *testing.T) {
	dir := t.TempDir()
	for _, e := range []int{999999, 1000000, 57, 2, 999998} {
		if err := SaveShard(dir, cutMeta(e, 0, 1), nil); err != nil {
			t.Fatal(err)
		}
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "ep*-shard-000.plck"))
	// 1000000 is the newest stamp, though its name sorts first.
	want := []string{ShardPath(dir, 1000000, 0), ShardPath(dir, 999999, 0)}
	if len(matches) != len(want) {
		t.Fatalf("prune kept %v, want %v", matches, want)
	}
	for _, p := range want {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("prune removed %s: %v", p, err)
		}
	}
	if _, meta, err := LoadAll(dir); err != nil || meta.MutEpoch != 1000000 {
		t.Fatalf("newest stamp 1000000 lost: %+v %v", meta, err)
	}
}

func TestPruneKeepsTwoEpochs(t *testing.T) {
	dir := t.TempDir()
	for e := 1; e <= 5; e++ {
		if err := SaveShard(dir, cutMeta(e, 0, 1), []Row{{Key: int64(e), Acc: 1, Inter: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "ep*-shard-000.plck"))
	if len(matches) != keepCuts {
		t.Fatalf("prune kept %v", matches)
	}
	_, meta, err := LoadAll(dir)
	if err != nil || meta.MutEpoch != 5 {
		t.Fatalf("newest epoch lost after prune: %+v %v", meta, err)
	}
}
