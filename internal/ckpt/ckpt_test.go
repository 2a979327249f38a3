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

func TestWriteReadRoundTrip(t *testing.T) {
	rows := []Row{
		{Key: 0, Acc: 1.5, Inter: math.Inf(1)},
		{Key: 42, Acc: -3, Inter: 0.25},
		{Key: 1<<40 + 7, Acc: 0, Inter: 0},
	}
	meta := Meta{MutEpoch: 3}
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
	if err := Write(&buf, Meta{}, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := Read(&buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestReadDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Meta{MutEpoch: 1}, []Row{{Key: 1, Acc: 2, Inter: 3}}); err != nil {
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
	// has a kind flag, v4 a second stamp word, v5 a worker id and fleet
	// size, and none a reader any more).
	for _, v := range []byte{3, 4, 5} {
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
		meta := Meta{MutEpoch: rng.Intn(1 << 20)}
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
	// One cut holds the rows of every worker's shard.
	if err := Save(dir, Meta{MutEpoch: 1}, []Row{{Key: 0, Acc: 1, Inter: 0}, {Key: 1, Acc: 2, Inter: 0.5}}); err != nil {
		t.Fatal(err)
	}
	all, meta, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || meta.MutEpoch != 1 {
		t.Fatalf("rows = %v meta = %+v", all, meta)
	}
	// A newer cut supersedes the old one.
	if err := Save(dir, Meta{MutEpoch: 2}, []Row{{Key: 9, Acc: 9, Inter: 9}, {Key: 8, Acc: 8, Inter: 8}}); err != nil {
		t.Fatal(err)
	}
	all, meta, err = Load(dir)
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

// TestCrashMidWriteLeavesPreviousReadable simulates dying partway
// through Save: a stale partial temp file sits next to a complete
// previous cut. The previous cut must load untouched and the torn temp
// file must be ignored (it is not a .plck cut).
func TestCrashMidWriteLeavesPreviousReadable(t *testing.T) {
	dir := t.TempDir()
	if err := Save(dir, Meta{MutEpoch: 1}, []Row{{Key: 5, Acc: 5, Inter: 0}}); err != nil {
		t.Fatal(err)
	}
	// The crash: half a frame written to the temp file, never renamed.
	var buf bytes.Buffer
	if err := Write(&buf, Meta{MutEpoch: 2}, []Row{{Key: 6, Acc: 6, Inter: 0}}); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()/2]
	if err := os.WriteFile(filepath.Join(dir, "cut-123.tmp"), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	all, meta, err := Load(dir)
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
	if err := Save(dir, Meta{MutEpoch: 1}, []Row{{Key: 0, Acc: 1, Inter: 0}, {Key: 1, Acc: 1, Inter: 0}}); err != nil {
		t.Fatal(err)
	}
	path := CutPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(dir); err == nil {
		t.Fatal("torn shard silently restored")
	}
}

func TestLoadAllMissing(t *testing.T) {
	if _, _, err := Load(t.TempDir()); !errors.Is(err, ErrNoCut) {
		t.Errorf("empty dir: err = %v, want ErrNoCut", err)
	}
}

// TestLoadRefusesUnlistableDir: a directory that does not exist holds no
// cut, but one that is a regular file is an error, not an empty
// directory — nor is a directory that cannot be read, when the test can
// make one (not as root, who reads it anyway).
func TestLoadRefusesUnlistableDir(t *testing.T) {
	if _, _, err := Load(filepath.Join(t.TempDir(), "absent")); !errors.Is(err, ErrNoCut) {
		t.Errorf("absent dir: err = %v, want ErrNoCut", err)
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(file); err == nil || errors.Is(err, ErrNoCut) {
		t.Errorf("a regular file: err = %v, want a listing error", err)
	}
	locked := t.TempDir()
	if err := os.Chmod(locked, 0); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(locked, 0o755)
	if _, err := os.ReadDir(locked); err == nil {
		return // the test runs as a user who reads it anyway
	}
	if _, _, err := Load(locked); err == nil || errors.Is(err, ErrNoCut) {
		t.Errorf("an unreadable dir: err = %v, want a listing error", err)
	}
}

// TestGlobMetacharactersInDir: a directory whose name holds glob
// metacharacters saves and loads its cut like any other — its name is a
// name, not a pattern.
func TestGlobMetacharactersInDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a[1]*")
	rows := []Row{{Key: 4, Acc: 2, Inter: 0.5}}
	for stamp := 1; stamp <= 3; stamp++ {
		if err := Save(dir, Meta{MutEpoch: stamp}, rows); err != nil {
			t.Fatal(err)
		}
	}
	got, meta, err := Load(dir)
	if err != nil || meta.MutEpoch != 3 || len(got) != 1 || got[0] != rows[0] {
		t.Fatalf("Load = %v, %+v, %v; want %v at stamp 3", got, meta, err, rows)
	}
	if n, _ := filepath.Glob(filepath.Join(filepath.Dir(dir), "*", "cut-*.plck")); len(n) != keepCuts {
		t.Errorf("%d cuts kept, want %d: %v", len(n), keepCuts, n)
	}
}

// TestPruneKeepsTwoNewestStamps: pruning orders the cuts by stamp as a
// number, not by name.
func TestPruneKeepsTwoNewestStamps(t *testing.T) {
	dir := t.TempDir()
	for _, e := range []int{999999, 1000000, 57, 2, 999998} {
		if err := Save(dir, Meta{MutEpoch: e}, nil); err != nil {
			t.Fatal(err)
		}
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "cut-*.plck"))
	// 1000000 is the newest stamp, though its name sorts first.
	want := []string{CutPath(dir, 1000000), CutPath(dir, 999999)}
	if len(matches) != len(want) {
		t.Fatalf("prune kept %v, want %v", matches, want)
	}
	for _, p := range want {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("prune removed %s: %v", p, err)
		}
	}
	if _, meta, err := Load(dir); err != nil || meta.MutEpoch != 1000000 {
		t.Fatalf("newest stamp 1000000 lost: %+v %v", meta, err)
	}
}

func TestPruneKeepsTwoEpochs(t *testing.T) {
	dir := t.TempDir()
	for e := 1; e <= 5; e++ {
		if err := Save(dir, Meta{MutEpoch: e}, []Row{{Key: int64(e), Acc: 1, Inter: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "cut-*.plck"))
	if len(matches) != keepCuts {
		t.Fatalf("prune kept %v", matches)
	}
	_, meta, err := Load(dir)
	if err != nil || meta.MutEpoch != 5 {
		t.Fatalf("newest epoch lost after prune: %+v %v", meta, err)
	}
}

// TestSaveLoadConcurrent: a Load racing Save and its pruning reads a
// whole cut. One goroutine saves cuts 1..200, each pruning all but the
// newest two; another loads in a loop. Every Load returns ErrNoCut
// before the first cut lands and otherwise exactly the rows saved under
// the stamp it reports — a cut pruned between the scan and the open
// sends Load back to the scan, never to an error.
func TestSaveLoadConcurrent(t *testing.T) {
	const cuts = 200
	dir := t.TempDir()
	rowsOf := func(e int) []Row {
		rows := make([]Row, 1+e%7)
		for i := range rows {
			rows[i] = Row{Key: int64(e*10 + i), Acc: float64(e), Inter: float64(i)}
		}
		return rows
	}
	saved := make(chan error, 1)
	go func() {
		for e := 1; e <= cuts; e++ {
			if err := Save(dir, Meta{MutEpoch: e}, rowsOf(e)); err != nil {
				saved <- err
				return
			}
		}
		saved <- nil
	}()
	loads, done := 0, false
	for !done {
		select {
		case err := <-saved:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
		}
		rows, meta, err := Load(dir)
		loads++
		if errors.Is(err, ErrNoCut) {
			if done {
				t.Fatal("ErrNoCut after every cut was saved")
			}
			continue
		}
		if err != nil {
			t.Fatalf("load %d: %v", loads, err)
		}
		want := rowsOf(meta.MutEpoch)
		if meta.MutEpoch < 1 || meta.MutEpoch > cuts || len(rows) != len(want) {
			t.Fatalf("load %d: cut %d with %d rows, want %d", loads, meta.MutEpoch, len(rows), len(want))
		}
		for i := range want {
			if rows[i] != want[i] {
				t.Fatalf("load %d: cut %d row %d = %+v, want %+v", loads, meta.MutEpoch, i, rows[i], want[i])
			}
		}
		if done && meta.MutEpoch != cuts {
			t.Fatalf("after the last save Load returned cut %d, want %d", meta.MutEpoch, cuts)
		}
	}
	t.Logf("%d loads", loads)
}
