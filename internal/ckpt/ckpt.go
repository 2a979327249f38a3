// Package ckpt serialises MonoTable state for fault tolerance — the
// local-filesystem substitute for the original system's HDFS
// checkpoints. Every checkpoint is a session's park cut: a consistent
// cut (no messages in flight across it) taken at an Apply, stamped with
// the mutation-log position it incorporates, and stored as one file
// holding every row of the fleet — each row's Accumulation and pending
// Intermediate plus a Meta header. The binary format is length-prefixed
// little-endian with a CRC32 trailer, so a torn or corrupted file is
// detected and refused rather than silently restored. A cut file is
// written atomically (temp file + fsync + rename + directory fsync), so
// a crash leaves the new cut whole or absent, and the directory keeps
// its two newest cuts.
package ckpt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Row is one checkpointed MonoTable row.
type Row struct {
	Key   int64
	Acc   float64
	Inter float64 // pending intermediate delta (identity if none)
}

// Meta is a cut's header.
type Meta struct {
	// MutEpoch is the mutation-log position the cut incorporates: k for
	// the park cut of a session's k-th Apply, written with the mutation
	// applied and its fixpoint pending. A restore replays the log
	// entries after MutEpoch.
	MutEpoch int
}

const magic = "PLCK\x06"

// Write serialises rows with their Meta header to w.
func Write(w io.Writer, meta Meta, rows []Row) error {
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if _, err := mw.Write([]byte(magic)); err != nil {
		return err
	}
	var buf [8]byte
	put := func(v uint64) error {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, err := mw.Write(buf[:])
		return err
	}
	if err := put(uint64(meta.MutEpoch)); err != nil {
		return err
	}
	if err := put(uint64(len(rows))); err != nil {
		return err
	}
	for _, r := range rows {
		if err := put(uint64(r.Key)); err != nil {
			return err
		}
		if err := put(math.Float64bits(r.Acc)); err != nil {
			return err
		}
		if err := put(math.Float64bits(r.Inter)); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint32(buf[:4], crc.Sum32())
	_, err := w.Write(buf[:4])
	return err
}

// Read deserialises rows and the Meta header, verifying the CRC.
func Read(r io.Reader) ([]Row, Meta, error) {
	var meta Meta
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(tr, head); err != nil {
		return nil, meta, fmt.Errorf("ckpt: short header: %w", err)
	}
	if string(head) != magic {
		return nil, meta, fmt.Errorf("ckpt: bad magic %q", head)
	}
	var buf [8]byte
	get := func() (uint64, error) {
		if _, err := io.ReadFull(tr, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	epoch, err := get()
	if err != nil {
		return nil, meta, fmt.Errorf("ckpt: short meta: %w", err)
	}
	meta.MutEpoch = int(epoch)
	n, err := get()
	if err != nil {
		return nil, meta, fmt.Errorf("ckpt: bad count: %w", err)
	}
	// The count is not trusted before the checksum: the slice grows as
	// rows arrive, so a corrupt count ends in a truncation error, not an
	// allocation the size of the count.
	rows := make([]Row, 0, min(n, 1<<12))
	for i := uint64(0); i < n; i++ {
		k, err := get()
		if err != nil {
			return nil, meta, fmt.Errorf("ckpt: truncated at row %d: %w", i, err)
		}
		a, err := get()
		if err != nil {
			return nil, meta, fmt.Errorf("ckpt: truncated at row %d: %w", i, err)
		}
		d, err := get()
		if err != nil {
			return nil, meta, fmt.Errorf("ckpt: truncated at row %d: %w", i, err)
		}
		rows = append(rows, Row{Key: int64(k), Acc: math.Float64frombits(a), Inter: math.Float64frombits(d)})
	}
	sum := crc.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, meta, fmt.Errorf("ckpt: missing checksum: %w", err)
	}
	if binary.LittleEndian.Uint32(tail[:]) != sum {
		return nil, meta, fmt.Errorf("ckpt: checksum mismatch (corrupt or torn snapshot)")
	}
	return rows, meta, nil
}

// CutPath names the file of the cut mutEpoch inside dir.
func CutPath(dir string, mutEpoch int) string {
	return filepath.Join(dir, cutName(mutEpoch))
}

func cutName(mutEpoch int) string { return fmt.Sprintf("cut-%d.plck", mutEpoch) }

// stamps lists the stamps of dir's cut files, newest first. A file
// whose name is not cutName of a stamp is not a cut, and a directory
// that does not exist holds none; any other failure to list dir — it is
// a regular file, or cannot be read — is the error.
func stamps(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range entries {
		var s int
		if _, err := fmt.Sscanf(e.Name(), "cut-%d.plck", &s); err == nil && cutName(s) == e.Name() {
			out = append(out, s)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out, nil
}

// keepCuts is how many cuts the directory retains: the one just written
// plus its predecessor.
const keepCuts = 2

// Save atomically writes rows as the cut of meta's stamp (write to a
// temp file in the same directory, fsync, rename, fsync the directory)
// and prunes the cuts older than the newest keepCuts. A crash at any
// point leaves the new cut's file complete or absent — never torn — and
// the previous cut intact.
func Save(dir string, meta Meta, rows []Row) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "cut-*.tmp")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(tmp)
	err = Write(bw, meta, rows)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), CutPath(dir, meta.MutEpoch))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// Fsync the directory so the rename itself is durable (the file's
	// contents were synced above; the directory entry still needs it).
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	// Best-effort: a pruning failure never fails the cut that just landed.
	if all, err := stamps(dir); err == nil && len(all) > keepCuts {
		for _, e := range all[keepCuts:] {
			_ = os.Remove(CutPath(dir, e))
		}
	}
	return nil
}

// ErrNoCut is Load's error for a directory that holds no cut: nothing
// was ever checkpointed there.
var ErrNoCut = errors.New("ckpt: no snapshots")

// Load returns the rows and Meta of the newest cut in dir. A cut pruned
// between the directory scan and the open has newer cuts beside it, so
// Load scans again; once open, the file stays readable whatever the
// pruner does. An unreadable or checksum-failing newest cut aborts the
// load: Save never leaves a torn file behind, so corruption here is
// external damage and must be surfaced, not skipped over to an older
// cut.
func Load(dir string) ([]Row, Meta, error) {
	for vanished := math.MinInt; ; {
		all, err := stamps(dir)
		if err != nil {
			return nil, Meta{}, err
		}
		if len(all) == 0 {
			return nil, Meta{}, fmt.Errorf("%w in %s", ErrNoCut, dir)
		}
		newest := all[0]
		path := CutPath(dir, newest)
		f, err := os.Open(path)
		if errors.Is(err, os.ErrNotExist) && newest > vanished {
			vanished = newest
			continue
		}
		if err != nil {
			return nil, Meta{}, err
		}
		rows, meta, err := Read(bufio.NewReader(f))
		f.Close()
		if err != nil {
			return nil, Meta{}, fmt.Errorf("%s: %w", path, err)
		}
		if meta.MutEpoch != newest {
			return nil, Meta{}, fmt.Errorf("ckpt: %s: header %+v disagrees with the filename", path, meta)
		}
		return rows, meta, nil
	}
}
