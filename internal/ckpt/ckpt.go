// Package ckpt serialises MonoTable shard state for fault tolerance —
// the local-filesystem substitute for the original system's HDFS
// checkpoints. A snapshot stores each row's Accumulation and pending
// Intermediate plus a Meta header. Every checkpoint is a session's park
// cut: a consistent cut (no messages in flight across it) taken at an
// Apply, stamped with the mutation-log position it incorporates. The
// binary format is length-prefixed little-endian with a CRC32 trailer,
// so a torn or corrupted file is detected and refused rather than
// silently restored. Shard files carry the stamp in their names and are
// written atomically (temp file + fsync + rename + directory fsync), and
// each worker keeps its two newest stamps — a crash leaving the newest
// cut incomplete falls back to the previous complete one.
package ckpt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Row is one checkpointed MonoTable row.
type Row struct {
	Key   int64
	Acc   float64
	Inter float64 // pending intermediate delta (identity if none)
}

// Meta describes one shard snapshot. MutEpoch is the cut's stamp.
type Meta struct {
	// MutEpoch is the mutation-log position the snapshot incorporates: k
	// for the park cut of a session's k-th Apply, written with the
	// mutation applied and its fixpoint pending. A restore replays the log
	// entries after MutEpoch.
	MutEpoch int
	// Worker is the writing worker's id (-1 on a LoadAll result, which
	// merges shards).
	Worker int
	// Workers is the fleet size at snapshot time; a restore needs a
	// shard from every one of them.
	Workers int
}

const magic = "PLCK\x05"

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
	for _, v := range []uint64{uint64(meta.MutEpoch), uint64(meta.Worker), uint64(meta.Workers)} {
		if err := put(v); err != nil {
			return err
		}
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
	var hdr [3]uint64
	for i := range hdr {
		v, err := get()
		if err != nil {
			return nil, meta, fmt.Errorf("ckpt: short meta: %w", err)
		}
		hdr[i] = v
	}
	meta = Meta{MutEpoch: int(hdr[0]), Worker: int(int64(hdr[1])), Workers: int(hdr[2])}
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

// ShardPath names one worker's shard of the cut mutEpoch inside dir.
func ShardPath(dir string, mutEpoch, worker int) string {
	return filepath.Join(dir, fmt.Sprintf("ep%06d-shard-%03d.plck", mutEpoch, worker))
}

// parseShardName inverts ShardPath on a base filename.
func parseShardName(name string) (meta Meta, ok bool) {
	_, err := fmt.Sscanf(name, "ep%d-shard-%d.plck", &meta.MutEpoch, &meta.Worker)
	return meta, err == nil
}

// keepCuts is how many stamps of snapshots each worker retains: the one
// just written plus its predecessor, so a crash that leaves the newest
// cut incomplete across the fleet can still fall back to the previous
// complete one.
const keepCuts = 2

// SaveShard atomically writes rows to the worker's shard file for
// meta's stamp (write to a temp file in the same directory, fsync,
// rename, fsync the directory) and prunes this worker's stamps older
// than the newest keepCuts. A crash at any point leaves either the new
// cut's file complete or absent — never torn — and the previous cut
// intact.
func SaveShard(dir string, meta Meta, rows []Row) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := ShardPath(dir, meta.MutEpoch, meta.Worker)
	tmp, err := os.CreateTemp(dir, "shard-*.tmp")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(tmp)
	if err := Write(bw, meta, rows); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// Fsync the directory so the rename itself is durable (the file's
	// contents were synced above; the directory entry still needs it).
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	pruneShards(dir, meta.Worker)
	return nil
}

// leaseTTL is how long a read lease stays fresh. A reader that crashed
// without releasing leaves a stale lease file behind; pruning resumes
// once it ages out (and the stale file is cleaned up along the way).
const leaseTTL = 30 * time.Second

// acquireReadLease marks dir as being read by a restore in progress
// (LoadAll): while any fresh lease file exists, SaveShard defers its
// keep-2-cuts pruning entirely, so the cut a concurrent reader
// selected cannot be deleted out from under it between its directory
// scan and its reads. The returned release function removes the lease;
// it is safe to call more than once.
func acquireReadLease(dir string) (release func(), err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, "lease-*.rdl")
	if err != nil {
		return nil, err
	}
	name := f.Name()
	f.Close()
	return func() { _ = os.Remove(name) }, nil
}

// leased reports whether dir has a fresh read lease. Stale lease files
// (crashed readers past leaseTTL) are removed as they are found.
func leased(dir string) bool {
	matches, err := filepath.Glob(filepath.Join(dir, "lease-*.rdl"))
	if err != nil {
		return false
	}
	fresh := false
	for _, m := range matches {
		fi, err := os.Stat(m)
		if err != nil {
			continue
		}
		if time.Since(fi.ModTime()) < leaseTTL {
			fresh = true
		} else {
			_ = os.Remove(m)
		}
	}
	return fresh
}

// pruneShards removes this worker's stamps beyond the newest keepCuts.
// Best-effort: pruning failures never fail the snapshot that just landed.
// While a read lease is held (a restore is scanning the directory),
// pruning is skipped entirely — deferred to the next save.
func pruneShards(dir string, worker int) {
	if leased(dir) {
		return
	}
	matches, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("ep*-shard-%03d.plck", worker)))
	if err != nil || len(matches) <= keepCuts {
		return
	}
	stamps := map[string]Meta{}
	for _, m := range matches {
		if meta, ok := parseShardName(filepath.Base(m)); ok && meta.Worker == worker {
			stamps[m] = meta
		}
	}
	sort.Slice(matches, func(i, j int) bool { return stamps[matches[i]].MutEpoch > stamps[matches[j]].MutEpoch })
	for _, m := range matches[keepCuts:] {
		if _, ok := stamps[m]; ok {
			_ = os.Remove(m)
		}
	}
}

// ErrNoCut is LoadAll's error for a directory that holds no shard at all:
// nothing was ever checkpointed there.
var ErrNoCut = errors.New("ckpt: no snapshots")

// MissingShardError reports an incomplete snapshot set: the directory
// holds shards, but no cut has a shard from every worker of the fleet
// that wrote it.
type MissingShardError struct {
	Dir      string
	MutEpoch int   // the newest stamp examined
	Workers  int   // the fleet size its shards record
	Missing  []int // worker ids with no shard of that cut
}

func (e *MissingShardError) Error() string {
	return fmt.Sprintf("ckpt: snapshot in %s is incomplete: cut %d needs %d workers, missing shards for %v",
		e.Dir, e.MutEpoch, e.Workers, e.Missing)
}

// LoadAll assembles the newest complete cut in dir and returns its rows
// plus a Meta describing it (Worker = -1). A cut is the shards of one
// stamp that record one fleet size; it is complete with a shard from
// every worker of that fleet. Fleets of different sizes may share a
// directory — a session restored at another size writes the cuts after
// the one it restored from — so a fleet's stale shards of a stamp never
// complete another fleet's cut of it, and an incomplete newest cut (a
// crash mid-cut) falls back to the newest complete one, whatever its
// size. Any unreadable or checksum-failing shard file aborts the load:
// SaveShard never leaves a torn file behind, so corruption here is
// external damage and must be surfaced, not silently skipped. A
// directory with no shard yields ErrNoCut; one with shards but no
// complete cut, a *MissingShardError.
func LoadAll(dir string) ([]Row, Meta, error) {
	// The lease pins the directory contents: concurrent SaveShard calls
	// keep landing new cuts but defer pruning, so everything the glob
	// below sees stays readable until release.
	release, err := acquireReadLease(dir)
	if err != nil {
		return nil, Meta{}, err
	}
	defer release()
	matches, err := filepath.Glob(filepath.Join(dir, "ep*-shard-*.plck"))
	if err != nil {
		return nil, Meta{}, err
	}
	// cut (a Meta holding only MutEpoch and Workers) → worker → rows
	cuts := map[Meta]map[int][]Row{}
	for _, m := range matches {
		f, err := os.Open(m)
		if errors.Is(err, os.ErrNotExist) {
			// Pruned before the lease was taken (glob-then-open race with
			// a prune already in flight): the file is gone, not corrupt —
			// choose among what remains.
			continue
		}
		if err != nil {
			return nil, Meta{}, err
		}
		rows, meta, err := Read(bufio.NewReader(f))
		f.Close()
		if err != nil {
			return nil, Meta{}, fmt.Errorf("%s: %w", m, err)
		}
		if named, ok := parseShardName(filepath.Base(m)); !ok || named != (Meta{MutEpoch: meta.MutEpoch, Worker: meta.Worker}) || meta.Worker >= meta.Workers {
			return nil, Meta{}, fmt.Errorf("ckpt: %s: header %+v disagrees with the filename or names a worker outside its fleet", m, meta)
		}
		c := Meta{MutEpoch: meta.MutEpoch, Workers: meta.Workers}
		if cuts[c] == nil {
			cuts[c] = map[int][]Row{}
		}
		cuts[c][meta.Worker] = rows
	}
	if len(cuts) == 0 {
		return nil, Meta{}, fmt.Errorf("%w in %s", ErrNoCut, dir)
	}
	order := make([]Meta, 0, len(cuts))
	for c := range cuts {
		order = append(order, c)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		return a.MutEpoch > b.MutEpoch || a.MutEpoch == b.MutEpoch && a.Workers > b.Workers
	})
	for _, c := range order {
		if len(cuts[c]) == c.Workers {
			var all []Row
			for _, rows := range cuts[c] {
				all = append(all, rows...)
			}
			c.Worker = -1
			return all, c, nil
		}
	}
	newest := order[0]
	miss := &MissingShardError{Dir: dir, MutEpoch: newest.MutEpoch, Workers: newest.Workers}
	for wk := 0; wk < newest.Workers; wk++ {
		if _, ok := cuts[newest][wk]; !ok {
			miss.Missing = append(miss.Missing, wk)
		}
	}
	return nil, Meta{}, miss
}
