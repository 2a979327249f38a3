// Package ckpt serialises MonoTable shard state for fault tolerance —
// the local-filesystem substitute for the original system's HDFS
// checkpoints. A snapshot stores each row's Accumulation and pending
// Intermediate plus a Meta header. Every checkpoint is a consistent cut
// (no messages in flight across it), named by one stamp (MutEpoch, n):
// the mutation-log position it incorporates and the cut's number within
// that position — 0 for a session's park cut, the superstep or snapshot
// episode for a cut taken inside a fixpoint. The binary format is
// length-prefixed little-endian with a CRC32 trailer, so a torn or
// corrupted file is detected and refused rather than silently restored.
// Shard files carry both stamp parts in their names and are written
// atomically (temp file + fsync + rename + directory fsync), and each
// worker keeps its two newest stamps — a crash leaving the newest cut
// incomplete falls back to the previous complete one.
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

// Meta describes one shard snapshot. (MutEpoch, Epoch) is the cut's
// stamp; stamps order lexicographically, and within a session each cut's
// stamp is above every earlier one.
type Meta struct {
	// MutEpoch is the mutation-log position the snapshot incorporates: 0
	// for a one-shot run or a session's initial fixpoint, k after the
	// k-th Apply. A restore replays the log entries after MutEpoch.
	MutEpoch int
	// Epoch numbers the cut within MutEpoch: 0 for the park cut after the
	// mutation, the superstep (BSP) or snapshot episode (≥ 1) for a cut
	// inside the fixpoint.
	Epoch int
	// Worker is the writing worker's id (-1 on a LoadAll result, which
	// merges shards).
	Worker int
	// Workers is the fleet size at snapshot time; a restore needs a
	// shard from every one of them.
	Workers int
}

// newer reports whether m's stamp orders after o's.
func (m Meta) newer(o Meta) bool {
	return m.MutEpoch > o.MutEpoch || m.MutEpoch == o.MutEpoch && m.Epoch > o.Epoch
}

const magic = "PLCK\x04"

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
	for _, v := range []uint64{uint64(meta.MutEpoch), uint64(meta.Epoch), uint64(meta.Worker), uint64(meta.Workers)} {
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
	var hdr [4]uint64
	for i := range hdr {
		v, err := get()
		if err != nil {
			return nil, meta, fmt.Errorf("ckpt: short meta: %w", err)
		}
		hdr[i] = v
	}
	meta = Meta{MutEpoch: int(hdr[0]), Epoch: int(hdr[1]), Worker: int(int64(hdr[2])), Workers: int(hdr[3])}
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

// ShardPath names one worker's shard of the cut (mutEpoch, epoch) inside
// dir.
func ShardPath(dir string, mutEpoch, epoch, worker int) string {
	return filepath.Join(dir, fmt.Sprintf("ep%06d-%06d-shard-%03d.plck", mutEpoch, epoch, worker))
}

// parseShardName inverts ShardPath on a base filename.
func parseShardName(name string) (meta Meta, ok bool) {
	_, err := fmt.Sscanf(name, "ep%d-%d-shard-%d.plck", &meta.MutEpoch, &meta.Epoch, &meta.Worker)
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
	path := ShardPath(dir, meta.MutEpoch, meta.Epoch, meta.Worker)
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
	sort.Slice(matches, func(i, j int) bool { return stamps[matches[i]].newer(stamps[matches[j]]) })
	for _, m := range matches[keepCuts:] {
		if _, ok := stamps[m]; ok {
			_ = os.Remove(m)
		}
	}
}

// MissingShardError reports an incomplete snapshot set: the directory
// holds shards, but no stamp has a shard from every worker recorded in
// the headers.
type MissingShardError struct {
	Dir             string
	MutEpoch, Epoch int   // the newest stamp examined
	Workers         int   // fleet size recorded in the shard headers
	Missing         []int // worker ids with no shard of that stamp
}

func (e *MissingShardError) Error() string {
	return fmt.Sprintf("ckpt: snapshot in %s is incomplete: cut (%d, %d) needs %d workers, missing shards for %v",
		e.Dir, e.MutEpoch, e.Epoch, e.Workers, e.Missing)
}

// LoadAll assembles the newest complete cut in dir — the highest stamp
// (MutEpoch, Epoch) with a shard from every worker — and returns its rows
// plus a Meta describing it (Worker = -1). An incomplete newest cut
// (a crash mid-cut) falls back to its predecessor. Any unreadable or
// checksum-failing shard file aborts the load: SaveShard never leaves a
// torn file behind, so corruption here is external damage and must be
// surfaced, not silently skipped. A directory with no complete cut
// yields a *MissingShardError.
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
	// stamp (a Meta holding only MutEpoch and Epoch) → worker → rows
	byStamp := map[Meta]map[int][]Row{}
	workers := 0
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
		if named, ok := parseShardName(filepath.Base(m)); !ok || named != (Meta{MutEpoch: meta.MutEpoch, Epoch: meta.Epoch, Worker: meta.Worker}) {
			return nil, Meta{}, fmt.Errorf("ckpt: %s: filename disagrees with header %+v", m, meta)
		}
		if len(byStamp) == 0 {
			workers = meta.Workers
		} else if meta.Workers != workers {
			return nil, Meta{}, fmt.Errorf("ckpt: %s: mixed fleet sizes in %s (%d/%d workers)", m, dir, meta.Workers, workers)
		}
		stamp := Meta{MutEpoch: meta.MutEpoch, Epoch: meta.Epoch}
		if byStamp[stamp] == nil {
			byStamp[stamp] = map[int][]Row{}
		}
		byStamp[stamp][meta.Worker] = rows
	}
	if len(byStamp) == 0 {
		return nil, Meta{}, fmt.Errorf("ckpt: no snapshots in %s", dir)
	}
	stamps := make([]Meta, 0, len(byStamp))
	for s := range byStamp {
		stamps = append(stamps, s)
	}
	sort.Slice(stamps, func(i, j int) bool { return stamps[i].newer(stamps[j]) })
	for _, s := range stamps {
		if len(byStamp[s]) == workers {
			var all []Row
			for _, rows := range byStamp[s] {
				all = append(all, rows...)
			}
			s.Worker, s.Workers = -1, workers
			return all, s, nil
		}
	}
	miss := &MissingShardError{Dir: dir, MutEpoch: stamps[0].MutEpoch, Epoch: stamps[0].Epoch, Workers: workers}
	for wk := 0; wk < workers; wk++ {
		if _, ok := byStamp[stamps[0]][wk]; !ok {
			miss.Missing = append(miss.Missing, wk)
		}
	}
	return nil, Meta{}, miss
}
