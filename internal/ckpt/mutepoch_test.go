package ckpt

import (
	"bytes"
	"testing"
)

func TestMutEpochRoundTrip(t *testing.T) {
	meta := Meta{Epoch: 9, Worker: 1, Workers: 2, Cut: true, MutEpoch: 4}
	rows := []Row{{Key: 3, Acc: 1, Inter: 0.5}}
	var buf bytes.Buffer
	if err := Write(&buf, meta, rows); err != nil {
		t.Fatal(err)
	}
	_, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != meta {
		t.Fatalf("meta = %+v, want %+v", got, meta)
	}
}

func TestLoadAllMutEpochIsMinimum(t *testing.T) {
	// A restore can only rely on the mutations EVERY chosen shard has
	// incorporated, so LoadAll reports the minimum across shards.
	dir := t.TempDir()
	for w, me := range []int{3, 2} {
		meta := Meta{Epoch: 4, Worker: w, Workers: 2, Cut: true, MutEpoch: me}
		if err := SaveShard(dir, meta, []Row{{Key: int64(w), Acc: 1, Inter: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	_, meta, err := LoadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.MutEpoch != 2 {
		t.Fatalf("LoadAll MutEpoch = %d, want min shard value 2", meta.MutEpoch)
	}
}
