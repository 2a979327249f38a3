package ckpt

import (
	"bytes"
	"testing"
)

func TestMutEpochRoundTrip(t *testing.T) {
	meta := Meta{MutEpoch: 4}
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
