package ckpt

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// hugeCount is a valid empty cut whose row-count word claims 2^36 rows:
// a reader that preallocated by the count asked for 1.5 TiB.
func hugeCount(t testing.TB) []byte {
	var buf bytes.Buffer
	if err := Write(&buf, Meta{MutEpoch: 1}, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint64(data[len(magic)+8:], 1<<36)
	return data
}

// TestReadHugeCountRefused: a corrupt row count is an error, not an
// allocation the size of the count.
func TestReadHugeCountRefused(t *testing.T) {
	if _, _, err := Read(bytes.NewReader(hugeCount(t))); err == nil {
		t.Fatal("a cut claiming 2^36 rows with none present was accepted")
	}
}

// FuzzRead: on any bytes Read either refuses or returns a Meta and rows
// that Write turns back into exactly the bytes Read consumed. The corpus
// (testdata/fuzz/FuzzRead) holds a valid v6 cut, v5, v4 and v3 files
// (refused as bad magic) and the huge-count file.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		rows, meta, err := Read(r)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, meta, rows); err != nil {
			t.Fatal(err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("Read accepted %x as %+v, %d rows; Write gives %x", consumed, meta, len(rows), out.Bytes())
		}
	})
}
