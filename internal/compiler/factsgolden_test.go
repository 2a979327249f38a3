package compiler

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"testing"

	"powerlog/internal/analyzer"
	"powerlog/internal/parser"
)

// TestFactsGolden pins what the text alone decides about F' for the
// twelve Table-1 programs and the two rejected ones: the affine form and
// its signs, the C split, the kernel class and residual, and each licence
// with its reason — the block plcheck prints, and the sentences a refused
// delete and Result.Sched quote.
//
//	go test ./internal/compiler -run TestFactsGolden -update
func TestFactsGolden(t *testing.T) {
	var out bytes.Buffer
	for _, fx := range append(slices.Clone(catalogueKernels), rejectedKernels...) {
		prog, err := parser.Parse(fx.src)
		if err != nil {
			t.Fatal(err)
		}
		info, err := analyzer.Analyze(prog)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s: F' = %s\n%s", fx.name, info.Rec.FPrime, info.Facts)
	}
	const path = "testdata/facts.golden"
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("facts differ from %s (-update rewrites it):\n%s", path, got)
	}
}
