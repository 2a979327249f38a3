package compiler

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"powerlog/internal/analyzer"
	"powerlog/internal/checker"
	"powerlog/internal/parser"
	"powerlog/internal/progs"
)

// What the path in front of the fixpoint produces, recorded from the
// map-walking evaluator (PR 22) before the slot-compiled one replaced
// it: for the twelve Table-1 programs and the two rejected ones, over
// kernelGraph and seeded attribute columns, ΔX¹ and the naive base
// tuples, every attribute column, every supporting relation, one naive
// join, and the checker's verdicts with their reasons (which carry the
// rejected programs' counterexamples). Values are compared by bits, a NaN
// as a NaN. Supporting relations are compared as sets of rows: the old
// evaluator ordered an aggregate view's rows by sort.Strings over the
// little-endian bytes of the group key (key 256 before key 1), the new
// one orders them numerically, and nothing reads the order.
//
//	go test ./internal/compiler -run TestEvaluatorGolden -update

var updateGolden = flag.Bool("update", false, "rewrite testdata/evaluator.golden")

var rejectedKernels = []kernelFixture{
	{"CommNet", progs.CommNet, Generic, "edge", false, []string{"W"}},
	{"GCN-Forward", progs.GCNForward, Generic, "A", true, []string{"Para"}},
}

// digest is a line of the golden file: how many values, and their hash.
type digest struct {
	n int
	h [sha256.Size]byte
}

// canonBits is v's bit pattern, one pattern for every NaN.
func canonBits(v float64) uint64 {
	if v != v {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(v)
}

func (d *digest) add(vals ...float64) {
	buf := make([]byte, 0, 8*len(vals)+sha256.Size)
	buf = append(buf, d.h[:]...)
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, canonBits(v))
	}
	d.h = sha256.Sum256(buf)
	d.n++
}

func (d *digest) String() string { return fmt.Sprintf("%d %x", d.n, d.h[:8]) }

func kvDigest(kvs []KV) *digest {
	d := &digest{}
	for _, kv := range kvs {
		d.add(float64(kv.K), kv.V)
	}
	return d
}

func TestEvaluatorGolden(t *testing.T) {
	var out bytes.Buffer
	line := func(prog, item string, v any) { fmt.Fprintf(&out, "%s\t%s\t%v\n", prog, item, v) }
	for _, fx := range append(slices.Clone(catalogueKernels), rejectedKernels...) {
		db := fx.db(t, rand.New(rand.NewSource(24)))
		prog, err := parser.Parse(fx.src)
		if err != nil {
			t.Fatal(err)
		}
		info, err := analyzer.Analyze(prog)
		if err != nil {
			t.Fatal(err)
		}
		rep := checker.Check(info)
		line(fx.name, "check", fmt.Sprintf("satisfied=%v P1=%v %q P2=%v %q",
			rep.Satisfied, rep.P1.Verdict, rep.P1.Reason, rep.P2.Verdict, rep.P2.Reason))

		p, err := Compile(info, db, Options{})
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		line(fx.name, "InitMRA", kvDigest(p.InitMRA))
		line(fx.name, "BaseNaive", kvDigest(p.BaseNaive))
		for _, a := range append(slices.Clone(p.shape.srcAttrs), p.shape.dstAttrs...) {
			d := &digest{}
			for _, v := range a.col {
				d.add(v)
			}
			line(fx.name, "column "+a.pred, d)
		}
		for _, name := range append(append([]string{"node"}, p.shape.otherHeads...), p.shape.derivedHeads...) {
			rel, ok := db.Relation(name)
			if !ok {
				t.Fatalf("%s: supporting relation %s is missing", fx.name, name)
			}
			rows := make([][]float64, rel.Len())
			for i := range rows {
				rows[i] = rel.Row(i)
			}
			slices.SortFunc(rows, func(a, b []float64) int {
				return slices.CompareFunc(a, b, func(x, y float64) int {
					return cmp.Compare(canonBits(x), canonBits(y))
				})
			})
			d := &digest{}
			for _, row := range rows {
				d.add(row...)
			}
			line(fx.name, "relation "+name, d)
		}
		if p.NaiveJoinSupported() {
			ev, err := p.NewNaiveEvaluator()
			if err != nil {
				t.Fatal(err)
			}
			d := &digest{}
			err = ev.Eval(func(yield func(int64, float64)) {
				for v := 0; v < p.N; v += 3 {
					yield(int64(v), 0.5+float64(v%11))
				}
			}, func(k int64, v float64) { d.add(float64(k), v) })
			if err != nil {
				t.Fatal(err)
			}
			line(fx.name, "naive join", d)
		}
	}

	const path = "testdata/evaluator.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Errorf("%d lines, golden has %d", len(got), len(wantLines))
	}
	for i := range min(len(got), len(wantLines)) {
		if got[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], wantLines[i])
		}
	}
}
