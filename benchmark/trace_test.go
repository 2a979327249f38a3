package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "worker", Start: 10, End: 60, Parent: 0}, // overlaps the next: counted once
		{Name: "worker", Start: 40, End: 90, Parent: 0},
		{Name: "fold", Start: 45, End: 50, Parent: 2},  // a grandchild only shortens its parent
		{Name: "late", Start: 95, End: 130, Parent: 0}, // clipped to the parent's end
		{Name: "inner", Start: 20, End: 30, Parent: 1}, // contained in its parent
		{Name: "root2", Start: 200, End: 250, Parent: -1},
	}
	want := []int64{
		100 - (90 - 10) - (100 - 95), // op: [10,90] ∪ [95,100]
		50 - 10,
		50 - 5,
		5,
		35,
		10,
		50,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("op", -1, 1)
	tr.end(id)
	if id != -1 || tr.durationsMS("op") != nil {
		t.Fatalf("nil tracer recorded a span")
	}
}

func TestTracerWritesOneObjectPerSpan(t *testing.T) {
	tr := newTracer()
	op := tr.begin("op", -1, 7)
	child := tr.begin("runtime.RunMaster", op, 7)
	tr.end(child)
	tr.end(op)
	var buf bytes.Buffer
	if err := tr.writeNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines for 2 spans", len(lines))
	}
	var s span
	if err := json.Unmarshal([]byte(lines[1]), &s); err != nil {
		t.Fatal(err)
	}
	if s.Name != "runtime.RunMaster" || s.Parent != op || s.Op != 7 || s.End < s.Start {
		t.Errorf("span round-trip: %+v", s)
	}
	for _, key := range []string{`"name"`, `"start_ns"`, `"end_ns"`, `"parent"`, `"op"`} {
		if !strings.Contains(lines[0], key) {
			t.Errorf("NDJSON line lacks %s: %s", key, lines[0])
		}
	}
	totals := tr.totals()
	if len(totals) != 2 || totals[0].Count != 1 {
		t.Errorf("totals = %+v", totals)
	}
	if got := tr.durationsMS("op"); len(got) != 1 || got[0] < 0 {
		t.Errorf("durationsMS = %v", got)
	}
}
