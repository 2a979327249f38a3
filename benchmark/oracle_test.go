package main

import (
	"errors"
	"math"
	"net/http"
	"testing"

	"powerlog/internal/graph"
	prt "powerlog/internal/runtime"
)

// Each way an op can go wrong must count as failed and must never
// contribute a latency sample.
func TestFailedOpsAreCountedAndKeptOutOfLatency(t *testing.T) {
	want := []float64{0, 4, 7, math.Inf(1)}
	good := func() *prt.Result {
		return &prt.Result{Converged: true, Values: map[int64]float64{0: 0, 1: 4, 2: 7}}
	}
	perturbed := good()
	perturbed.Values[2] = 7.001
	missing := good()
	delete(missing.Values, 1)
	extra := good()
	extra.Values[3] = 9 // the oracle says unreachable
	unconverged := good()
	unconverged.Converged = false

	var log opLog
	log.record(1.5, runVerdict(good(), nil, want, 1e-9))
	log.record(1.5, httpVerdict(http.StatusOK))
	if log.attempted != 2 || log.failed != 0 || len(log.ms) != 2 {
		t.Fatalf("good ops: %+v", log)
	}
	for name, err := range map[string]error{
		"perturbed value":   runVerdict(perturbed, nil, want, 1e-9),
		"missing key":       runVerdict(missing, nil, want, 1e-9),
		"unreachable key":   runVerdict(extra, nil, want, 1e-9),
		"Converged=false":   runVerdict(unconverged, nil, want, 1e-9),
		"unchecked, unconv": runVerdict(unconverged, nil, nil, 0),
		"engine error":      runVerdict(nil, errors.New("worker lost"), want, 1e-9),
		"503 busy":          httpVerdict(http.StatusServiceUnavailable),
		"404":               httpVerdict(http.StatusNotFound),
		"transport error":   errors.New("connection refused"),
	} {
		before := log
		log.record(99, err)
		if err == nil {
			t.Errorf("%s: judged correct", name)
		}
		if log.attempted != before.attempted+1 || log.failed != before.failed+1 || len(log.ms) != len(before.ms) {
			t.Errorf("%s: attempted %d→%d, failed %d→%d, samples %d→%d", name,
				before.attempted, log.attempted, before.failed, log.failed, len(before.ms), len(log.ms))
		}
	}
	if log.firstErr == nil {
		t.Error("first failure not kept")
	}
	if err := runVerdict(good(), nil, want, 1e-9); err != nil {
		t.Errorf("tolerance: %v", err)
	}
}

// The churn generator's edge list must stay in step with the engine's
// graph, where a delete removes every parallel edge of the pair.
func TestChurnGenDeletesParallelEdgesTogether(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 0, Dst: 1, W: 5}, {Src: 1, Dst: 2, W: 1}}
	for seed := int64(0); seed < 20; seed++ {
		g := newChurnGen(3, append([]graph.Edge(nil), edges...), seed)
		mut := g.next(1, 0)
		if len(mut.Deletes) != 1 {
			t.Fatalf("seed %d: %d deletes", seed, len(mut.Deletes))
		}
		for _, e := range g.edges {
			if e.Src == mut.Deletes[0].Src && e.Dst == mut.Deletes[0].Dst {
				t.Fatalf("seed %d: deleted pair %v survives in %v", seed, mut.Deletes[0], g.edges)
			}
		}
	}
	a, b := newChurnGen(50, nil, 3), newChurnGen(50, nil, 3)
	for i := 0; i < 5; i++ {
		ma, mb := a.next(1, 4), b.next(1, 4)
		if len(ma.Inserts) != 4 || len(ma.Inserts) != len(mb.Inserts) || ma.Inserts[3] != mb.Inserts[3] {
			t.Fatalf("batch %d differs between two generators of one seed", i)
		}
		for _, e := range ma.Inserts {
			if e.Src == e.Dst {
				t.Fatalf("self-loop inserted")
			}
		}
	}
	if len(a.has) != len(a.edges) {
		t.Errorf("an insert repeated a pair: %d pairs, %d edges", len(a.has), len(a.edges))
	}
}
