package main

import (
	"fmt"
	"math"
	"net/http"

	prt "powerlog/internal/runtime"
)

// opLog is the failure accounting of one op stream. An op that errors,
// does not converge, disagrees with the oracle or is refused by the
// server counts as failed and contributes no latency sample.
type opLog struct {
	ms        []float64
	attempted int
	failed    int
	firstErr  error
}

func (l *opLog) record(ms float64, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
		return
	}
	l.ms = append(l.ms, ms)
}

// checkValues compares an engine result with the oracle's dense vector.
// A vertex the oracle leaves at +Inf (unreachable) must be absent from
// got; every other vertex must be present within tol.
func checkValues(got map[int64]float64, want []float64, tol float64) error {
	reachable := 0
	for v, w := range want {
		g, ok := got[int64(v)]
		if math.IsInf(w, 1) {
			if ok {
				return fmt.Errorf("key %d = %v, oracle says unreachable", v, g)
			}
			continue
		}
		reachable++
		if !ok {
			return fmt.Errorf("key %d missing, oracle says %v", v, w)
		}
		if math.Abs(g-w) > tol {
			return fmt.Errorf("key %d = %v, oracle says %v (tol %g)", v, g, w, tol)
		}
	}
	if len(got) != reachable {
		return fmt.Errorf("%d keys, oracle has %d", len(got), reachable)
	}
	return nil
}

// runVerdict judges one fixpoint. want may be nil when the op is not
// one of those checked against the oracle.
func runVerdict(res *prt.Result, err error, want []float64, tol float64) error {
	if err != nil {
		return err
	}
	if !res.Converged {
		return fmt.Errorf("Converged=false after %d rounds", res.Rounds)
	}
	if want == nil {
		return nil
	}
	return checkValues(res.Values, want, tol)
}

// httpVerdict judges one request: with a single writer nothing may be
// shed, so anything but 200 is a failed op.
func httpVerdict(code int) error {
	if code != http.StatusOK {
		return fmt.Errorf("HTTP status %d", code)
	}
	return nil
}
