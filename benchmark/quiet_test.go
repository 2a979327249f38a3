package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestStealTicks(t *testing.T) {
	got, err := stealTicks("cpu  7907230 20895 349843 6578426 19349 0 232064 89157 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n")
	if err != nil || got != 89157 {
		t.Errorf("steal = %d, %v; want 89157", got, err)
	}
	for _, bad := range []string{"", "cpu  1 2 3 4 5 6 7\n", "intr 1 2 3 4 5 6 7 8 9\n"} {
		if _, err := stealTicks(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	if _, err := readStealTicks(); err != nil {
		t.Errorf("this box's /proc/stat: %v", err)
	}
}

// The gate waits while the box is stolen from, goes on when it is quiet,
// and never waits longer than a run or a checkout may.
func TestQuietGate(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "waited")
	var shares []float64
	paused := 0
	gate := quietGate{
		ledger: ledger,
		probe: func() (float64, error) {
			s := shares[0]
			if len(shares) > 1 {
				shares = shares[1:]
			}
			return s, nil
		},
		pause: func(time.Duration) { paused++ },
	}

	shares = []float64{0.02}
	if waited, share, err := gate.await(); err != nil || waited != 0 || share != 0.02 || paused != 0 {
		t.Fatalf("quiet box: waited %v, share %v, %v", waited, share, err)
	}
	if _, err := os.Stat(ledger); err == nil {
		t.Error("a run that did not wait wrote the ledger")
	}

	shares = []float64{0.4, 0.4, 0.03}
	if waited, share, err := gate.await(); err != nil || waited != 2*quietRetry || share != 0.03 {
		t.Fatalf("burst that passes: waited %v, share %v, %v", waited, share, err)
	}

	shares = []float64{0.4} // a burst that does not pass: the run's cap, then the checkout's
	waited, share, err := gate.await()
	if err != nil || waited != quietPerRun || share != 0.4 {
		t.Fatalf("first endless burst: waited %v, share %v, %v", waited, share, err)
	}
	waited, _, _ = gate.await()
	if want := quietPerBox - quietPerRun - 2*quietRetry; waited != want {
		t.Fatalf("second endless burst: waited %v, the checkout had %v left", waited, want)
	}
	if waited, _, _ = gate.await(); waited != 0 {
		t.Fatalf("checkout's budget spent, yet waited %v", waited)
	}
}
