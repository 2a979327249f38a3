package runtime

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"powerlog/internal/graph"
)

// TestSessionConcurrentHammer drives one session from many goroutines at
// once — Apply, Result, Err, Epoch, and a late Close — under the race detector. The serialization contract says every
// call must return either a real result or one of the typed state errors
// (ErrSessionBusy while another operation holds the claim,
// ErrSessionClosed after Close commits); nothing may deadlock, panic, or
// race. This is exactly the call pattern a serving front end produces.
func TestSessionConcurrentHammer(t *testing.T) {
	p := sessionProgs[0] // SSSP on a small uniform graph
	cfg := sessCfg(MRAAsync)
	cfg.Workers = 2
	s, err := Open(compilePlan(t, p.src, p.db(p.g())), cfg)
	if err != nil {
		t.Fatal(err)
	}

	const hammerers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var applied, busy, closedErr int64
	var mu sync.Mutex
	fatal := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		t.Errorf(format, args...)
	}
	count := func(n *int64) { mu.Lock(); *n++; mu.Unlock() }

	for i := 0; i < hammerers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7 + id)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch id % 4 {
				case 0, 1: // mutators
					mut := Mutation{Inserts: []graph.Edge{{
						Src: int32(rng.Intn(200)), Dst: int32(rng.Intn(200)), W: 1 + 49*rng.Float64(),
					}}}
					_, err := s.Apply(mut)
					switch {
					case err == nil:
						count(&applied)
					case errors.Is(err, ErrSessionBusy):
						count(&busy)
						time.Sleep(50 * time.Microsecond)
					case errors.Is(err, ErrSessionClosed):
						count(&closedErr)
						return
					default:
						fatal("Apply: unexpected error %v", err)
						return
					}
				case 2, 3: // wait-free readers
					if res := s.Result(); res == nil {
						fatal("Result() = nil on an open session")
						return
					}
					_ = s.Epoch()
					_ = s.MutEpoch()
					_ = s.Err()
					time.Sleep(100 * time.Microsecond)
				}
			}
		}(i)
	}

	// Let the hammer run, then close mid-flight: Close must wait out the
	// in-flight claim and every later call must see ErrSessionClosed.
	time.Sleep(150 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	close(stop)
	wg.Wait()

	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := s.Apply(Mutation{}); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Apply after Close: err = %v, want ErrSessionClosed", err)
	}
	t.Logf("hammer: %d applies, %d busy rejections", applied, busy)
}

// TestSessionConcurrentCloseRace closes the session from many goroutines
// while Applys are in flight: exactly the drain path plserved runs on
// SIGTERM. All Closes must return cleanly and the session must end
// closed, not wedged.
func TestSessionConcurrentCloseRace(t *testing.T) {
	p := sessionProgs[0]
	for round := 0; round < 3; round++ {
		s, err := Open(compilePlan(t, p.src, p.db(p.g())), sessCfg(MRASyncAsync))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				if id%2 == 0 {
					_, err := s.Apply(Mutation{Inserts: []graph.Edge{{Src: 1, Dst: 2, W: 3}}})
					if err != nil && !errors.Is(err, ErrSessionBusy) && !errors.Is(err, ErrSessionClosed) {
						t.Errorf("Apply during close race: %v", err)
					}
				} else {
					if err := s.Close(); err != nil {
						t.Errorf("concurrent Close: %v", err)
					}
				}
			}(i)
		}
		wg.Wait()
		if err := s.Close(); err != nil {
			t.Errorf("final Close: %v", err)
		}
	}
}
