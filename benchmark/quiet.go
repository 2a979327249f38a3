package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// A few times a day the host takes the box's cores away for minutes on
// end: steal time, near zero otherwise, rises to 40 % of both vCPUs, and
// a run that starts then has no op and no set-up at less than twice its
// usual time, so not even the fastest sample holds (README,
// Repeatability). Steal is the one part of the box's state the guest can
// see, so a run looks at it first and waits for the burst to pass. What
// it may wait is capped per run, because a run must end within three
// minutes, and per checkout, because all runs together have a budget too
// and a box that is a little stolen from all day must not use it up.
const (
	quietProbe  = 500 * time.Millisecond // how long the cores are kept busy to see what is stolen
	quietShare  = 0.10                   // stolen share of the cores' time above which a run waits
	quietRetry  = 5 * time.Second
	quietPerRun = 100 * time.Second
	quietPerBox = 200 * time.Second // all runs of one checkout together
	userHz      = 100               // /proc/stat counts in 1/100 s
)

// stealTicks returns the steal column of the first line of /proc/stat:
// the time, summed over the CPUs, that the hypervisor ran something
// else while a vCPU was ready to run.
func stealTicks(stat string) (int64, error) {
	line, _, _ := strings.Cut(stat, "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, fmt.Errorf("/proc/stat: no steal column in %q", line)
	}
	return strconv.ParseInt(fields[8], 10, 64)
}

func readStealTicks() (int64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	return stealTicks(string(b))
}

// stolenSince is the share of the cores' time stolen since ticks were
// read at t0.
func stolenSince(ticks int64, t0 time.Time) (float64, error) {
	now, err := readStealTicks()
	if err != nil {
		return 0, err
	}
	cores := float64(runtime.GOMAXPROCS(0))
	return float64(now-ticks) / (time.Since(t0).Seconds() * cores * userHz), nil
}

// probeSteal keeps every core busy for quietProbe, because an idle vCPU
// has nothing stolen from it, and returns the stolen share.
func probeSteal() (float64, error) {
	ticks, err := readStealTicks()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < quietProbe {
			}
		}()
	}
	wg.Wait()
	return stolenSince(ticks, t0)
}

// quietGate holds a run back while the box is being stolen from.
type quietGate struct {
	ledger string                  // file: seconds this checkout's runs have waited so far
	probe  func() (float64, error) // stolen share right now
	pause  func(time.Duration)
}

// await probes and, while more than quietShare is stolen and both caps
// allow, pauses and probes again. It returns how long the run waited
// and the last share it saw, and books the wait in the ledger.
func (g quietGate) await() (waited time.Duration, share float64, err error) {
	spent := 0.0
	if b, err := os.ReadFile(g.ledger); err == nil {
		spent, _ = strconv.ParseFloat(strings.TrimSpace(string(b)), 64) // an unreadable ledger counts as empty
	}
	left := min(quietPerRun, quietPerBox-time.Duration(spent*float64(time.Second)))
	for {
		if share, err = g.probe(); err != nil {
			return waited, 0, err
		}
		if share <= quietShare || waited+quietRetry > left {
			break
		}
		g.pause(quietRetry)
		waited += quietRetry
	}
	if waited > 0 {
		err = os.WriteFile(g.ledger, []byte(strconv.FormatFloat(spent+waited.Seconds(), 'f', 0, 64)+"\n"), 0o644)
	}
	return waited, share, err
}
