package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// statusMB reads one kB field of /proc/self/status, in MB: VmHWM is the
// resident set's high-water mark, VmRSS the resident set now.
func statusMB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == field+":" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s not found in /proc/self/status", field)
}

// resetPeakRSS sets VmHWM back to the resident set of this moment.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rssWindow is the length of one window of rssWatch.
const rssWindow = 100 * time.Millisecond

// rssWatch takes the resident set's high-water mark window by window
// while the ops run: the high-water mark of a whole run is one
// transient's size (a burst of queued batches, a collection that
// started late) and differs by half between two runs of one binary,
// while the median window repeats. Where the kernel does not let the
// mark be reset, each window yields the resident set at its end.
type rssWatch struct {
	field      string
	stop, done chan struct{}
	peaks      []float64
	err        error
}

func watchRSS() *rssWatch {
	r := &rssWatch{field: "VmHWM", stop: make(chan struct{}), done: make(chan struct{})}
	if resetPeakRSS() != nil {
		r.field = "VmRSS"
	}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(rssWindow)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				mb, err := statusMB(r.field)
				if err != nil {
					r.err = err
					return
				}
				r.peaks = append(r.peaks, mb)
				if r.field == "VmHWM" {
					resetPeakRSS() // it worked a window ago
				}
			}
		}
	}()
	return r
}

// finish stops the watch and returns every window's value.
func (r *rssWatch) finish() ([]float64, error) {
	close(r.stop)
	<-r.done
	if r.err == nil && len(r.peaks) == 0 {
		r.err = fmt.Errorf("the ops took less than one %v window of resident-set samples", rssWindow)
	}
	return r.peaks, r.err
}
