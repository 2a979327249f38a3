// Package fault is a deterministic, seeded fault-injection framework
// for the runtime's robustness tests and the plbench rejoin
// experiment. Every injection decision is a pure function of (seed,
// fault site, link, event index), so a failing chaos run reproduces
// from its seed regardless of goroutine interleaving.
//
// Faults are restricted to the surfaces where the recovery machinery
// has an answer:
//
//   - the worker↔worker data plane (a fault-wrapping transport.Conn:
//     transiently failed, delayed, or duplicated Data sends, dropped
//     end-of-superstep markers, a healable link partition) — healed by
//     the transport retry path and the fence's re-sent marks;
//   - worker pacing (StallFor drives the runtime's stall-decorating
//     BarrierPolicy) — absorbed by BSP barriers, the SSP staleness
//     gate, and the async master's polling;
//   - run-level events (CrashRound aborts the run — inside a session's
//     Apply it poisons the session, which the caller recovers with
//     Close and a cold re-Open; MasterRestartRound makes the master lose
//     its termination-detector state mid-run).
//
// Master↔worker control traffic is deliberately NOT faulted: the
// termination protocol assumes a reliable coordinator channel, and a
// lost Stop verdict has no in-protocol recovery — that failure mode is
// modelled by CrashRound instead.
package fault

import (
	"fmt"
	"strings"
	"time"
)

// Spec declares which faults to inject. The zero Spec injects nothing.
type Spec struct {
	// Seed makes every injection decision reproducible.
	Seed int64

	// StallEvery / StallDur: every StallEvery-th compute pass of each
	// worker sleeps for StallDur before starting (a straggler).
	StallEvery int
	StallDur   time.Duration

	// DropEndPhase is the probability an end-of-superstep marker (a
	// step-class FenceMark: the BSP barrier's, the SSP gate's) is silently
	// lost in transit.
	DropEndPhase float64

	// SendFail is the probability a data-plane send transiently fails
	// (Send returns an error without delivering; TrySend reports
	// back-pressure). The sender's retry path is expected to heal it.
	SendFail float64

	// DupData is the probability a delivered Data batch is delivered a
	// second time. Only sound for selective (min/max) aggregates, whose
	// folds are idempotent — Theorem 3's replay tolerance.
	DupData float64

	// DelayProb / DelayDur: probability an outgoing message is held for
	// DelayDur before delivery (models a slow link, reorders across
	// destination pairs but never within one).
	DelayProb float64
	DelayDur  time.Duration

	// PartA/PartB with [PartFrom, PartTo): sends between the two workers
	// (both directions) fail while the link's event counter is inside
	// the window — a partition that heals after enough attempts.
	PartA, PartB     int
	PartFrom, PartTo int

	// CrashRound: the master aborts the whole run at this round (1-based;
	// 0 = never), as a lost coordinator would; inside a session's Apply
	// it poisons the session with a sticky error. The round is counted across a session's epochs, unless CrashEpoch (1 = the
	// initial fixpoint) names the epoch whose CrashRound-th round it is —
	// a point that does not depend on how many rounds the earlier epochs
	// took.
	CrashRound int
	CrashEpoch int

	// MasterRestartRound: at this round (1-based; 0 = never) the master
	// forgets its termination-detector state (armed flags, previous
	// stable snapshot and aggregate), as a restarted master process
	// would. The detectors are self-stabilising, so the run must still
	// terminate with the correct result.
	MasterRestartRound int

	// CrashWorkerID / CrashWorkerPass: worker CrashWorkerID exits
	// silently — no Stop handshake, no final flush — at the start of its
	// CrashWorkerPass-th compute pass (1-based; 0 = never). Unlike
	// CrashRound this kills exactly one worker and leaves the rest of
	// the fleet running, which is what the membership layer's live
	// re-join recovers from (DESIGN.md §11).
	CrashWorkerID   int
	CrashWorkerPass int
}

// Enabled reports whether the spec injects anything at all.
func (s Spec) Enabled() bool {
	return s.StallEvery > 0 || s.DropEndPhase > 0 || s.SendFail > 0 || s.DupData > 0 ||
		s.DelayProb > 0 || s.PartTo > s.PartFrom || s.CrashRound > 0 || s.MasterRestartRound > 0 ||
		s.CrashWorkerPass > 0
}

// String renders the spec in ParseSpec's syntax.
func (s Spec) String() string {
	var parts []string
	add := func(format string, args ...any) { parts = append(parts, fmt.Sprintf(format, args...)) }
	if s.Seed != 0 {
		add("seed=%d", s.Seed)
	}
	if s.StallEvery > 0 {
		add("stall=%d:%v", s.StallEvery, s.StallDur)
	}
	if s.DropEndPhase > 0 {
		add("dropend=%g", s.DropEndPhase)
	}
	if s.SendFail > 0 {
		add("sendfail=%g", s.SendFail)
	}
	if s.DupData > 0 {
		add("dup=%g", s.DupData)
	}
	if s.DelayProb > 0 {
		add("delay=%g:%v", s.DelayProb, s.DelayDur)
	}
	if s.PartTo > s.PartFrom {
		add("partition=%d-%d:%d:%d", s.PartA, s.PartB, s.PartFrom, s.PartTo)
	}
	if s.CrashEpoch > 0 {
		add("crash=%d:%d", s.CrashEpoch, s.CrashRound)
	} else if s.CrashRound > 0 {
		add("crash=%d", s.CrashRound)
	}
	if s.MasterRestartRound > 0 {
		add("mrestart=%d", s.MasterRestartRound)
	}
	if s.CrashWorkerPass > 0 {
		add("crashw=%d:%d", s.CrashWorkerID, s.CrashWorkerPass)
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses the plbench -faults syntax: comma-separated k=v
// clauses, e.g.
//
//	seed=42,stall=5:300us,dropend=0.2,sendfail=0.1,delay=0.1:200us,
//	dup=0.05,partition=0-1:50:250,crash=20,mrestart=10
//
// crash=N is the N-th master round counted across a session's epochs;
// crash=E:N is round N of epoch E.
func ParseSpec(text string) (Spec, error) {
	var s Spec
	text = strings.TrimSpace(text)
	if text == "" {
		return s, nil
	}
	for _, clause := range strings.Split(text, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok {
			return s, fmt.Errorf("fault: clause %q is not key=value", clause)
		}
		var err error
		switch key {
		case "seed":
			_, err = fmt.Sscanf(val, "%d", &s.Seed)
		case "stall":
			every, durText, found := strings.Cut(val, ":")
			if !found {
				return s, fmt.Errorf("fault: stall wants EVERY:DURATION, got %q", val)
			}
			if _, err = fmt.Sscanf(every, "%d", &s.StallEvery); err == nil {
				s.StallDur, err = time.ParseDuration(durText)
			}
		case "dropend":
			_, err = fmt.Sscanf(val, "%g", &s.DropEndPhase)
		case "sendfail":
			_, err = fmt.Sscanf(val, "%g", &s.SendFail)
		case "dup":
			_, err = fmt.Sscanf(val, "%g", &s.DupData)
		case "delay":
			prob, durText, found := strings.Cut(val, ":")
			if !found {
				return s, fmt.Errorf("fault: delay wants PROB:DURATION, got %q", val)
			}
			if _, err = fmt.Sscanf(prob, "%g", &s.DelayProb); err == nil {
				s.DelayDur, err = time.ParseDuration(durText)
			}
		case "partition":
			if _, err = fmt.Sscanf(val, "%d-%d:%d:%d", &s.PartA, &s.PartB, &s.PartFrom, &s.PartTo); err == nil &&
				s.PartTo <= s.PartFrom {
				return s, fmt.Errorf("fault: partition window [%d,%d) is empty", s.PartFrom, s.PartTo)
			}
		case "crash":
			if !strings.Contains(val, ":") {
				_, err = fmt.Sscanf(val, "%d", &s.CrashRound)
			} else if _, err = fmt.Sscanf(val, "%d:%d", &s.CrashEpoch, &s.CrashRound); err == nil &&
				(s.CrashEpoch <= 0 || s.CrashRound <= 0) {
				return s, fmt.Errorf("fault: crash wants EPOCH:ROUND with both >= 1, got %q", val)
			}
		case "mrestart":
			_, err = fmt.Sscanf(val, "%d", &s.MasterRestartRound)
		case "crashw":
			if _, err = fmt.Sscanf(val, "%d:%d", &s.CrashWorkerID, &s.CrashWorkerPass); err == nil &&
				s.CrashWorkerPass <= 0 {
				return s, fmt.Errorf("fault: crashw wants WORKER:PASS with PASS >= 1, got %q", val)
			}
		default:
			return s, fmt.Errorf("fault: unknown clause %q", key)
		}
		if err != nil {
			return s, fmt.Errorf("fault: bad %s value %q: %w", key, val, err)
		}
	}
	return s, nil
}

// Injector makes the spec's injection decisions. It is stateless and
// read-only after construction, so one Injector is safely shared by
// every worker, conn wrapper, and the master.
type Injector struct {
	spec Spec
}

// New builds an injector for spec. Returns nil for a spec that injects
// nothing, so callers can gate on `inj != nil` with no spec knowledge.
func New(spec Spec) *Injector {
	if !spec.Enabled() {
		return nil
	}
	return &Injector{spec: spec}
}

// Spec returns the injector's spec.
func (i *Injector) Spec() Spec { return i.spec }

// Fault sites: independent decision streams per fault class, so e.g.
// enabling delays does not reshuffle which sends fail.
const (
	siteStall uint64 = iota + 1
	siteDrop
	siteFail
	siteDup
	siteDelay
)

// splitmix64 is the SplitMix64 finaliser — a full-avalanche mix, so
// consecutive event indexes decorrelate completely.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// roll returns a deterministic uniform [0,1) for one (site, link, event).
func (i *Injector) roll(site uint64, from, to, idx int) float64 {
	x := uint64(i.spec.Seed)
	x = splitmix64(x ^ site)
	x = splitmix64(x ^ uint64(from+1)<<32 ^ uint64(to+1))
	x = splitmix64(x ^ uint64(idx))
	return float64(x>>11) / (1 << 53)
}

// StallFor returns how long worker should stall before its pass-th
// compute pass (0 = no stall).
func (i *Injector) StallFor(worker, pass int) time.Duration {
	s := i.spec
	if s.StallEvery <= 0 || pass <= 0 || pass%s.StallEvery != 0 {
		return 0
	}
	return s.StallDur
}

// CrashAt reports whether the master aborts the run now: at round
// epochRound of session epoch `epoch` when the spec names an epoch, else
// at the round-th master round counted across epochs.
func (i *Injector) CrashAt(epoch, epochRound, round int) bool {
	if i.spec.CrashEpoch > 0 {
		return epoch == i.spec.CrashEpoch && epochRound == i.spec.CrashRound
	}
	return round == i.spec.CrashRound
}

// MasterRestartRound returns the master round at which the termination
// detector loses its state (0 = never).
func (i *Injector) MasterRestartRound() int { return i.spec.MasterRestartRound }

// WorkerCrashPass returns the compute pass (1-based) at whose start the
// given worker silently exits, or 0 if it never crashes.
func (i *Injector) WorkerCrashPass(worker int) int {
	if i.spec.CrashWorkerPass > 0 && worker == i.spec.CrashWorkerID {
		return i.spec.CrashWorkerPass
	}
	return 0
}

// partitioned reports whether the link (from,to) is inside its
// partition window at event idx. Each failed attempt advances the
// link's counter, so the partition heals after PartTo-PartFrom events —
// a retrying sender rides it out.
func (i *Injector) partitioned(from, to, idx int) bool {
	s := i.spec
	if s.PartTo <= s.PartFrom {
		return false
	}
	pair := (from == s.PartA && to == s.PartB) || (from == s.PartB && to == s.PartA)
	return pair && idx >= s.PartFrom && idx < s.PartTo
}
