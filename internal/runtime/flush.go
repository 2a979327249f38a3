package runtime

import (
	"math"
	"time"

	"powerlog/internal/metrics"
)

// FlushPolicy implementations (§5.3). Each mode's flush behaviour is that
// of the former emitAsync / timedFlush mode switches; policy_test.go
// replays event sequences against the old-style decision rules to enforce
// that.

// urgentAt is §5.4's other half, shared by the asynchronous flush
// policies: a delta of magnitude 8× the priority threshold or more is sent
// to its neighbours immediately instead of waiting for the buffer to fill.
// Without a threshold nothing is urgent: no magnitude is >= NaN.
func urgentAt(threshold float64) float64 {
	if threshold > 0 {
		return 8 * threshold
	}
	return math.NaN()
}

// noLimit is the limit of a buffer that only a barrier, the τ timer or an
// urgent delta flushes.
const noLimit = math.MaxInt

// The paper fixes the two constants of the β update rule (§5.3): the
// damping factor α and the adaptation trigger ratio r.
const (
	betaAlpha = 0.8
	betaR     = 2.0
)

// asyncEagerBatch is the small fixed batch of the pure-async mode.
const asyncEagerBatch = 64

// betaInit is the initial buffer size β(i,j) of the adaptive rule and
// AAP's fixed β.
const betaInit = 256

// passFlush is the synchronous end of the dial: a buffer goes on the
// wire once per pass, when the pass ends, never on emit. Under BSP and
// SSP that is the superstep's barrier, which flushes itself; in the
// unified mode's free run on a selective aggregate it is the end of each
// productive pass (freeRun.endPass) — a worker ships what one local
// iteration produced, once (Das & Zaniolo), with every fold of a key the
// pass made combined into one KV. The worker's batchMax cap still bounds
// any single message.
type passFlush struct{}

func (passFlush) limit(int) int             { return noLimit }
func (passFlush) urgent() float64           { return urgentAt(0) }
func (passFlush) onTick(time.Time, *window) {}
func (passFlush) atPassEnd() bool           { return true }

// eagerFlush is the asynchronous extreme: Myria-style eager small
// batches for maximum freshness, the MRA+Async comparator's rule.
type eagerFlush struct {
	threshold float64 // §5.4 priority threshold (0 = off)
}

func (eagerFlush) limit(int) int             { return asyncEagerBatch }
func (p eagerFlush) urgent() float64         { return urgentAt(p.threshold) }
func (eagerFlush) onTick(time.Time, *window) {}
func (eagerFlush) atPassEnd() bool           { return false }

// fixedBetaFlush re-implements Grape+'s AAP mode switch (§6.5): a fixed
// buffer size β, plus a per-worker delay switch — a worker flooded by
// in-messages delays its own sends (SSP-leaning, bigger batches on the
// τ timer only); a starved worker flushes eagerly (AP-leaning).
type fixedBetaFlush struct {
	beta      int
	tau       time.Duration
	threshold float64
	delayed   bool
}

func (p *fixedBetaFlush) limit(int) int {
	if p.delayed {
		return noLimit
	}
	return p.beta
}
func (p *fixedBetaFlush) urgent() float64 { return urgentAt(p.threshold) }
func (*fixedBetaFlush) atPassEnd() bool   { return false }

func (p *fixedBetaFlush) onTick(now time.Time, win *window) {
	dT := now.Sub(win.start)
	if dT < 4*p.tau {
		return
	}
	p.delayed = win.in > win.out
	win.in, win.out = 0, 0
	win.start = now
}

// adaptiveBetaFlush is the paper's adaptive buffer rule (§5.3), the
// heart of the unified engine: per-destination buffer sizes β(i,j)
// start at betaInit and, whenever the update accumulation rate
// |B(i,j)|/ΔT leaves the band [β/(r·τ), r·β/τ], reset to α·τ·|B(i,j)|/ΔT.
type adaptiveBetaFlush struct {
	self      int
	threshold float64
	tau       time.Duration
	// Clamp: the floor keeps slow-pace phases from degenerating to
	// per-update messages (the folding window would vanish); the
	// ceiling bounds staleness and keeps any single message from
	// monopolising the emulated NIC.
	betaFloor, betaCeil float64

	beta []float64

	// samples records the mean β over peers after each adaptation — the
	// β trajectory surfaced through Result.Workers.
	samples []float64

	// Per-decision observability (DESIGN.md §8): how many per-destination
	// window checks stayed inside the [β/(r·τ), r·β/τ] band, how many left
	// it (triggering a β reset), and how often the reset hit the clamp.
	bandIn, bandExit, clampFloor, clampCeil *metrics.Counter
}

// betaSampleCap bounds the β trajectory kept for observability.
const betaSampleCap = 512

func newAdaptiveBetaFlush(cfg Config, self int, reg *metrics.Registry) *adaptiveBetaFlush {
	p := &adaptiveBetaFlush{
		self:       self,
		threshold:  cfg.PriorityThreshold,
		tau:        cfg.Tau,
		betaFloor:  betaInit / 4,
		betaCeil:   2 * betaInit,
		beta:       make([]float64, cfg.Workers),
		bandIn:     reg.Counter("flush.beta.band.in"),
		bandExit:   reg.Counter("flush.beta.band.exit"),
		clampFloor: reg.Counter("flush.beta.clamp.floor"),
		clampCeil:  reg.Counter("flush.beta.clamp.ceil"),
	}
	for j := range p.beta {
		p.beta[j] = betaInit
	}
	return p
}

// limit is ⌈β⌉: n buffered updates reach a fractional β when n >= ⌈β⌉.
func (p *adaptiveBetaFlush) limit(dst int) int { return int(math.Ceil(p.beta[dst])) }
func (p *adaptiveBetaFlush) urgent() float64   { return urgentAt(p.threshold) }
func (*adaptiveBetaFlush) atPassEnd() bool     { return false }

func (p *adaptiveBetaFlush) onTick(now time.Time, win *window) { p.adapt(now, win) }

// adapt applies the β(i,j) update rule over the window ΔT ending now.
func (p *adaptiveBetaFlush) adapt(now time.Time, win *window) {
	dT := now.Sub(win.start)
	if dT < 4*p.tau {
		return
	}
	tau := p.tau.Seconds()
	dts := dT.Seconds()
	if dts <= 0 {
		// Two updates inside one clock tick (reachable when τ == 0, where
		// the 4τ gate above never filters): the rate |B(i,j)|/ΔT is
		// undefined and α·τ·|B(i,j)|/ΔT would push Inf/NaN past the clamp
		// comparisons. Skip the window — the counts keep accumulating and
		// the next tick with an elapsed clock adapts over them.
		return
	}
	for j := range p.beta {
		if j == p.self {
			continue
		}
		rate := float64(win.counts[j]) / dts
		hi := betaR * p.beta[j] / tau
		lo := p.beta[j] / (betaR * tau)
		if rate > hi || rate < lo {
			p.bandExit.Inc()
			b := betaAlpha * tau * rate
			if b < p.betaFloor {
				b = p.betaFloor
				p.clampFloor.Inc()
			}
			if b > p.betaCeil {
				b = p.betaCeil
				p.clampCeil.Inc()
			}
			p.beta[j] = b
		} else {
			p.bandIn.Inc()
		}
		win.routed += win.counts[j]
		win.counts[j] = 0
	}
	win.start = now
	p.sample()
}

// sample records the current mean β over peers (observability only).
func (p *adaptiveBetaFlush) sample() {
	if len(p.samples) >= betaSampleCap {
		return
	}
	sum, n := 0.0, 0
	for j, b := range p.beta {
		if j == p.self {
			continue
		}
		sum += b
		n++
	}
	if n > 0 {
		p.samples = append(p.samples, sum/float64(n))
	}
}

// betaReporter is the optional observability capability of a
// FlushPolicy: a β trajectory to surface through Result.Workers.
type betaReporter interface{ betaTrajectory() []float64 }

func (p *adaptiveBetaFlush) betaTrajectory() []float64 { return p.samples }
