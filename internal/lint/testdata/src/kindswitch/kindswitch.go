// Package fixture seeds enum-switch violations for the kindswitch
// analyzer's golden test: switches over a local iota family and over
// the real transport.Kind, in exhaustive, defaulted, and holey forms.
package fixture

import "powerlog/internal/transport"

// phase is an enum family: ≥3 constants, distinct contiguous values.
type phase int

const (
	phaseScan phase = iota
	phaseFold
	phaseFlush
	phaseIdle
)

// flags is NOT a family: the values have gaps (bitmask shape), so no
// switch over it is ever flagged.
type flags uint8

const (
	flagA flags = 1
	flagB flags = 2
	flagC flags = 4
)

func missingOne(p phase) string {
	switch p { // want "switch over fixture.phase is not exhaustive: missing phaseIdle"
	case phaseScan:
		return "scan"
	case phaseFold:
		return "fold"
	case phaseFlush:
		return "flush"
	}
	return ""
}

func missingSeveral(p phase) bool {
	switch p { // want "missing phaseFold, phaseFlush, phaseIdle"
	case phaseScan:
		return true
	}
	return false
}

// exhaustive covers every constant: silent.
func exhaustive(p phase) string {
	switch p {
	case phaseScan:
		return "scan"
	case phaseFold:
		return "fold"
	case phaseFlush:
		return "flush"
	case phaseIdle:
		return "idle"
	}
	return ""
}

// defaulted opts out with an explicit default: silent.
func defaulted(p phase) string {
	switch p {
	case phaseScan:
		return "scan"
	default:
		return "other"
	}
}

// bitmaskSwitch is over a non-family type: silent even with holes.
func bitmaskSwitch(f flags) bool {
	switch f {
	case flagA:
		return true
	}
	return false
}

// nonConstantCase makes coverage undecidable: silent.
func nonConstantCase(p, q phase) bool {
	switch p {
	case q:
		return true
	case phaseScan:
		return false
	}
	return false
}

// kindDropsFence mirrors the real worker.handle() bug class: the switch
// covers the data and termination kinds but misses the fence protocol.
func kindDropsFence(k transport.Kind) string {
	switch k { // want "switch over transport.Kind is not exhaustive: missing FenceRequest, FenceMark, FenceAck, FenceRelease"
	case transport.Data, transport.StatsRequest, transport.StatsReply, transport.Stop:
		return "termination-era"
	}
	return ""
}

// kindExhaustiveAll covers the full protocol enumeration: silent.
func kindExhaustiveAll(k transport.Kind) bool {
	switch k {
	case transport.Data, transport.StatsRequest, transport.StatsReply, transport.Stop,
		transport.FenceRequest, transport.FenceMark, transport.FenceAck, transport.FenceRelease:
		return true
	}
	return false
}

// multiCaseStillMissing groups constants per arm but leaves one out.
func multiCaseStillMissing(p phase) bool {
	switch p { // want "missing phaseIdle"
	case phaseScan, phaseFold:
		return true
	case phaseFlush:
		return false
	}
	return false
}

type dispatcher struct{}

// methods are walked the same as functions.
func (dispatcher) route(p phase) int {
	switch p { // want "missing phaseScan"
	case phaseFold, phaseFlush, phaseIdle:
		return 1
	}
	return 0
}

// kindDropsOne misses exactly one protocol kind, in the middle.
func kindDropsOne(k transport.Kind) bool {
	switch k { // want "missing FenceAck"
	case transport.Data, transport.StatsRequest, transport.StatsReply, transport.Stop,
		transport.FenceRequest, transport.FenceMark, transport.FenceRelease:
		return true
	}
	return false
}

// kindDefaulted handles two kinds and defaults the rest: silent.
func kindDefaulted(k transport.Kind) bool {
	switch k {
	case transport.Data:
		return true
	case transport.Stop:
		return false
	default:
		return false
	}
}

// tagless switches have no tag type: silent.
func tagless(k transport.Kind) bool {
	switch {
	case k == transport.Data:
		return true
	}
	return false
}
