// Package load defines the declarative load-shape layer: deterministic
// arrival-rate models that drive latency-critical request
// sources. The historical engine hardwired a stationary open/closed-loop
// Poisson process into the load generator; this package hoists that
// assumption into a Spec (base rate plus optional phase curves, on-off
// burst modulation, activity windows and Zipf-skewed request populations)
// and a Model (the executable arrival process).
//
// Every model obeys three contracts the rest of the simulator depends on:
//
//   - Determinism: all randomness flows through one sim.RNG owned by the
//     model, so a given (Spec, seed) pair always produces the identical
//     arrival sequence.
//   - Observability of state: SnapshotState captures the complete mutable
//     state (RNG cursor plus modulator position), so the differential
//     oracles can demand byte-identical state from two engines.
//   - Skip-ahead exactness: arrivals are drawn eagerly (NextArrival returns
//     the exact cycle of the following arrival), so an idle core can sleep
//     to precisely that instant — rate changes, bursts and churn events are
//     forecastable, never discovered late. This is what keeps the skip-ahead
//     engine bit-identical to the dense engine.
//
// Non-homogeneous models (phases, on-off) are realised by thinning a
// max-rate Poisson process: candidates arrive at rate λmax and each is
// accepted with probability λ(t)/λmax. A degenerate shape whose rate is
// identically the base rate accepts every candidate without consuming an
// acceptance draw, which makes the shaped path consume the exact RNG stream
// of the stationary model — the property the scenfuzz stationary-equivalence
// oracle pins.
package load

import "pivot/internal/sim"

// Shape selects the rate curve of one phase.
type Shape int

// Phase shapes.
const (
	// ShapeFlat holds the rate at Scale× the base rate for the phase.
	ShapeFlat Shape = iota
	// ShapeRamp moves the rate linearly from Scale× to To× across the phase.
	ShapeRamp
	// ShapeSine oscillates around Scale× with relative amplitude Amp and
	// the given Period — the diurnal pattern, compressed to simulated time.
	ShapeSine
	// ShapeOff silences arrivals for the phase (a departed tenant).
	ShapeOff
)

// Phase is one segment of a piecewise rate program. Cycles is the segment
// length; the meaning of the remaining fields depends on Shape.
type Phase struct {
	Shape  Shape
	Cycles uint64
	Scale  float64 // flat level / ramp start / sine baseline (× base rate)
	To     float64 // ramp end (× base rate)
	Amp    float64 // sine relative amplitude in [0, 1]
	Period uint64  // sine period in cycles
}

// OnOff is a two-state Markov-modulated Poisson process (MMPP-2): sojourn
// times in the on and off states are exponential with the given means, and
// the instantaneous rate is the base rate scaled by the active state's
// scale. The zero value disables modulation.
type OnOff struct {
	OnMean   float64 // mean on-state sojourn, cycles (> 0 enables)
	OffMean  float64 // mean off-state sojourn, cycles (> 0 enables)
	OnScale  float64 // rate multiplier while on
	OffScale float64 // rate multiplier while off
}

// Enabled reports whether the modulator is active.
func (o OnOff) Enabled() bool { return o.OnMean > 0 && o.OffMean > 0 }

// Window is a half-open activity interval [From, Until): the task only
// issues requests while some window is active. A tenant that joins at cycle
// A and departs at cycle B is Window{A, B}; several windows model churn.
type Window struct {
	From  sim.Cycle
	Until sim.Cycle
}

// Spec is the declarative description of one task's load. It is a pure
// value (no pointers), so it formats deterministically with %+v and may be
// embedded in the machine fingerprint.
//
// Mean is the base mean inter-arrival time in cycles; Mean <= 0 selects the
// closed loop (a new request the moment the previous one drains), in which
// case every shaping field is ignored. The shaping fields compose
// multiplicatively: rate(t) = phases(t) × onoff(t) × windows(t) / Mean.
type Spec struct {
	Mean      float64
	ZipfTheta float64 // payload-population skew in [0, 1); 0 = uniform
	Phases    []Phase
	Repeat    bool // cycle the phase program forever (else hold the final level)
	OnOff     OnOff
	Windows   []Window
}

// Stationary reports whether the spec carries no rate shaping — the
// refactored historical behaviour. ZipfTheta does not affect arrival times,
// only which lines/PCs a request touches, so a Zipf-only spec is still a
// stationary arrival process.
func (s Spec) Stationary() bool {
	return len(s.Phases) == 0 && !s.OnOff.Enabled() && len(s.Windows) == 0
}

// Shaped reports whether any non-stationary feature (curves, bursts,
// windows, or a skewed population) is in effect.
func (s Spec) Shaped() bool { return !s.Stationary() || s.ZipfTheta > 0 }

// MaxScale returns the supremum of the spec's composite rate multiplier —
// the thinning envelope λmax/λbase. Zero means the spec never generates an
// arrival.
func (s Spec) MaxScale() float64 {
	phase := 1.0
	if len(s.Phases) > 0 {
		phase = 0
		for _, p := range s.Phases {
			if m := p.maxScale(); m > phase {
				phase = m
			}
		}
	}
	mod := 1.0
	if s.OnOff.Enabled() {
		mod = s.OnOff.OnScale
		if s.OnOff.OffScale > mod {
			mod = s.OnOff.OffScale
		}
	}
	return phase * mod
}

func (p Phase) maxScale() float64 {
	switch p.Shape {
	case ShapeRamp:
		if p.To > p.Scale {
			return p.To
		}
		return p.Scale
	case ShapeSine:
		return p.Scale * (1 + p.Amp)
	case ShapeOff:
		return 0
	default:
		return p.Scale
	}
}

// terminalScale is the level a non-repeating program holds after its final
// phase ends.
func (p Phase) terminalScale() float64 {
	switch p.Shape {
	case ShapeRamp:
		return p.To
	case ShapeSine:
		return p.Scale
	case ShapeOff:
		return 0
	default:
		return p.Scale
	}
}

// programCycles is the total length of the phase program.
func (s Spec) programCycles() uint64 {
	var total uint64
	for _, p := range s.Phases {
		total += p.Cycles
	}
	return total
}

// ceaseCycle returns the cycle after which the rate is zero forever, if one
// exists: a window set is exhausted after its last Until, and a
// non-repeating program whose terminal level is zero is silent after its
// last phase.
func (s Spec) ceaseCycle() (sim.Cycle, bool) {
	at := sim.NeverWork
	found := false
	if len(s.Windows) > 0 {
		var last sim.Cycle
		for _, w := range s.Windows {
			if w.Until > last {
				last = w.Until
			}
		}
		at, found = last, true
	}
	if len(s.Phases) > 0 && !s.Repeat && s.Phases[len(s.Phases)-1].terminalScale() == 0 {
		if end := sim.Cycle(s.programCycles()); !found || end < at {
			at, found = end, true
		}
	}
	return at, found
}
