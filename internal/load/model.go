package load

import (
	"math"

	"pivot/internal/sim"
)

// Model is one task's executable arrival process. A model is single-owner
// mutable state (its RNG and modulator cursors advance as arrivals are
// drawn); the load generator owns it and is the only caller.
type Model interface {
	// Closed reports a closed-loop model: arrivals are driven by request
	// completion, not by time, and NextArrival is never called.
	Closed() bool

	// NextArrival returns the arrival instant following prev (the arrival
	// most recently returned; the first call receives prev == 0 and draws
	// the first arrival from cycle 0). ok == false means the process has
	// ceased forever — no further arrivals exist and the caller may report
	// sim.NeverWork to the skip-ahead engine.
	NextArrival(prev sim.Cycle) (next sim.Cycle, ok bool)

	// Rate reports the instantaneous arrival rate at now in requests per
	// cycle, for telemetry. It is pure: it never advances the RNG. On-off
	// modulated models report the rate of the most recently resolved
	// modulator state when now lies beyond it.
	Rate(now sim.Cycle) float64

	// Phase is the attribution tag of the most recent arrival: the phase
	// program index, or 0 (on) / 1 (off) for a purely on-off model, or 0
	// for stationary models. Pure.
	Phase() int

	// NumPhases is the number of distinct attribution tags Phase can
	// return (1 for stationary and closed models).
	NumPhases() int

	// SnapshotState captures the model's complete mutable state.
	SnapshotState() ModelState
}

// ModelState is the serialisable mutable state shared by every model: the
// RNG cursor, the first-arrival flag, the attribution tag, and the on-off
// modulator position. Models without a feature leave its fields zero, so a
// gob-encoded stationary snapshot is byte-identical to a degenerate shaped
// one — the property the stationary-equivalence oracle relies on.
type ModelState struct {
	RNG     uint64
	First   bool
	Phase   int
	On      bool
	OnUntil sim.Cycle
}

// New builds the model described by spec, drawing all randomness from rng.
// The model takes ownership of rng.
func New(spec Spec, rng *sim.RNG) Model {
	if spec.Mean <= 0 {
		return &closedModel{rng: rng}
	}
	if spec.Stationary() {
		return &stationaryModel{rng: rng, mean: spec.Mean}
	}
	return newShaped(spec, rng)
}

// closedModel drives the closed loop: no timed arrivals at all. It still
// owns its RNG fork so the machine's seeding discipline (one fork per
// component, in construction order) is uniform across loop modes.
type closedModel struct {
	rng *sim.RNG
}

func (c *closedModel) Closed() bool { return true }
func (c *closedModel) NextArrival(prev sim.Cycle) (sim.Cycle, bool) {
	return 0, false
}
func (c *closedModel) Rate(now sim.Cycle) float64 { return 0 }
func (c *closedModel) Phase() int                 { return 0 }
func (c *closedModel) NumPhases() int             { return 1 }
func (c *closedModel) SnapshotState() ModelState  { return ModelState{RNG: c.rng.State()} }

// stationaryModel is the refactored historical behaviour: a homogeneous
// Poisson process with the given mean inter-arrival time. The draw sequence
// is pinned bit-identically to the pre-refactor engine: the first arrival
// is Exp(mean) from cycle 0 (no offset), every later gap is Exp(mean)+1 (the
// +1 guarantees forward progress when the mean is tiny).
type stationaryModel struct {
	rng   *sim.RNG
	mean  float64
	first bool // set once the first arrival has been drawn
}

func (m *stationaryModel) Closed() bool { return false }

func (m *stationaryModel) NextArrival(prev sim.Cycle) (sim.Cycle, bool) {
	if !m.first {
		m.first = true
		return sim.Cycle(m.rng.Exp(m.mean)), true
	}
	return prev + sim.Cycle(m.rng.Exp(m.mean)) + 1, true
}

func (m *stationaryModel) Rate(now sim.Cycle) float64 { return 1 / m.mean }
func (m *stationaryModel) Phase() int                 { return 0 }
func (m *stationaryModel) NumPhases() int             { return 1 }

func (m *stationaryModel) SnapshotState() ModelState {
	return ModelState{RNG: m.rng.State(), First: !m.first}
}

// shapedModel realises every non-stationary spec by thinning a max-rate
// Poisson process: candidate arrivals are drawn at the envelope rate
// λmax = maxScale/Mean with the stationary gap law, and each candidate at
// cycle t is accepted with probability scale(t)/maxScale. When that
// probability is exactly 1 the acceptance draw is skipped, so a spec whose
// composite scale is identically 1 consumes the stationary model's exact
// RNG stream.
type shapedModel struct {
	spec     Spec
	rng      *sim.RNG
	candMean float64 // envelope mean inter-arrival: Mean / maxScale
	maxScale float64
	program  uint64    // total phase-program length (0 = no phases)
	ceaseAt  sim.Cycle // rate is zero forever from here on
	ceases   bool

	first   bool // set once the first candidate has been drawn
	phase   int  // attribution tag of the most recent arrival
	on      bool // on-off modulator state
	onUntil sim.Cycle
}

func newShaped(spec Spec, rng *sim.RNG) *shapedModel {
	m := &shapedModel{
		spec:     spec,
		rng:      rng,
		maxScale: spec.MaxScale(),
		program:  spec.programCycles(),
	}
	m.ceaseAt, m.ceases = spec.ceaseCycle()
	if m.maxScale > 0 {
		m.candMean = spec.Mean / m.maxScale
	} else {
		m.ceaseAt, m.ceases = 0, true // degenerate: never any arrivals
	}
	if spec.OnOff.Enabled() {
		m.on = true
		m.onUntil = sim.Cycle(rng.Exp(spec.OnOff.OnMean)) + 1
	}
	return m
}

func (m *shapedModel) Closed() bool { return false }

func (m *shapedModel) NextArrival(prev sim.Cycle) (sim.Cycle, bool) {
	t := prev
	for {
		if !m.first {
			m.first = true
			t = sim.Cycle(m.rng.Exp(m.candMean))
		} else {
			t += sim.Cycle(m.rng.Exp(m.candMean)) + 1
		}
		if m.ceases && t >= m.ceaseAt {
			return 0, false
		}
		p := m.scaleAt(t) / m.maxScale
		if p >= 1 || m.rng.Float64() < p {
			m.phase = m.phaseIndexAt(t)
			return t, true
		}
	}
}

// scaleAt evaluates the composite rate multiplier at cycle t, advancing the
// on-off modulator. NextArrival visits strictly increasing t, so modulator
// sojourns are drawn exactly once each, in order.
func (m *shapedModel) scaleAt(t sim.Cycle) float64 {
	s := m.phaseScaleAt(t) * m.windowFactor(t)
	if m.spec.OnOff.Enabled() {
		for m.onUntil <= t {
			m.on = !m.on
			mean := m.spec.OnOff.OnMean
			if !m.on {
				mean = m.spec.OnOff.OffMean
			}
			m.onUntil += sim.Cycle(m.rng.Exp(mean)) + 1
		}
		if m.on {
			s *= m.spec.OnOff.OnScale
		} else {
			s *= m.spec.OnOff.OffScale
		}
	}
	return s
}

// phaseScaleAt evaluates the phase program's multiplier at t. Pure.
func (m *shapedModel) phaseScaleAt(t sim.Cycle) float64 {
	if len(m.spec.Phases) == 0 {
		return 1
	}
	tau := uint64(t)
	if m.spec.Repeat {
		tau %= m.program
	} else if tau >= m.program {
		return m.spec.Phases[len(m.spec.Phases)-1].terminalScale()
	}
	for _, p := range m.spec.Phases {
		if tau < p.Cycles {
			return p.scaleAt(tau)
		}
		tau -= p.Cycles
	}
	return m.spec.Phases[len(m.spec.Phases)-1].terminalScale() // unreachable
}

func (p Phase) scaleAt(offset uint64) float64 {
	switch p.Shape {
	case ShapeRamp:
		return p.Scale + (p.To-p.Scale)*float64(offset)/float64(p.Cycles)
	case ShapeSine:
		return p.Scale * (1 + p.Amp*math.Sin(2*math.Pi*float64(offset%p.Period)/float64(p.Period)))
	case ShapeOff:
		return 0
	default:
		return p.Scale
	}
}

// windowFactor is 1 while some activity window covers t (or no windows are
// declared), else 0. Pure.
func (m *shapedModel) windowFactor(t sim.Cycle) float64 {
	if len(m.spec.Windows) == 0 {
		return 1
	}
	for _, w := range m.spec.Windows {
		if t >= w.From && t < w.Until {
			return 1
		}
	}
	return 0
}

// phaseIndexAt is the attribution tag for an arrival at t. Pure.
func (m *shapedModel) phaseIndexAt(t sim.Cycle) int {
	if len(m.spec.Phases) > 0 {
		tau := uint64(t)
		if m.spec.Repeat {
			tau %= m.program
		} else if tau >= m.program {
			return len(m.spec.Phases) - 1
		}
		for i, p := range m.spec.Phases {
			if tau < p.Cycles {
				return i
			}
			tau -= p.Cycles
		}
		return len(m.spec.Phases) - 1
	}
	if m.spec.OnOff.Enabled() && !m.on {
		return 1
	}
	return 0
}

func (m *shapedModel) Rate(now sim.Cycle) float64 {
	s := m.phaseScaleAt(now) * m.windowFactor(now)
	if m.spec.OnOff.Enabled() {
		// Report the most recently resolved modulator state; resolving
		// further would consume RNG and perturb the arrival stream.
		if m.on {
			s *= m.spec.OnOff.OnScale
		} else {
			s *= m.spec.OnOff.OffScale
		}
	}
	return s / m.spec.Mean
}

func (m *shapedModel) Phase() int { return m.phase }

func (m *shapedModel) NumPhases() int {
	if n := len(m.spec.Phases); n > 0 {
		return n
	}
	if m.spec.OnOff.Enabled() {
		return 2
	}
	return 1
}

func (m *shapedModel) SnapshotState() ModelState {
	return ModelState{
		RNG:     m.rng.State(),
		First:   !m.first,
		Phase:   m.phase,
		On:      m.on,
		OnUntil: m.onUntil,
	}
}
