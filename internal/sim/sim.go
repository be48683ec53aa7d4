// Package sim provides the cycle-stepped simulation engine shared by every
// component of the PIVOT reproduction: a global cycle counter, a ticker
// registry, and a deterministic pseudo-random source so that every experiment
// is exactly reproducible from its seed.
package sim

// Cycle is a point in simulated time, counted in CPU clock cycles.
type Cycle uint64

// NeverWork is the NextWork sentinel for "no self-generated work pending":
// the component will stay quiescent until some other ticker's activity feeds
// it new input.
const NeverWork = ^Cycle(0)

// Ticker is any component advanced once per simulated cycle.
//
// Tick ordering matters: the Engine ticks components in registration order,
// so a machine registers the DRAM controller first (so responses produced in
// cycle N are visible upstream in cycle N), then the memory-side stations
// downstream-to-upstream, then the cores.
type Ticker interface {
	Tick(now Cycle)
}

// IdleReporter is the optional quiescence interface a Ticker may implement.
//
// NextWork(now) returns (next, true) when Tick(now) would perform no
// observable work — no state change beyond what SkipCycles compensates — and
// the component will stay that way until cycle next at the earliest (NeverWork
// when only external input can wake it). It returns (_, false) when the
// component is active and must be ticked densely. An idle report with
// next <= now is treated as active.
//
// The contract is re-checked every cycle, so a report only has to be valid
// for the instant it is made; external wake-ups that land earlier than next
// are picked up by the following cycle's poll as long as they are made by
// tickers ordered before the reporter (which is how the machine orders its
// memory system ahead of its cores).
type IdleReporter interface {
	NextWork(now Cycle) (next Cycle, idle bool)
}

// Skipper is the optional compensation interface for IdleReporters whose
// idle Tick still bumps pure book-keeping counters (stall attribution,
// refused-probe statistics, ...). SkipCycles(from, to) must apply exactly the
// counter updates that to-from consecutive idle Ticks would have applied, so
// that a skipping run is bit-identical to a dense one at every cycle.
type Skipper interface {
	SkipCycles(from, to Cycle)
}

// TickFunc adapts a plain function to the Ticker interface.
type TickFunc func(now Cycle)

// Tick calls f(now).
func (f TickFunc) Tick(now Cycle) { f(now) }

// tickerSlot caches a ticker's optional capabilities so the hot loop never
// repeats interface type assertions.
type tickerSlot struct {
	tick Ticker
	idle IdleReporter // nil: always ticked densely (pins the engine dense)
	skip Skipper      // nil: no per-cycle compensation needed
}

// Engine drives a set of Tickers through simulated time.
//
// When every registered ticker implements IdleReporter and all report idle,
// Step advances the clock directly to the earliest reported work cycle
// instead of spinning through empty cycles; per-ticker counter effects of the
// skipped cycles are preserved through Skipper. Components that do not
// implement IdleReporter are simply ticked every cycle, which also prevents
// any global jump — correctness is opt-in per component.
type Engine struct {
	now   Cycle
	slots []tickerSlot
	dense bool
}

// NewEngine returns an engine positioned at cycle 0 with no tickers.
func NewEngine() *Engine { return &Engine{} }

// Register appends t to the tick order. Registration order is tick order.
// The optional IdleReporter/Skipper capabilities are resolved once here.
func (e *Engine) Register(t Ticker) {
	s := tickerSlot{tick: t}
	s.idle, _ = t.(IdleReporter)
	s.skip, _ = t.(Skipper)
	e.slots = append(e.slots, s)
}

// SetDense forces naive per-cycle stepping (the -dense escape hatch),
// ignoring all IdleReporters. Skip-ahead and dense runs are bit-identical;
// dense exists as the trusted reference for equivalence checking.
func (e *Engine) SetDense(dense bool) { e.dense = dense }

// Dense reports whether naive per-cycle stepping is forced.
func (e *Engine) Dense() bool { return e.dense }

// Now reports the current cycle.
func (e *Engine) Now() Cycle { return e.now }

// Step advances simulated time by n cycles. It never advances past now+n, so
// callers that align work to absolute boundaries (checkpoint intervals, audit
// epochs, cycle budgets) see exactly the same stopping points with and
// without skip-ahead.
func (e *Engine) Step(n Cycle) {
	end := e.now + n
	if e.dense {
		for e.now < end {
			for i := range e.slots {
				e.slots[i].tick.Tick(e.now)
			}
			e.now++
		}
		return
	}
	for e.now < end {
		// Poll every slot in tick order. Active slots tick; idle slots are
		// elided for this one cycle with exact counter compensation. Because
		// the poll happens at the slot's own position in the order, a wake-up
		// produced earlier in the same cycle (a DRAM response completing a
		// load, a delayed event draining) is observed exactly as a dense tick
		// would observe it.
		allIdle := true
		minNext := NeverWork
		for i := range e.slots {
			s := &e.slots[i]
			if s.idle == nil {
				s.tick.Tick(e.now)
				allIdle = false
				continue
			}
			next, idle := s.idle.NextWork(e.now)
			if !idle || next <= e.now {
				s.tick.Tick(e.now)
				allIdle = false
				continue
			}
			if s.skip != nil {
				s.skip.SkipCycles(e.now, e.now+1)
			}
			if next < minNext {
				minNext = next
			}
		}
		e.now++
		if !allIdle || minNext <= e.now {
			continue
		}
		// Everything is quiescent and nothing ticked, so no new work can have
		// appeared: jump straight to the earliest reported work cycle
		// (clamped to this Step's end).
		to := minNext
		if to > end {
			to = end
		}
		if to > e.now {
			for i := range e.slots {
				if s := e.slots[i].skip; s != nil {
					s.SkipCycles(e.now, to)
				}
			}
			e.now = to
		}
	}
}

// RunUntil advances simulated time until stop returns true, checking every
// granule cycles, or until limit is reached. It returns the cycle at which it
// stopped.
func (e *Engine) RunUntil(limit Cycle, granule Cycle, stop func() bool) Cycle {
	if granule == 0 {
		granule = 1
	}
	for e.now < limit {
		step := granule
		if e.now+step > limit {
			step = limit - e.now
		}
		e.Step(step)
		if stop != nil && stop() {
			break
		}
	}
	return e.now
}
