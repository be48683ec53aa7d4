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
// the component will stay that way at every cycle until next (NeverWork when
// only external input can wake it). It returns (_, false) when the component
// is active and must be ticked. An idle report with next <= now is treated as
// active.
//
// The engine caches an idle report as the slot's forecast and does not poll
// the component again until next, so a report must hold for the whole span
// [now, next) unless the component is woken: any input from outside its own
// Tick that can change the verdict (a request enqueued, a load completed, a
// structural resource freed) must call the Waker the engine handed over at
// Register (see Wakeable) before it mutates the component.
type IdleReporter interface {
	NextWork(now Cycle) (next Cycle, idle bool)
}

// Skipper is the optional compensation interface for IdleReporters whose
// idle Tick still bumps pure book-keeping counters (stall attribution,
// refused-probe statistics, ...). SkipCycles(from, to) must apply exactly the
// counter updates that to-from consecutive idle Ticks would have applied, so
// that a skipping run is bit-identical to a dense one.
//
// The engine defers compensation: a sleeping slot is compensated in one call
// covering its whole elided span when it is polled again, woken, settled by
// an observer (Engine.Settle) or when Step returns. SkipCycles therefore
// always describes the state of the idle report that began the sleep.
type Skipper interface {
	SkipCycles(from, to Cycle)
}

// Wakeable is the optional interface through which Register hands a
// component the Waker of its own slot.
type Wakeable interface {
	SetWaker(w Waker)
}

// Waker is a component's handle on its engine slot. The zero Waker (a
// component never registered) does nothing.
type Waker struct {
	e    *Engine
	slot int
}

// Wake ends the slot's cached sleep, so it is polled again at its next turn.
// It must be called before the caller mutates the component's state: it
// first settles the sleeper's pending compensation, which is not always
// commutative with the mutation (an L1 fill after elided L1 miss probes).
// The settle is position-aware, matching what a dense run has already
// ticked: a waker ordered before the sleeper settles it to the current
// cycle, and the sleeper is polled later in the same cycle; a waker ordered
// after it settles it through the current cycle, and the sleeper is polled
// the next cycle.
func (w Waker) Wake() {
	if w.e != nil && w.e.slots[w.slot].until != 0 {
		w.e.wake(w.slot)
	}
}

// TickFunc adapts a plain function to the Ticker interface.
type TickFunc func(now Cycle)

// Tick calls f(now).
func (f TickFunc) Tick(now Cycle) { f(now) }

// tickerSlot caches a ticker's optional capabilities so the hot loop never
// repeats interface type assertions, plus the slot's cached forecast.
type tickerSlot struct {
	tick Ticker
	idle IdleReporter // nil: always ticked densely (pins the engine dense)
	skip Skipper      // nil: no compensation needed

	// until is the cached forecast of a sleeping slot, 0 when awake: the
	// slot is neither polled nor ticked before cycle until unless woken.
	// Cycles [from, now) (through now, once the slot's turn in the current
	// cycle has passed) are elided and not yet compensated.
	until Cycle
	from  Cycle
}

// Engine drives a set of Tickers through simulated time.
//
// A slot whose IdleReporter reports idle is put to sleep until its forecast
// expires or it is woken; while asleep it costs the loop one comparison per
// cycle and no interface call. When every slot is asleep, Step advances the
// clock directly to the earliest forecast. Per-slot counter effects of the
// elided cycles are preserved through Skipper, applied once per sleep span.
// Components that do not implement IdleReporter are simply ticked every
// cycle, which also prevents any global jump — correctness is opt-in per
// component.
type Engine struct {
	now   Cycle
	slots []tickerSlot
	dense bool
	// cur is the index of the slot ticking in the current cycle (only a
	// Tick wakes or settles other slots); wakes and settles compare against
	// it to tell which sleepers a dense run would already have ticked this
	// cycle.
	cur int
}

// NewEngine returns an engine positioned at cycle 0 with no tickers.
func NewEngine() *Engine { return &Engine{} }

// Register appends t to the tick order. Registration order is tick order.
// The optional IdleReporter/Skipper capabilities are resolved once here, and
// a Wakeable component receives its slot's Waker.
func (e *Engine) Register(t Ticker) {
	s := tickerSlot{tick: t}
	s.idle, _ = t.(IdleReporter)
	s.skip, _ = t.(Skipper)
	e.slots = append(e.slots, s)
	if w, ok := t.(Wakeable); ok {
		w.SetWaker(Waker{e: e, slot: len(e.slots) - 1})
	}
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
//
// No forecast survives a Step: every slot is polled afresh on entry (so
// manager actions, restores or EnableStats between steps need no
// wake), and every sleeper is settled on exit, so audits, checkpoints and
// the watchdog read exact counters.
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
		now := e.now
		allAsleep := true
		minNext := NeverWork
		for i := range e.slots {
			s := &e.slots[i]
			if s.until > now {
				if s.until < minNext {
					minNext = s.until
				}
				continue
			}
			if s.until != 0 {
				// The forecast expired: compensate the span before the
				// component is polled (the poll may replace the state the
				// compensation describes).
				e.settle(s, now)
				s.until = 0
			}
			if s.idle != nil {
				if next, idle := s.idle.NextWork(now); idle && next > now {
					s.until, s.from = next, now
					if next < minNext {
						minNext = next
					}
					continue
				}
			}
			allAsleep = false
			e.cur = i
			s.tick.Tick(now)
		}
		e.now++
		if !allAsleep || minNext <= e.now {
			continue
		}
		// Every slot sleeps and nothing ticked, so nothing can have been
		// woken: jump straight to the earliest forecast (clamped to this
		// Step's end). The sleepers' compensation stays deferred.
		if minNext > end {
			minNext = end
		}
		e.now = minNext
	}
	for i := range e.slots {
		if s := &e.slots[i]; s.until != 0 {
			e.settle(s, e.now)
			s.until = 0
		}
	}
}

// settle compensates a sleeping slot's elided cycles up to (excluding) to.
func (e *Engine) settle(s *tickerSlot, to Cycle) {
	if to <= s.from {
		return
	}
	if s.skip != nil {
		s.skip.SkipCycles(s.from, to)
	}
	s.from = to
}

// settleTo is the cycle a mid-cycle settle of slot i covers up to: through
// the current cycle when slot i's turn has passed, else up to it.
func (e *Engine) settleTo(i int) Cycle {
	if i < e.cur {
		return e.now + 1
	}
	return e.now
}

// wake settles sleeping slot i and ends its sleep.
func (e *Engine) wake(i int) {
	s := &e.slots[i]
	e.settle(s, e.settleTo(i))
	s.until = 0
}

// Settle brings every sleeping slot's compensation up to date without
// ending its sleep. A component that reads other components' compensated
// state mid-Step (a stats sampler, a predictor refresh that reads flags the
// sleeping cores' elided lookups would have set) calls it first: slots
// ordered before the caller are settled through the current cycle, slots
// after it up to it, exactly as far as a dense run has ticked them. Outside
// Step no slot sleeps and Settle does nothing.
func (e *Engine) Settle() {
	for i := range e.slots {
		if s := &e.slots[i]; s.until != 0 {
			e.settle(s, e.settleTo(i))
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
