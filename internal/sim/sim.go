// Package sim provides the cycle-stepped simulation engine shared by every
// component of the PIVOT reproduction: a global cycle counter, a ticker
// registry, and a deterministic pseudo-random source so that every experiment
// is exactly reproducible from its seed.
package sim

// Cycle is a point in simulated time, counted in CPU clock cycles.
type Cycle uint64

// NeverWork is the forecast for "no self-generated work pending": the
// component will stay quiescent until some other ticker's activity feeds it
// new input.
const NeverWork = oweMark - 1

// oweMark is the forecast bit Owing sets. Real cycles never reach it.
const oweMark = Cycle(1) << 63

// Owing marks forecast next as a sleep that owes compensation: the
// component's idle Ticks would have bumped counters that its SkipCycles
// applies. The engine never calls SkipCycles for an unmarked sleep.
func Owing(next Cycle) Cycle { return next | oweMark }

// SplitForecast splits a forecast into its cycle and its Owing mark.
func SplitForecast(next Cycle) (at Cycle, owes bool) {
	return next &^ oweMark, next&oweMark != 0
}

// NoLaterThan brings forecast next forward to c when c is earlier, keeping
// its Owing mark.
func NoLaterThan(next, c Cycle) Cycle {
	if c < next&^oweMark {
		return c | next&oweMark
	}
	return next
}

// Ticker is any component advanced once per simulated cycle.
//
// Tick(now) does the cycle's work and returns the component's forecast:
// the next cycle at which it could do observable work. now+1 (or anything
// earlier) keeps it awake. A later cycle promises that Ticks at every cycle
// of [now+1, next) would change no state beyond what SkipCycles compensates
// (see Owing), so the engine elides them and ticks the component again at
// next (never, for NeverWork) unless it is woken first. Returning now+1 is
// always sound; the -dense loop ignores forecasts and ticks every slot
// every cycle.
//
// A forecast must hold for its whole span unless the component is woken:
// any input from outside its own Tick that can change it (a request
// enqueued, a load completed, a structural resource freed) must go through
// the Waker the engine handed over at Register (see Wakeable), before it
// mutates the component.
//
// Tick ordering matters: the Engine ticks components in registration order,
// so a machine registers the DRAM controller first (so responses produced in
// cycle N are visible upstream in cycle N), then the memory-side stations
// downstream-to-upstream, then the cores.
type Ticker interface {
	Tick(now Cycle) (next Cycle)
}

// Skipper is the optional compensation interface for Tickers whose idle
// Tick still bumps pure book-keeping counters (stall attribution,
// refused-probe statistics, the refusals a blocked station's re-offers
// would have met downstream, ...). SkipCycles(from, to) must apply exactly
// the counter updates that to-from consecutive idle Ticks would have
// applied, so that a skipping run is bit-identical to a dense one.
//
// The engine defers compensation: a sleep whose forecast is marked Owing is
// compensated in one call covering its whole elided span when the forecast
// expires, when it is woken, when an observer settles it (Engine.Settle) or
// when Step returns. SkipCycles therefore always describes the state the
// Tick that began the sleep left behind.
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

// Wake ends the slot's sleep, so it is ticked at its next turn. It must be
// called before the caller mutates the component's state: it first settles
// the sleeper's pending compensation, which is not always commutative with
// the mutation (an L1 fill after elided L1 miss probes). The settle is
// position-aware, matching what a dense run has already ticked: a waker
// ordered before the sleeper settles it to the current cycle, and the
// sleeper is ticked later in the same cycle; a waker ordered after it
// settles it through the current cycle, and the sleeper is ticked the next
// cycle.
func (w Waker) Wake() {
	if w.e != nil && w.e.slots[w.slot].until != 0 {
		w.e.wake(w.slot)
	}
}

// WakeAt brings the slot's sleep forward to end by cycle c, without
// settling it. It is for inputs that can only bring the sleeper's work
// forward, to no earlier than c, and that leave what its SkipCycles counts
// untouched (a delay event falling due at c, a queue head ready at c).
// When c is not after the sleeper's next turn — the current cycle for a
// slot ordered after the caller, the next one for a slot ordered before
// it — WakeAt is Wake.
func (w Waker) WakeAt(c Cycle) {
	if w.e == nil {
		return
	}
	e := w.e
	s := &e.slots[w.slot]
	if s.until <= c { // awake, or due by c anyway
		return
	}
	if c <= e.turn(w.slot) {
		e.wake(w.slot)
		return
	}
	s.until = c
	e.next = min(e.next, c)
}

// TickFunc adapts a plain function to the Ticker interface. It never
// sleeps.
type TickFunc func(now Cycle)

// Tick calls f(now) and keeps the slot awake.
func (f TickFunc) Tick(now Cycle) Cycle {
	f(now)
	return now + 1
}

// tickerSlot caches a ticker's compensation side so the hot loop never
// repeats interface type assertions, plus the slot's forecast.
type tickerSlot struct {
	tick Ticker
	skip Skipper // nil: no compensation needed

	// until is the forecast of a sleeping slot, 0 when awake: the slot is
	// not ticked before cycle until unless woken. Cycles [from, now)
	// (through now, once the slot's turn in the current cycle has passed)
	// are elided, and while owes is set not yet compensated.
	until Cycle
	from  Cycle
	owes  bool
}

// Engine drives a set of Tickers through simulated time.
//
// Each Tick returns its slot's forecast. A slot whose forecast lies beyond
// the next cycle sleeps until the forecast expires or it is woken; while
// asleep it costs the loop one comparison per cycle and no interface call.
// When every slot sleeps, Step advances the clock directly to the earliest
// forecast. Per-slot counter effects of the elided cycles are preserved
// through Skipper, applied once per owing sleep span.
type Engine struct {
	now   Cycle
	slots []tickerSlot
	dense bool
	// cur is the index of the slot ticking in the current cycle (only a
	// Tick wakes or settles other slots); wakes and settles compare against
	// it to tell which sleepers a dense run would already have ticked this
	// cycle.
	cur int
	// next is the earliest cycle, at or after the next one, at which some
	// slot must be ticked, as far as the current cycle's loop has seen:
	// wakes of slots it has passed lower it.
	next Cycle
}

// NewEngine returns an engine positioned at cycle 0 with no tickers.
func NewEngine() *Engine { return &Engine{} }

// Register appends t to the tick order. Registration order is tick order.
// The optional Skipper capability is resolved once here, and a Wakeable
// component receives its slot's Waker.
func (e *Engine) Register(t Ticker) {
	s := tickerSlot{tick: t}
	s.skip, _ = t.(Skipper)
	e.slots = append(e.slots, s)
	if w, ok := t.(Wakeable); ok {
		w.SetWaker(Waker{e: e, slot: len(e.slots) - 1})
	}
}

// SetDense forces naive per-cycle stepping (the -dense escape hatch),
// ignoring every forecast. Skip-ahead and dense runs are bit-identical;
// dense exists as the trusted reference for equivalence checking.
func (e *Engine) SetDense(dense bool) { e.dense = dense }

// Dense reports whether naive per-cycle stepping is forced.
func (e *Engine) Dense() bool { return e.dense }

// Now reports the current cycle.
func (e *Engine) Now() Cycle { return e.now }

// Step advances simulated time by n cycles. It never advances past now+n, so
// callers that align work to absolute boundaries (audit epochs, stats
// epochs, cycle budgets) see exactly the same stopping points with and
// without skip-ahead.
//
// No forecast survives a Step: every slot is ticked on entry (so manager
// actions, state clones or EnableStats between steps need no wake), and
// every sleeper is settled on exit, so audits, snapshots and the watchdog
// read exact counters.
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
		e.next = NeverWork
		for i := range e.slots {
			s := &e.slots[i]
			if s.until > now {
				e.next = min(e.next, s.until)
				continue
			}
			if s.owes {
				// The forecast expired: compensate the span before the
				// Tick replaces the state the compensation describes.
				e.settle(s, now)
				s.owes = false
			}
			s.until = 0
			e.cur = i
			next := s.tick.Tick(now)
			if at, owes := SplitForecast(next); at > now+1 {
				s.until, s.from, s.owes = at, now+1, owes
				e.next = min(e.next, at)
			} else {
				e.next = now + 1 // awake: no slot can be due earlier
			}
		}
		// Jump straight to the earliest cycle a slot must be ticked at
		// (clamped to this Step's end); the sleepers' compensation stays
		// deferred.
		e.now = min(max(now+1, e.next), end)
	}
	for i := range e.slots {
		s := &e.slots[i]
		if s.owes {
			e.settle(s, e.now)
			s.owes = false
		}
		s.until = 0
	}
}

// settle compensates an owing sleep's elided cycles up to (excluding) to.
func (e *Engine) settle(s *tickerSlot, to Cycle) {
	if to <= s.from {
		return
	}
	if s.skip != nil {
		s.skip.SkipCycles(s.from, to)
	}
	s.from = to
}

// turn is slot i's next turn mid-cycle, which is also how far a mid-cycle
// settle of it reaches: the next cycle when its turn in the current cycle
// has passed, else the current one.
func (e *Engine) turn(i int) Cycle {
	if i < e.cur {
		return e.now + 1
	}
	return e.now
}

// wake settles sleeping slot i and ends its sleep.
func (e *Engine) wake(i int) {
	s := &e.slots[i]
	if s.owes {
		e.settle(s, e.turn(i))
		s.owes = false
	}
	s.until = 0
	e.next = min(e.next, e.now+1)
}

// Settle brings every owing sleep's compensation up to date without ending
// it. A component that reads other components' compensated state mid-Step
// (a stats sampler, a predictor refresh that reads flags the sleeping
// cores' elided lookups would have set) calls it first: slots ordered
// before the caller are settled through the current cycle, slots after it
// up to it, exactly as far as a dense run has ticked them. Outside Step no
// slot sleeps and Settle does nothing.
func (e *Engine) Settle() {
	for i := range e.slots {
		if s := &e.slots[i]; s.owes {
			e.settle(s, e.turn(i))
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
