package sim

import "testing"

// probe is a ticker that is quiescent until its wake cycle and active from
// then on, recording every ticked cycle and every compensated skip range so
// tests can prove the engine covers each simulated cycle exactly once.
type probe struct {
	wake  Cycle
	polls int
	ticks []Cycle
	skips [][2]Cycle
}

func (p *probe) Tick(now Cycle) { p.ticks = append(p.ticks, now) }

func (p *probe) NextWork(now Cycle) (Cycle, bool) {
	p.polls++
	if now < p.wake {
		return p.wake, true
	}
	return 0, false
}

func (p *probe) SkipCycles(from, to Cycle) {
	p.skips = append(p.skips, [2]Cycle{from, to})
}

// coverage verifies each cycle of [0, end) is covered exactly once, by a tick
// or by a skip range.
func (p *probe) coverage(t *testing.T, end Cycle) {
	t.Helper()
	seen := make([]int, end)
	for _, c := range p.ticks {
		seen[c]++
	}
	for _, r := range p.skips {
		for c := r[0]; c < r[1]; c++ {
			seen[c]++
		}
	}
	for c, n := range seen {
		if n != 1 {
			t.Fatalf("cycle %d covered %d times (ticks %d, skips %d)", c, n, len(p.ticks), len(p.skips))
		}
	}
}

// TestSkipCompensationCoversEveryCycle drives the global bulk jump while
// all slots sleep and a forecast expiring while another slot ticks densely,
// and proves every cycle is either ticked or compensated exactly once per
// component — with one compensation range per sleep span, applied when the
// forecast expires rather than cycle by cycle.
func TestSkipCompensationCoversEveryCycle(t *testing.T) {
	a := &probe{wake: 100}
	b := &probe{wake: 250}
	e := NewEngine()
	e.Register(a)
	e.Register(b)
	e.Step(300)
	if e.Now() != 300 {
		t.Fatalf("Now = %d, want 300", e.Now())
	}
	a.coverage(t, 300)
	b.coverage(t, 300)
	if len(a.ticks) != 200 { // active 100..299
		t.Fatalf("a ticked %d cycles, want 200", len(a.ticks))
	}
	if len(b.ticks) != 50 { // active 250..299
		t.Fatalf("b ticked %d cycles, want 50", len(b.ticks))
	}
	// Each probe sleeps once, from its first poll at cycle 0 until its
	// forecast, and is compensated for that span in a single call — even b,
	// whose last 150 sleeping cycles pass while a ticks every cycle.
	if len(a.skips) != 1 || a.skips[0] != [2]Cycle{0, 100} {
		t.Fatalf("a skips = %v, want [[0 100]]", a.skips)
	}
	if len(b.skips) != 1 || b.skips[0] != [2]Cycle{0, 250} {
		t.Fatalf("b skips = %v, want [[0 250]]", b.skips)
	}
}

// TestStepNeverOvershoots: a bulk jump is clamped to the Step window even
// when the earliest reported work lies far beyond it, so absolute boundaries
// (audit epochs, stats epochs, cycle budgets) are always honoured.
func TestStepNeverOvershoots(t *testing.T) {
	p := &probe{wake: 1 << 40}
	e := NewEngine()
	e.Register(p)
	for i := 0; i < 5; i++ {
		e.Step(123)
	}
	if e.Now() != 5*123 {
		t.Fatalf("Now = %d, want %d", e.Now(), 5*123)
	}
	p.coverage(t, 5*123)
	if len(p.ticks) != 0 {
		t.Fatalf("quiescent probe ticked %d times", len(p.ticks))
	}
}

// TestNonReporterPinsDense: a ticker without NextWork must be ticked every
// cycle, and its presence must prevent any global jump. The sleeping
// reporter beside it is still polled once and compensated once, for its
// whole sleep, when Step returns.
func TestNonReporterPinsDense(t *testing.T) {
	plain := 0
	p := &probe{wake: NeverWork}
	e := NewEngine()
	e.Register(TickFunc(func(Cycle) { plain++ }))
	e.Register(p)
	e.Step(500)
	if plain != 500 {
		t.Fatalf("plain ticker ran %d times, want 500", plain)
	}
	p.coverage(t, 500)
	if p.polls != 1 {
		t.Fatalf("probe polled %d times, want 1", p.polls)
	}
	if len(p.skips) != 1 || p.skips[0] != [2]Cycle{0, 500} {
		t.Fatalf("probe skips = %v, want one range [0 500]", p.skips)
	}
}

// TestDenseModeIgnoresReporters: the -dense escape hatch must tick every
// component every cycle and never call SkipCycles.
func TestDenseModeIgnoresReporters(t *testing.T) {
	p := &probe{wake: NeverWork}
	e := NewEngine()
	e.SetDense(true)
	e.Register(p)
	e.Step(200)
	if len(p.ticks) != 200 || len(p.skips) != 0 {
		t.Fatalf("dense mode: %d ticks, %d skips; want 200, 0", len(p.ticks), len(p.skips))
	}
}

// TestRunUntilGranuleExceedsLimit: a granule larger than the remaining limit
// is clamped, so the run stops exactly at the limit.
func TestRunUntilGranuleExceedsLimit(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Register(TickFunc(func(Cycle) { count++ }))
	if got := e.RunUntil(50, 100, func() bool { return false }); got != 50 {
		t.Fatalf("RunUntil = %d, want 50", got)
	}
	if count != 50 {
		t.Fatalf("ticked %d cycles, want exactly 50", count)
	}
}

// TestRunUntilStopFiresMidGranule: the stop condition is only observed at
// granule boundaries — a condition that becomes true mid-granule stops the
// run at the end of that granule, not at the cycle it turned true.
func TestRunUntilStopFiresMidGranule(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Register(TickFunc(func(Cycle) { count++ }))
	if got := e.RunUntil(1000, 100, func() bool { return count >= 30 }); got != 100 {
		t.Fatalf("RunUntil = %d, want 100 (first boundary after the condition)", got)
	}
	if count != 100 {
		t.Fatalf("ticked %d cycles, want 100", count)
	}
}

// TestRunUntilZeroGranule: granule 0 degrades to per-cycle checks.
func TestRunUntilZeroGranule(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Register(TickFunc(func(Cycle) { count++ }))
	if got := e.RunUntil(10, 0, func() bool { return count >= 3 }); got != 3 {
		t.Fatalf("RunUntil = %d, want 3", got)
	}
}

// TestSkipRunUntilStopsAtExactBoundaries: skip-ahead inside RunUntil still
// lands on every granule boundary, so stop conditions and absolute-boundary
// callers observe identical stopping points in both modes.
func TestSkipRunUntilStopsAtExactBoundaries(t *testing.T) {
	p := &probe{wake: 1 << 40}
	e := NewEngine()
	e.Register(p)
	checks := []Cycle{}
	e.RunUntil(700, 64, func() bool {
		checks = append(checks, e.Now())
		return false
	})
	want := []Cycle{64, 128, 192, 256, 320, 384, 448, 512, 576, 640, 700}
	if len(checks) != len(want) {
		t.Fatalf("stop checked at %v, want %v", checks, want)
	}
	for i := range want {
		if checks[i] != want[i] {
			t.Fatalf("stop check %d at cycle %d, want %d", i, checks[i], want[i])
		}
	}
	p.coverage(t, 700)
}

// periodic is a probe with work at every multiple of period and nothing in
// between.
type periodic struct {
	probe
	period Cycle
}

func (p *periodic) NextWork(now Cycle) (Cycle, bool) {
	p.polls++
	if now%p.period == 0 {
		return 0, false
	}
	return now + p.period - now%p.period, true
}

// TestSleeperPolledOncePerSleep: while a neighbour ticks every cycle (so the
// engine never jumps), a sleeping slot is polled once when it falls asleep
// and once when its forecast expires — not every cycle — and each sleep
// span is compensated in one call.
func TestSleeperPolledOncePerSleep(t *testing.T) {
	p := &periodic{period: 100}
	e := NewEngine()
	e.Register(TickFunc(func(Cycle) {}))
	e.Register(p)
	e.Step(1000)
	p.coverage(t, 1000)
	// Per period: a poll at the work cycle (active, ticked) and one at the
	// next cycle (idle, asleep until the next multiple of 100).
	if p.polls != 20 {
		t.Fatalf("polled %d times over 10 periods, want 20", p.polls)
	}
	if len(p.ticks) != 10 || len(p.skips) != 10 {
		t.Fatalf("%d ticks, %d skip ranges; want 10 and 10", len(p.ticks), len(p.skips))
	}
	for i, r := range p.skips {
		if want := [2]Cycle{Cycle(i)*100 + 1, Cycle(i+1) * 100}; r != want {
			t.Fatalf("skip range %d = %v, want %v", i, r, want)
		}
	}
}

// mailbox sleeps until a message is posted; its Tick consumes the message.
// Posting goes through the slot's Waker, as a machine component's input
// does.
type mailbox struct {
	probe
	waker Waker
	msgs  int
	seen  []Cycle // cycles whose Tick consumed a message
}

func (m *mailbox) SetWaker(w Waker) { m.waker = w }

func (m *mailbox) post() {
	m.waker.Wake()
	m.msgs++
}

func (m *mailbox) NextWork(now Cycle) (Cycle, bool) {
	m.polls++
	if m.msgs > 0 {
		return 0, false
	}
	return NeverWork, true
}

func (m *mailbox) Tick(now Cycle) {
	m.ticks = append(m.ticks, now)
	if m.msgs > 0 {
		m.msgs = 0
		m.seen = append(m.seen, now)
	}
}

// TestWakeOrderMatchesDense: a Wake from a slot ordered before the sleeper
// is seen in the same cycle, one from a slot ordered after it in the next
// cycle — exactly when a dense run's Tick consumes the message — and the
// sleeper's compensation stops where the dense run's idle ticks stopped.
func TestWakeOrderMatchesDense(t *testing.T) {
	run := func(dense bool) *mailbox {
		mb := &mailbox{}
		e := NewEngine()
		e.SetDense(dense)
		e.Register(TickFunc(func(now Cycle) {
			if now == 10 {
				mb.post()
			}
		}))
		e.Register(mb)
		e.Register(TickFunc(func(now Cycle) {
			if now == 20 {
				mb.post()
			}
		}))
		e.Step(40)
		return mb
	}
	ref, got := run(true), run(false)
	if want := []Cycle{10, 21}; len(ref.seen) != 2 || ref.seen[0] != want[0] || ref.seen[1] != want[1] {
		t.Fatalf("dense saw messages at %v, want %v", ref.seen, want)
	}
	if len(got.seen) != len(ref.seen) || got.seen[0] != ref.seen[0] || got.seen[1] != ref.seen[1] {
		t.Fatalf("skip saw messages at %v, dense at %v", got.seen, ref.seen)
	}
	got.coverage(t, 40)
	// Asleep from 0; the early wake settles up to cycle 10 (ticked), the
	// late one through cycle 20 (elided before the wake), and Step's exit
	// settles the final sleep.
	want := [][2]Cycle{{0, 10}, {11, 21}, {22, 40}}
	if len(got.skips) != len(want) {
		t.Fatalf("skips = %v, want %v", got.skips, want)
	}
	for i := range want {
		if got.skips[i] != want[i] {
			t.Fatalf("skips = %v, want %v", got.skips, want)
		}
	}
}

// TestSettleIsPositionAware: an observer's mid-cycle Settle compensates the
// sleepers ordered before it through the current cycle and those after it up
// to the current cycle — what a dense run has ticked when the observer runs
// — without ending their sleep.
func TestSettleIsPositionAware(t *testing.T) {
	before := &probe{wake: NeverWork}
	after := &probe{wake: NeverWork}
	e := NewEngine()
	var atSettle [2][][2]Cycle
	e.Register(before)
	e.Register(TickFunc(func(now Cycle) {
		// Ticked every cycle; observes at cycle 50 only.
		if now == 50 {
			e.Settle()
			atSettle[0] = append([][2]Cycle(nil), before.skips...)
			atSettle[1] = append([][2]Cycle(nil), after.skips...)
		}
	}))
	e.Register(after)
	e.Step(100)
	if len(atSettle[0]) != 1 || atSettle[0][0] != [2]Cycle{0, 51} {
		t.Fatalf("earlier sleeper settled to %v, want [[0 51]]", atSettle[0])
	}
	if len(atSettle[1]) != 1 || atSettle[1][0] != [2]Cycle{0, 50} {
		t.Fatalf("later sleeper settled to %v, want [[0 50]]", atSettle[1])
	}
	if before.polls != 1 || after.polls != 1 {
		t.Fatalf("settle ended a sleep: polls %d/%d, want 1/1", before.polls, after.polls)
	}
	before.coverage(t, 100)
	after.coverage(t, 100)
}
