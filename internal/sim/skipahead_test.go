package sim

import (
	"slices"
	"testing"
)

// probe is a ticker that is quiescent until its wake cycle and active from
// then on, recording every ticked cycle and every compensated skip range so
// tests can prove the engine covers each simulated cycle exactly once. Its
// idle ticks owe compensation.
type probe struct {
	wake  Cycle
	ticks []Cycle
	skips [][2]Cycle
}

func (p *probe) Tick(now Cycle) Cycle {
	p.ticks = append(p.ticks, now)
	if now+1 < p.wake {
		return Owing(p.wake)
	}
	return now + 1
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

// wantSkips fails unless p was compensated in exactly the ranges want.
func (p *probe) wantSkips(t *testing.T, name string, want ...[2]Cycle) {
	t.Helper()
	if !slices.Equal(p.skips, want) {
		t.Fatalf("%s skips = %v, want %v", name, p.skips, want)
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
	if len(a.ticks) != 201 { // cycle 0, then active 100..299
		t.Fatalf("a ticked %d cycles, want 201", len(a.ticks))
	}
	if len(b.ticks) != 51 { // cycle 0, then active 250..299
		t.Fatalf("b ticked %d cycles, want 51", len(b.ticks))
	}
	// Each probe sleeps once, from the cycle after its first Tick until its
	// forecast, and is compensated for that span in a single call — even
	// b, whose last 150 sleeping cycles pass while a ticks every cycle.
	a.wantSkips(t, "a", [2]Cycle{1, 100})
	b.wantSkips(t, "b", [2]Cycle{1, 250})
}

// TestStepNeverOvershoots: a bulk jump is clamped to the Step window even
// when the earliest reported work lies far beyond it, so absolute boundaries
// (audit epochs, stats epochs, cycle budgets) are always honoured. No
// forecast survives a Step, so the probe is ticked once at each Step's
// start.
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
	if !slices.Equal(p.ticks, []Cycle{0, 123, 246, 369, 492}) {
		t.Fatalf("quiescent probe ticked at %v, want once per Step", p.ticks)
	}
}

// TestAwakeSlotPinsDense: a ticker that always stays awake (a TickFunc)
// must be ticked every cycle, and its presence must prevent any global
// jump. The sleeping probe beside it is ticked once and compensated once,
// for its whole sleep, when Step returns.
func TestAwakeSlotPinsDense(t *testing.T) {
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
	if len(p.ticks) != 1 {
		t.Fatalf("probe ticked %d times, want 1", len(p.ticks))
	}
	p.wantSkips(t, "probe", [2]Cycle{1, 500})
}

// TestDenseModeIgnoresReporters: the -dense escape hatch must tick every
// component every cycle, whatever it forecasts, and never call SkipCycles.
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
	if !slices.Equal(checks, want) {
		t.Fatalf("stop checked at %v, want %v", checks, want)
	}
	p.coverage(t, 700)
}

// periodic is a probe with work at every multiple of period and nothing in
// between.
type periodic struct {
	probe
	period Cycle
}

func (p *periodic) Tick(now Cycle) Cycle {
	p.ticks = append(p.ticks, now)
	return Owing(now + p.period - now%p.period)
}

// TestSleeperTickedOncePerSleep: while a neighbour ticks every cycle (so
// the engine never jumps), a sleeping slot is ticked only when its forecast
// expires — not every cycle — and each sleep span is compensated in one
// call.
func TestSleeperTickedOncePerSleep(t *testing.T) {
	p := &periodic{period: 100}
	e := NewEngine()
	e.Register(TickFunc(func(Cycle) {}))
	e.Register(p)
	e.Step(1000)
	p.coverage(t, 1000)
	if len(p.ticks) != 10 || len(p.skips) != 10 {
		t.Fatalf("%d ticks, %d skip ranges; want 10 and 10", len(p.ticks), len(p.skips))
	}
	for i, r := range p.skips {
		if want := [2]Cycle{Cycle(i)*100 + 1, Cycle(i+1) * 100}; r != want {
			t.Fatalf("skip range %d = %v, want %v", i, r, want)
		}
	}
}

// TestBusySlotOneCallPerCycle: a slot that always has work costs exactly
// one call per cycle — its Tick, in cycle order — and is never
// compensated, while a sleeper beside it comes and goes.
func TestBusySlotOneCallPerCycle(t *testing.T) {
	busy := &probe{}
	sleeper := &periodic{period: 37}
	e := NewEngine()
	e.Register(sleeper)
	e.Register(busy)
	e.Step(1000)
	want := make([]Cycle, 1000)
	for i := range want {
		want[i] = Cycle(i)
	}
	if !slices.Equal(busy.ticks, want) || len(busy.skips) != 0 {
		t.Fatalf("busy slot: %d ticks, %d skips; want one tick per cycle, in order, and no skips",
			len(busy.ticks), len(busy.skips))
	}
	sleeper.coverage(t, 1000)
}

// mailbox sleeps until a message is posted; its Tick consumes the message.
// Posting goes through the slot's Waker, as a machine component's input
// does: post wakes the slot, postAt brings its sleep forward to the
// message's due cycle. Its idle ticks owe compensation.
type mailbox struct {
	probe
	waker Waker
	msgs  []Cycle // due cycles of the messages not yet consumed
	seen  []Cycle // cycles whose Tick consumed a message
	// settledAt records the engine cycle of each SkipCycles call.
	e         *Engine
	settledAt []Cycle
}

func (m *mailbox) SetWaker(w Waker) { m.waker = w }

func (m *mailbox) post(now Cycle) {
	m.waker.Wake()
	m.msgs = append(m.msgs, now)
}

func (m *mailbox) postAt(due Cycle) {
	m.waker.WakeAt(due)
	m.msgs = append(m.msgs, due)
}

func (m *mailbox) SkipCycles(from, to Cycle) {
	m.probe.SkipCycles(from, to)
	if m.e != nil {
		m.settledAt = append(m.settledAt, m.e.Now())
	}
}

func (m *mailbox) Tick(now Cycle) Cycle {
	m.ticks = append(m.ticks, now)
	next := NeverWork
	keep := m.msgs[:0]
	for _, due := range m.msgs {
		if due <= now {
			m.seen = append(m.seen, now)
			continue
		}
		keep = append(keep, due)
		next = min(next, due)
	}
	m.msgs = keep
	return Owing(max(next, now+1))
}

// mailRun ticks a mailbox between two posters, one ordered before it and
// one after, each called every cycle, and returns it after Step(n).
func mailRun(dense bool, n Cycle, early, late func(mb *mailbox, now Cycle)) *mailbox {
	mb := &mailbox{}
	e := NewEngine()
	mb.e = e
	e.SetDense(dense)
	e.Register(TickFunc(func(now Cycle) { early(mb, now) }))
	e.Register(mb)
	e.Register(TickFunc(func(now Cycle) { late(mb, now) }))
	e.Step(n)
	return mb
}

// TestWakeOrderMatchesDense: a Wake from a slot ordered before the sleeper
// is seen in the same cycle, one from a slot ordered after it in the next
// cycle — exactly when a dense run's Tick consumes the message — and the
// sleeper's compensation stops where the dense run's idle ticks stopped.
func TestWakeOrderMatchesDense(t *testing.T) {
	run := func(dense bool) *mailbox {
		return mailRun(dense, 40,
			func(mb *mailbox, now Cycle) {
				if now == 10 {
					mb.post(now)
				}
			},
			func(mb *mailbox, now Cycle) {
				if now == 20 {
					mb.post(now)
				}
			})
	}
	ref, got := run(true), run(false)
	if want := []Cycle{10, 21}; !slices.Equal(ref.seen, want) {
		t.Fatalf("dense saw messages at %v, want %v", ref.seen, want)
	}
	if !slices.Equal(got.seen, ref.seen) {
		t.Fatalf("skip saw messages at %v, dense at %v", got.seen, ref.seen)
	}
	got.coverage(t, 40)
	// Asleep from 1; the early wake settles up to cycle 10 (ticked), the
	// late one through cycle 20 (elided before the wake), and Step's exit
	// settles the final sleep.
	got.wantSkips(t, "mailbox", [2]Cycle{1, 10}, [2]Cycle{11, 21}, [2]Cycle{22, 40})
}

// TestWakeAtDefersTickAndSettle: a WakeAt that brings a sleep forward to a
// later cycle neither ticks nor settles the sleeper before that cycle, from
// either side of it in the tick order, and the message is still consumed
// when a dense run consumes it.
func TestWakeAtDefersTickAndSettle(t *testing.T) {
	for _, before := range []bool{true, false} {
		poster := func(mb *mailbox, now Cycle) {
			if now == 10 {
				mb.postAt(30)
			}
		}
		idle := func(*mailbox, Cycle) {}
		run := func(dense bool) *mailbox {
			if before {
				return mailRun(dense, 60, poster, idle)
			}
			return mailRun(dense, 60, idle, poster)
		}
		ref, got := run(true), run(false)
		if !slices.Equal(ref.seen, []Cycle{30}) || !slices.Equal(got.seen, ref.seen) {
			t.Fatalf("poster before=%v: skip saw messages at %v, dense at %v, want [30]", before, got.seen, ref.seen)
		}
		if !slices.Equal(got.ticks, []Cycle{0, 30}) {
			t.Fatalf("poster before=%v: sleeper ticked at %v, want [0 30]", before, got.ticks)
		}
		if !slices.Equal(got.settledAt, []Cycle{30, 60}) {
			t.Fatalf("poster before=%v: sleeper settled at cycles %v, want [30 60]", before, got.settledAt)
		}
		got.coverage(t, 60)
		got.wantSkips(t, "mailbox", [2]Cycle{1, 30}, [2]Cycle{31, 60})
	}
}

// TestWakeAtByTurnIsWake: a WakeAt whose cycle is not after the sleeper's
// next turn — the current cycle for a sleeper ordered after the poster,
// the next cycle for one ordered before it — behaves exactly like Wake:
// same ticks, same settles, same consumption cycle.
func TestWakeAtByTurnIsWake(t *testing.T) {
	for _, before := range []bool{true, false} {
		for _, due := range []Cycle{9, 10, 11} {
			if before && due == 11 {
				continue // after the sleeper's turn: a real deferral
			}
			at := func(mb *mailbox, now Cycle) {
				if now == 10 {
					mb.postAt(due)
				}
			}
			wake := func(mb *mailbox, now Cycle) {
				if now == 10 {
					mb.post(due)
				}
			}
			idle := func(*mailbox, Cycle) {}
			run := func(post func(*mailbox, Cycle)) *mailbox {
				if before {
					return mailRun(false, 40, post, idle)
				}
				return mailRun(false, 40, idle, post)
			}
			got, ref := run(at), run(wake)
			if !slices.Equal(got.ticks, ref.ticks) || !slices.Equal(got.skips, ref.skips) ||
				!slices.Equal(got.settledAt, ref.settledAt) || !slices.Equal(got.seen, ref.seen) {
				t.Fatalf("poster before=%v due %d: WakeAt ticks %v skips %v seen %v; Wake ticks %v skips %v seen %v",
					before, due, got.ticks, got.skips, got.seen, ref.ticks, ref.skips, ref.seen)
			}
			got.coverage(t, 40)
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
			atSettle[0] = slices.Clone(before.skips)
			atSettle[1] = slices.Clone(after.skips)
		}
	}))
	e.Register(after)
	e.Step(100)
	if !slices.Equal(atSettle[0], [][2]Cycle{{1, 51}}) {
		t.Fatalf("earlier sleeper settled to %v, want [[1 51]]", atSettle[0])
	}
	if !slices.Equal(atSettle[1], [][2]Cycle{{1, 50}}) {
		t.Fatalf("later sleeper settled to %v, want [[1 50]]", atSettle[1])
	}
	if len(before.ticks) != 1 || len(after.ticks) != 1 {
		t.Fatalf("settle ended a sleep: ticks %d/%d, want 1/1", len(before.ticks), len(after.ticks))
	}
	before.coverage(t, 100)
	after.coverage(t, 100)
}

// meter alternates, every period cycles, between a phase whose idle ticks
// count (its sleeps owe) and one whose idle ticks change nothing (its
// sleeps owe nothing).
type meter struct {
	t       *testing.T
	period  Cycle
	owing   bool
	counted uint64
	skips   int
	waker   Waker
}

func (m *meter) SetWaker(w Waker) { m.waker = w }

func (m *meter) Tick(now Cycle) Cycle {
	if now%m.period == 0 {
		m.owing = !m.owing
	} else if m.owing {
		m.counted++
	}
	next := now + m.period - now%m.period
	if m.owing {
		return Owing(next)
	}
	return next
}

func (m *meter) SkipCycles(from, to Cycle) {
	if !m.owing {
		m.t.Fatalf("sleep over [%d, %d) owes nothing, yet it was settled", from, to)
	}
	m.skips++
	m.counted += uint64(to - from)
}

// TestUnowedSleepNeverSettled: a sleep whose forecast is not marked Owing
// is never compensated — not when it expires, not when it is woken, not
// when an observer settles, not when Step returns — and the counters still
// match a dense run.
func TestUnowedSleepNeverSettled(t *testing.T) {
	run := func(dense bool) *meter {
		m := &meter{t: t, period: 50}
		e := NewEngine()
		e.SetDense(dense)
		e.Register(TickFunc(func(now Cycle) {
			if now%13 == 0 {
				m.waker.Wake()
			}
		}))
		e.Register(m)
		e.Register(TickFunc(func(now Cycle) {
			if now%7 == 0 {
				e.Settle()
			}
		}))
		for i := 0; i < 10; i++ {
			e.Step(97)
		}
		return m
	}
	ref, got := run(true), run(false)
	if got.counted != ref.counted {
		t.Fatalf("skip counted %d, dense %d", got.counted, ref.counted)
	}
	if got.skips == 0 {
		t.Fatal("no owing sleep was settled; the test exercises nothing")
	}
}
