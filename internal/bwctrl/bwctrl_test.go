package bwctrl

import (
	"reflect"
	"slices"
	"testing"

	"pivot/internal/interconnect"
	"pivot/internal/mem"
	"pivot/internal/sim"
)

type sink struct{ got []*mem.Req }

func (s *sink) Accept(r *mem.Req, now sim.Cycle) bool {
	s.got = append(s.got, r)
	return true
}

func (s *sink) SetRetry(func())              {}
func (s *sink) ChargeRefused(_, _ sim.Cycle) {}

func testCfg() Config {
	return Config{
		Station: interconnect.Config{
			Name: "bw", Component: mem.CompBWCtrl,
			Latency: 0, Bandwidth: 1, CapNormal: 8, CapPrio: 4,
		},
		WindowCycles:       100,
		PeakLinesPerWindow: 10,
	}
}

func TestUsageMeasurement(t *testing.T) {
	c := New(testCfg(), &sink{})
	for i := 0; i < 5; i++ {
		c.Accept(&mem.Req{Part: 2}, sim.Cycle(i))
		c.Tick(sim.Cycle(i))
	}
	// Roll the window.
	for now := sim.Cycle(5); now <= 100; now++ {
		c.Tick(now)
	}
	if got := c.Usage(2); got != 0.5 {
		t.Fatalf("usage = %v, want 0.5 (5 lines / 10 peak)", got)
	}
	if c.WindowsDone() != 1 {
		t.Fatalf("windows done = %d, want 1", c.WindowsDone())
	}
}

func TestMPAMClasses(t *testing.T) {
	c := New(testCfg(), &sink{})
	c.MPAMEnabled = true
	c.SetAllocation(0, Allocation{Min: 1.0, Max: 1.0}) // LC: always under min
	c.SetAllocation(1, Allocation{Min: 0, Max: 0.1})   // BE: capped low

	// Window 1: BE pushes 5 lines (usage 0.5 > max 0.1), LC pushes 1.
	for i := 0; i < 5; i++ {
		c.Accept(&mem.Req{Part: 1}, 0)
	}
	c.Accept(&mem.Req{Part: 0}, 0)
	for now := sim.Cycle(0); now <= 101; now++ {
		c.Tick(now)
	}
	if got := c.ClassOf(0); got != ClassHigh {
		t.Fatalf("LC class = %v, want high", got)
	}
	if got := c.ClassOf(1); got != ClassLow {
		t.Fatalf("BE class = %v, want low (over max)", got)
	}
	// Unconfigured partition stays medium.
	if got := c.ClassOf(5); got != ClassMedium {
		t.Fatalf("unconfigured class = %v, want medium", got)
	}
}

func TestClassOrderingInQueue(t *testing.T) {
	dn := &sink{}
	c := New(testCfg(), dn)
	c.MPAMEnabled = true
	c.SetAllocation(0, Allocation{Min: 1.0, Max: 1.0})
	c.SetAllocation(1, Allocation{Min: 0, Max: 0.01})

	// Force classes by rolling one window with traffic.
	for i := 0; i < 5; i++ {
		c.Accept(&mem.Req{Part: 1}, 0)
		c.Tick(sim.Cycle(i))
	}
	for now := sim.Cycle(5); now <= 101; now++ {
		c.Tick(now)
	}
	dn.got = nil

	be := &mem.Req{Part: 1}
	lc := &mem.Req{Part: 0}
	c.Accept(be, 102)
	c.Accept(lc, 102)
	c.Tick(102)
	c.Tick(103)
	if len(dn.got) != 2 || dn.got[0] != lc {
		t.Fatal("high-class LC request did not bypass low-class BE request")
	}
}

func TestMPAMDisabledIsFCFS(t *testing.T) {
	dn := &sink{}
	c := New(testCfg(), dn)
	c.SetAllocation(0, Allocation{Min: 1.0, Max: 1.0})
	be := &mem.Req{Part: 1}
	lc := &mem.Req{Part: 0}
	c.Accept(be, 0)
	c.Accept(lc, 0)
	c.Tick(0)
	c.Tick(1)
	if dn.got[0] != be {
		t.Fatal("MPAM disabled must stay FCFS")
	}
}

// gate refuses every offer until opened, recording the cycle of each offer
// and counting the refusals charged for skipped re-offers. With atOnce it
// asks for a re-offer from inside each refusal; else openUp calls the
// retry hook.
type gate struct {
	open, atOnce bool
	offers       []sim.Cycle
	charged      int
	got          []*mem.Req
	retry        func()
}

func (g *gate) Accept(r *mem.Req, now sim.Cycle) bool {
	g.offers = append(g.offers, now)
	if !g.open {
		if g.atOnce {
			g.retry()
		}
		return false
	}
	g.got = append(g.got, r)
	return true
}

func (g *gate) openUp() {
	g.open = true
	g.retry()
}

func (g *gate) SetRetry(retry func())            { g.retry = retry }
func (g *gate) ChargeRefused(from, to sim.Cycle) { g.charged += int(to - from) }

// TestBlockedHeadKeepsControllerAwake: while a downstream that asks for a
// retry at once refuses its head, the controller forecasts work every cycle
// (its window bound must not turn the blocked head into a sleep until the
// window boundary), keeps rolling its monitoring windows, and forwards as
// soon as the downstream accepts; drained, it sleeps until the next window
// boundary, owing nothing.
func TestBlockedHeadKeepsControllerAwake(t *testing.T) {
	g := &gate{atOnce: true}
	c := New(testCfg(), g)
	if !c.Accept(&mem.Req{Part: 1}, 0) {
		t.Fatal("controller refused with empty queues")
	}
	for now := sim.Cycle(0); now < 250; now++ {
		if next := c.Tick(now); next != now+1 {
			t.Fatalf("cycle %d: controller forecast %#x with a refused head, want %d", now, next, now+1)
		}
	}
	if len(g.got) != 0 || c.WindowsDone() != 2 || len(g.offers) != 250 {
		t.Fatalf("blocked: forwarded %d, windows %d, offers %d; want 0, 2 and 250",
			len(g.got), c.WindowsDone(), len(g.offers))
	}
	g.open = true
	next := c.Tick(250)
	if len(g.got) != 1 || c.Stats.Forwarded != 1 {
		t.Fatalf("forwarded %d (stat %d) once the downstream opened, want 1", len(g.got), c.Stats.Forwarded)
	}
	if next != 300 {
		t.Fatalf("drained controller forecast %#x, want 300 (not owing)", next)
	}
}

// TestBlockedHeadSleepsThroughWindows: while the DRAM, which promises a
// retry, refuses its head, the controller sleeps from window boundary to
// window boundary — it re-offers only on the boundary ticks that roll its
// monitor — and forwards on the cycle the retry arrives. A dense run ends
// in the same state, having made every re-offer the sleeping run charged.
func TestBlockedHeadSleepsThroughWindows(t *testing.T) {
	run := func(dense bool) (*Controller, *gate) {
		g := &gate{}
		c := New(testCfg(), g)
		if !c.Accept(&mem.Req{Part: 1}, 0) {
			t.Fatal("controller refused with empty queues")
		}
		eng := sim.NewEngine()
		eng.Register(c)
		eng.Register(sim.TickFunc(func(now sim.Cycle) {
			if now == 250 {
				g.openUp()
			}
		}))
		eng.SetDense(dense)
		eng.Step(300)
		return c, g
	}
	c, g := run(false)
	if want := []sim.Cycle{0, 100, 200, 251}; !slices.Equal(g.offers, want) {
		t.Fatalf("offers at %v, want %v", g.offers, want)
	}
	if len(g.got) != 1 || c.WindowsDone() != 2 {
		t.Fatalf("forwarded %d, windows %d; want 1 and 2", len(g.got), c.WindowsDone())
	}
	d, dg := run(true)
	if len(dg.offers) != len(g.offers)+g.charged {
		t.Errorf("dense run offered %d times; the sleeping run offered %d and charged %d",
			len(dg.offers), len(g.offers), g.charged)
	}
	if got, want := c.SnapshotState(), d.SnapshotState(); !reflect.DeepEqual(got, want) {
		t.Errorf("state differs from dense:\nskip  %+v\ndense %+v", got, want)
	}
}
