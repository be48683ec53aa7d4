package bwctrl

import (
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

// gate refuses every offer until opened.
type gate struct {
	open bool
	got  []*mem.Req
}

func (g *gate) Accept(r *mem.Req, now sim.Cycle) bool {
	if !g.open {
		return false
	}
	g.got = append(g.got, r)
	return true
}

// TestBlockedHeadKeepsControllerAwake: while the DRAM refuses its head the
// controller reports work every cycle (its shadowing NextWork must not turn
// a blocked head into a sleep until the window boundary), keeps rolling its
// monitoring windows, and forwards as soon as the downstream accepts.
func TestBlockedHeadKeepsControllerAwake(t *testing.T) {
	g := &gate{}
	c := New(testCfg(), g)
	if !c.Accept(&mem.Req{Part: 1}, 0) {
		t.Fatal("controller refused with empty queues")
	}
	for now := sim.Cycle(0); now < 250; now++ {
		if _, idle := c.NextWork(now); idle {
			t.Fatalf("cycle %d: controller idle with a refused head", now)
		}
		c.Tick(now)
	}
	if len(g.got) != 0 || c.WindowsDone() != 2 {
		t.Fatalf("blocked: forwarded %d, windows %d; want 0 and 2", len(g.got), c.WindowsDone())
	}
	g.open = true
	c.Tick(250)
	if len(g.got) != 1 || c.Stats.Forwarded != 1 {
		t.Fatalf("forwarded %d (stat %d) once the downstream opened, want 1", len(g.got), c.Stats.Forwarded)
	}
	if next, idle := c.NextWork(251); !idle || next != 300 {
		t.Fatalf("drained controller NextWork = (%d, %v), want (300, true)", next, idle)
	}
}
