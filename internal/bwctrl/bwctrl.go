// Package bwctrl implements the memory bandwidth controller MSC, including
// the ARM MPAM mechanism the paper reimplements in gem5 (§IV-E): each
// partition (PARTID) declares an expected bandwidth range; a monitor measures
// usage over 100 000-cycle windows; requests are classified into three
// priority classes — high when the partition is under its minimum allocation,
// low when it is over its maximum, medium otherwise — and the queue serves
// higher classes first.
package bwctrl

import (
	"fmt"

	"pivot/internal/interconnect"
	"pivot/internal/mem"
	"pivot/internal/sim"
	"pivot/internal/stats"
)

// Allocation is a partition's expected bandwidth range, as fractions of the
// channel's peak bandwidth.
type Allocation struct {
	Min float64
	Max float64
}

// Class is an MPAM priority class.
type Class int

// MPAM priority classes; lower value = served first.
const (
	ClassHigh Class = iota
	ClassMedium
	ClassLow
)

// Config sets the controller geometry and monitoring.
type Config struct {
	Station interconnect.Config
	// WindowCycles is the bandwidth-monitor window (100 000 cycles on
	// Kunpeng 920, which the paper follows).
	WindowCycles sim.Cycle
	// PeakLinesPerWindow is the channel's peak deliverable lines per window,
	// used to turn counted lines into a usage fraction.
	PeakLinesPerWindow float64
}

// Controller is the bandwidth-controller MSC. It embeds a Station, so it is
// an interconnect.Downstream and a sim.Ticker.
type Controller struct {
	*interconnect.Station
	cfg Config

	// MPAMEnabled turns class-based selection on (MPAM, FullPath, PIVOT all
	// keep MPAM at this component; Default and MBA do not). It is wiring:
	// set it before the first Tick, since Rank caches depend on it.
	MPAMEnabled bool

	alloc   [8]Allocation
	counted [8]uint64 // lines accepted this window
	usage   [8]float64
	class   [8]Class

	windowStart sim.Cycle
	windowsDone uint64

	// gen is the class generation RankGen reports: bumped whenever a window
	// roll changes any class. Derived state, never serialised — consumers
	// only compare it for equality.
	gen uint64

	// OnRankGen, when set, runs after a window roll bumps gen. It is
	// wiring: every consumer whose engine sleep depends on the cached ranks
	// (the DRAM controller, and a ranked station blocked on its pick) must
	// be woken by the bump.
	OnRankGen func()
}

// New wires a controller that forwards into down.
func New(cfg Config, down interconnect.Downstream) *Controller {
	if cfg.WindowCycles == 0 {
		cfg.WindowCycles = 100_000
	}
	c := &Controller{
		Station: interconnect.New(cfg.Station, down),
		cfg:     cfg,
	}
	for i := range c.class {
		c.class[i] = ClassMedium
	}
	c.Station.Ranker = c
	return c
}

// SetAllocation declares PartID p's expected bandwidth range.
func (c *Controller) SetAllocation(p mem.PartID, a Allocation) {
	if int(p) < len(c.alloc) {
		c.alloc[p] = a
	}
}

// Allocation returns PartID p's declared range.
func (c *Controller) Allocation(p mem.PartID) Allocation {
	if int(p) < len(c.alloc) {
		return c.alloc[p]
	}
	return Allocation{}
}

// Usage returns p's bandwidth usage fraction measured in the last completed
// window. PIVOT's adaptive RRBP threshold reads this.
func (c *Controller) Usage(p mem.PartID) float64 {
	if int(p) < len(c.usage) {
		return c.usage[p]
	}
	return 0
}

// ClassOf returns p's current MPAM class.
func (c *Controller) ClassOf(p mem.PartID) Class {
	if int(p) < len(c.class) {
		return c.class[p]
	}
	return ClassMedium
}

// Rank implements mem.Ranker: a request's MPAM class, or 0 for every request
// while MPAM is off. The controller's own station and, under PIVOT and
// FullPath, every other MSC schedule by it.
func (c *Controller) Rank(r *mem.Req) int {
	if !c.MPAMEnabled {
		return 0
	}
	return int(c.ClassOf(r.Part))
}

// RankGen implements mem.Ranker: the class generation, which changes only
// when a window roll moves some partition's class.
func (c *Controller) RankGen() uint64 { return c.gen }

// Accept counts the request against its partition's monitor, then enqueues.
func (c *Controller) Accept(r *mem.Req, now sim.Cycle) bool {
	ok := c.Station.Accept(r, now)
	if ok && int(r.Part) < len(c.counted) {
		c.counted[r.Part]++
	}
	return ok
}

// Tick rolls the monitoring window and forwards queued requests. Its
// forecast is the embedded Station's, bounded by the next window boundary:
// rollWindow mutates usage and class state even in a window with zero
// traffic, so a sleep may never span it.
func (c *Controller) Tick(now sim.Cycle) sim.Cycle {
	if now-c.windowStart >= c.cfg.WindowCycles {
		c.rollWindow()
		c.windowStart = now
	}
	return sim.NoLaterThan(c.Station.Tick(now), c.windowStart+c.cfg.WindowCycles)
}

// WindowsDone reports how many monitoring windows have completed; usage
// readings are meaningless before the first.
func (c *Controller) WindowsDone() uint64 { return c.windowsDone }

// RegisterStats registers the controller's instruments under prefix: the
// embedded station's queue stats plus, for each of the first `parts`
// partitions, the monitored usage fraction and MPAM class — the per-PartID
// allocation decisions the RRBP threshold adaptation consumes each epoch.
func (c *Controller) RegisterStats(reg *stats.Registry, prefix string, parts int) {
	c.Station.RegisterStats(reg, prefix)
	reg.Counter(prefix+".windows_done", func() uint64 { return c.windowsDone })
	if parts > len(c.alloc) {
		parts = len(c.alloc)
	}
	for p := 0; p < parts; p++ {
		p := p
		reg.Gauge(fmt.Sprintf("%s.part%d.usage", prefix, p),
			func() float64 { return c.usage[p] })
		reg.Gauge(fmt.Sprintf("%s.part%d.class", prefix, p),
			func() float64 { return float64(c.class[p]) })
	}
}

func (c *Controller) rollWindow() {
	c.windowsDone++
	peak := c.cfg.PeakLinesPerWindow
	if peak <= 0 {
		peak = 1
	}
	prev := c.class
	for p := range c.counted {
		u := float64(c.counted[p]) / peak
		c.usage[p] = u
		c.counted[p] = 0
		a := c.alloc[p]
		switch {
		case a.Min == 0 && a.Max == 0:
			c.class[p] = ClassMedium // unconfigured partition
		case u < a.Min:
			c.class[p] = ClassHigh
		case a.Max > 0 && u > a.Max:
			c.class[p] = ClassLow
		default:
			c.class[p] = ClassMedium
		}
	}
	if c.class != prev {
		c.gen++
		if c.OnRankGen != nil {
			c.OnRankGen()
		}
	}
}
