// Package mba models Intel Memory Bandwidth Allocation: a programmable
// throttle sitting between each core's L2 and the shared LLC that inserts
// delays into a partition's request stream, capping its request rate at a
// percentage of the unthrottled rate. This is the "strong isolation by
// underutilisation" baseline of the paper (§II-B).
package mba

import (
	"pivot/internal/interconnect"
	"pivot/internal/mem"
	"pivot/internal/sim"
)

// Throttle gates requests per PARTID before they reach the interconnect.
// A level of 100 means unthrottled; level L < 100 enforces a minimum gap
// between consecutive requests sized so the partition's request rate is L%
// of one request per baseGap cycles.
//
// The throttle is an interconnect.Acceptor only, never a sim.Ticker: it
// mutates state (nextOK, Delayed) only inside Accept, which is reached
// exclusively from port flushes. It cooperates with the skip-ahead engine
// through HeldUntil, which lets the machine's auxTicker forecast a real
// bound — instead of pinning every slot dense — while a port's head-of-line
// request sits in an MBA-inserted delay.
type Throttle struct {
	down    interconnect.Acceptor
	baseGap sim.Cycle

	level  [8]int // percent, 10..100
	nextOK [8]sim.Cycle

	// Delayed counts requests that were held back at least once.
	Delayed uint64
}

// New builds a throttle in front of down. baseGap is the unthrottled
// per-request service interval used to scale delays (typically the DRAM
// burst time).
func New(down interconnect.Acceptor, baseGap sim.Cycle) *Throttle {
	t := &Throttle{down: down, baseGap: baseGap}
	for i := range t.level {
		t.level[i] = 100
	}
	return t
}

// SetLevel programs PartID p's allowed bandwidth percentage (clamped to
// [2, 100]; Intel MBA's nominal floor is the 10% class, but its calibrated
// delay values throttle far below the nominal percentage in practice, which
// the paper's MBA baseline relies on to protect bandwidth-hungry LC tasks).
func (t *Throttle) SetLevel(p mem.PartID, percent int) {
	if percent < 2 {
		percent = 2
	}
	if percent > 100 {
		percent = 100
	}
	if int(p) < len(t.level) {
		t.level[p] = percent
	}
}

// Level returns PartID p's current throttle level.
func (t *Throttle) Level(p mem.PartID) int {
	if int(p) < len(t.level) {
		return t.level[p]
	}
	return 100
}

// gap returns the enforced inter-request gap for level percent.
func (t *Throttle) gap(percent int) sim.Cycle {
	if percent >= 100 {
		return 0
	}
	// rate = percent/100 requests per baseGap => gap = baseGap*100/percent.
	return t.baseGap * sim.Cycle(100) / sim.Cycle(percent)
}

// HeldUntil reports whether a request of PartID p offered at cycle now
// would be refused by the inserted delay, and if so the first cycle at
// which the throttle itself would let it through. The bound only covers
// the throttle's own state: a request released at until may still be
// refused downstream, so callers must treat until as a wake-up cycle, not
// an acceptance guarantee.
func (t *Throttle) HeldUntil(p mem.PartID, now sim.Cycle) (until sim.Cycle, held bool) {
	if int(p) >= len(t.level) {
		return 0, false
	}
	if t.gap(t.level[p]) > 0 && now < t.nextOK[p] {
		return t.nextOK[p], true
	}
	return 0, false
}

// Accept implements interconnect.Acceptor with delay insertion.
func (t *Throttle) Accept(r *mem.Req, now sim.Cycle) bool {
	p := int(r.Part)
	if p >= len(t.level) {
		return t.down.Accept(r, now)
	}
	g := t.gap(t.level[p])
	if g > 0 && now < t.nextOK[p] {
		t.Delayed++
		return false // hold the request upstream: the inserted delay
	}
	if !t.down.Accept(r, now) {
		return false
	}
	if g > 0 {
		t.nextOK[p] = now + g
	}
	return true
}
