package mba

import "pivot/internal/sim"

// ThrottleState is the serialisable form of the MBA throttle: the programmed
// levels (managers change them at run time), the per-partition gap timers and
// the delay counter.
type ThrottleState struct {
	Level   [8]int
	NextOK  [8]sim.Cycle
	Delayed uint64
}

// SnapshotState captures the throttle's mutable state.
func (t *Throttle) SnapshotState() ThrottleState {
	return ThrottleState{Level: t.level, NextOK: t.nextOK, Delayed: t.Delayed}
}
