package bwctrl

import (
	"pivot/internal/interconnect"
	"pivot/internal/sim"
)

// ControllerState is the serialisable form of the bandwidth controller: the
// embedded station's queues, the per-partition monitor and the window clock.
// Allocations are included because resource managers reprogram them at run
// time (they are not always derivable from the initial wiring).
type ControllerState struct {
	Station     interconnect.StationState
	Alloc       [8]Allocation
	Counted     [8]uint64
	Usage       [8]float64
	Class       [8]Class
	WindowStart sim.Cycle
	WindowsDone uint64
}

// SnapshotState captures the controller's complete mutable state.
func (c *Controller) SnapshotState() ControllerState {
	return ControllerState{
		Station:     c.Station.SnapshotState(),
		Alloc:       c.alloc,
		Counted:     c.counted,
		Usage:       c.usage,
		Class:       c.class,
		WindowStart: c.windowStart,
		WindowsDone: c.windowsDone,
	}
}

// RestoreState overwrites the controller's mutable state from a snapshot.
func (c *Controller) RestoreState(s ControllerState) {
	c.Station.RestoreState(s.Station)
	c.alloc = s.Alloc
	c.counted = s.Counted
	c.usage = s.Usage
	c.class = s.Class
	c.windowStart = s.WindowStart
	c.windowsDone = s.WindowsDone
	c.gen++ // classes may have changed under every cached rank
}
