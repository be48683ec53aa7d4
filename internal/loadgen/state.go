package loadgen

import (
	"pivot/internal/cpu"
	"pivot/internal/load"
	"pivot/internal/sim"
	"pivot/internal/workload"
)

// SourceState is the serialisable form of a Source: the arrival process
// (load-model cursor, next-arrival clock, backlog and full arrival history —
// OnReqEnd indexes it by request ID), the in-flight program buffer, the
// recorded latencies with the drop counter, per-phase completion counts, and
// the embedded request generator's cursors.
type SourceState struct {
	Model       load.ModelState
	NextArrival sim.Cycle
	HasNext     bool
	Backlog     []uint64
	Arrival     []sim.Cycle
	ReqPhase    []uint8
	Buf         []cpu.MicroOp
	BufPos      int
	Latencies   []uint32
	Started     uint64
	Completed   uint64
	LatDropped  uint64
	PhaseDone   []uint64
	Gen         workload.ReqGenState
}

// SnapshotState captures the source's complete mutable state.
func (s *Source) SnapshotState() SourceState {
	return SourceState{
		Model:       s.model.SnapshotState(),
		NextArrival: s.nextArrival,
		HasNext:     s.hasNext,
		Backlog:     append([]uint64(nil), s.backlog...),
		Arrival:     append([]sim.Cycle(nil), s.arrival...),
		ReqPhase:    append([]uint8(nil), s.reqPhase...),
		Buf:         append([]cpu.MicroOp(nil), s.buf...),
		BufPos:      s.bufPos,
		Latencies:   append([]uint32(nil), s.latencies...),
		Started:     s.started,
		Completed:   s.completed,
		LatDropped:  s.latDropped,
		PhaseDone:   append([]uint64(nil), s.phaseDone...),
		Gen:         s.gen.SnapshotState(),
	}
}
