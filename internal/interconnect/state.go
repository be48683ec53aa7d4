package interconnect

import (
	"pivot/internal/mem"
	"pivot/internal/ring"
	"pivot/internal/sim"
)

// EntryState is one queued request in serialisable form.
type EntryState struct {
	Req   mem.ReqState
	Ready sim.Cycle
	Enq   sim.Cycle
}

// StationState is the serialisable form of a Station: both queues (with the
// requests they own, by value) and the traffic counters. Wiring (downstream,
// Ranker, PriorityEnabled) is configuration, reapplied by rebuilding
// the machine; cached ranks and the scan memo are rebuilt on restore.
type StationState struct {
	Normal []EntryState
	Prio   []EntryState
	Stats  Stats
}

func snapQueue(q *ring.Ring[entry]) []EntryState {
	out := make([]EntryState, q.Len())
	for i := range out {
		e := q.At(i)
		out[i] = EntryState{Req: e.req.State(), Ready: e.ready, Enq: e.enq}
	}
	return out
}

func restoreQueue(q *ring.Ring[entry], st []EntryState) {
	q.Reset()
	for _, e := range st {
		q.Push(entry{req: e.Req.Materialize(), ready: e.Ready, enq: e.Enq})
	}
}

// SnapshotState captures the station's mutable state.
func (s *Station) SnapshotState() StationState {
	return StationState{
		Normal: snapQueue(&s.normal),
		Prio:   snapQueue(&s.prio),
		Stats:  s.Stats,
	}
}

// RestoreState overwrites the station's queues and counters from a snapshot.
// The restored queues own freshly materialised requests.
func (s *Station) RestoreState(st StationState) {
	restoreQueue(&s.normal, st.Normal)
	restoreQueue(&s.prio, st.Prio)
	s.Stats = st.Stats
	if s.Ranker != nil {
		s.rerank(s.Ranker.RankGen())
	}
	s.resetScan()
}
