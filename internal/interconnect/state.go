package interconnect

import (
	"pivot/internal/mem"
	"pivot/internal/sim"
)

// EntryState is one queued request in serialisable form.
type EntryState struct {
	Req   mem.ReqState
	Ready sim.Cycle
	Enq   sim.Cycle
}

// StationState is the serialisable form of a Station: both queues (with the
// requests they own, by value, the normal queue in arrival order) and the
// traffic counters. Wiring (downstream, Ranker, PriorityEnabled) is
// configuration, reapplied by rebuilding the machine; the lanes, arrival
// sequences and blocked head are derived and rebuilt on restore.
type StationState struct {
	Normal []EntryState
	Prio   []EntryState
	Stats  Stats
}

func entryState(e *entry) EntryState {
	return EntryState{Req: e.req.State(), Ready: e.ready, Enq: e.enq}
}

// SnapshotState captures the station's mutable state.
func (s *Station) SnapshotState() StationState {
	st := StationState{
		Normal: make([]EntryState, 0, s.nNormal),
		Prio:   make([]EntryState, s.prio.Len()),
		Stats:  s.Stats,
	}
	s.eachNormal(func(e *entry) { st.Normal = append(st.Normal, entryState(e)) })
	for i := range st.Prio {
		st.Prio[i] = entryState(s.prio.At(i))
	}
	return st
}

// RestoreState overwrites the station's queues and counters from a snapshot.
// The restored queues own freshly materialised requests.
func (s *Station) RestoreState(st StationState) {
	s.prio.Reset()
	for _, e := range st.Prio {
		s.prio.Push(entry{req: e.Req.Materialize(), ready: e.Ready, enq: e.Enq})
	}
	for i := range s.lanes {
		s.lanes[i].Reset()
	}
	if s.Ranker != nil {
		s.rankGen = s.Ranker.RankGen()
	}
	for i, e := range st.Normal {
		r := e.Req.Materialize()
		l := &s.lanes[0]
		if s.Ranker != nil {
			l = s.lane(s.Ranker.Rank(r))
		}
		l.Push(entry{req: r, ready: e.Ready, enq: e.Enq, seq: uint64(i)})
	}
	s.nNormal = len(st.Normal)
	s.seq = uint64(len(st.Normal))
	s.blocked = nil
	s.Stats = st.Stats
}
