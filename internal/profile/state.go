package profile

import "sort"

// ProfilerState is the serialisable form of a Profiler: per-PC load stats
// sorted by PC for deterministic encoding, plus the total load counter.
type ProfilerState struct {
	Stats      []LoadStat
	TotalLoads uint64
}

// SnapshotState captures the profiler's complete mutable state.
func (p *Profiler) SnapshotState() ProfilerState {
	s := ProfilerState{
		Stats:      make([]LoadStat, 0, len(p.stats)),
		TotalLoads: p.totalLoads,
	}
	for _, st := range p.stats {
		s.Stats = append(s.Stats, *st)
	}
	sort.Slice(s.Stats, func(i, j int) bool { return s.Stats[i].PC < s.Stats[j].PC })
	return s
}
