package prefetch

// ZoneState mirrors one tracked zone.
type ZoneState struct {
	Tag      uint64
	LastLine uint64
	Stride   int64
	Trained  bool
	Valid    bool
	LRU      uint64
}

// PrefetcherState is the serialisable form of a Prefetcher.
type PrefetcherState struct {
	Zones    []ZoneState
	Stamp    uint64
	Trains   uint64
	Issued   uint64
	Misfires uint64
}

// SnapshotState captures the prefetcher's complete mutable state.
func (p *Prefetcher) SnapshotState() PrefetcherState {
	s := PrefetcherState{
		Zones:    make([]ZoneState, len(p.zones)),
		Stamp:    p.stamp,
		Trains:   p.Trains,
		Issued:   p.Issued,
		Misfires: p.Misfires,
	}
	for i, z := range p.zones {
		s.Zones[i] = ZoneState{Tag: z.tag, LastLine: z.lastLine, Stride: z.stride,
			Trained: z.trained, Valid: z.valid, LRU: z.lru}
	}
	return s
}
