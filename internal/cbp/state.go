package cbp

import "pivot/internal/sim"

// PredictorState is the serialisable form of a CBP table.
type PredictorState struct {
	Counters    []uint8
	LastRefresh sim.Cycle
	LongStalls  uint64
	Flagged     uint64
	Lookups     uint64
}

// SnapshotState captures the predictor's complete mutable state.
func (p *Predictor) SnapshotState() PredictorState {
	return PredictorState{
		Counters:    append([]uint8(nil), p.counters...),
		LastRefresh: p.lastRefresh,
		LongStalls:  p.LongStalls,
		Flagged:     p.Flagged,
		Lookups:     p.Lookups,
	}
}
