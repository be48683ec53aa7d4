package stats

// DistributionState is the serialisable form of a Distribution: the moment
// accumulators, the reservoir contents and the replacement-RNG cursor. The
// seed is rebuilt from the instrument name at construction.
type DistributionState struct {
	Count    uint64
	Sum      float64
	Min, Max float64
	Res      []float64
	RNG      uint64
}

// SnapshotState captures the distribution's complete mutable state.
func (d *Distribution) SnapshotState() DistributionState {
	return DistributionState{
		Count: d.count, Sum: d.sum, Min: d.min, Max: d.max,
		Res: append([]float64(nil), d.res...),
		RNG: d.rng,
	}
}

// SamplerState is the serialisable form of a Sampler: the sample ring
// (oldest-first), the previous raw reads for rate deltas, and the epoch
// bookkeeping. The registry wiring is rebuilt at construction.
type SamplerState struct {
	Samples []Sample // oldest-first
	Prev    []float64
	HasPrev bool
}

// SnapshotState captures the sampler's complete mutable state.
func (s *Sampler) SnapshotState() SamplerState {
	st := SamplerState{
		Samples: make([]Sample, 0, len(s.ring)),
		Prev:    append([]float64(nil), s.prev...),
		HasPrev: s.hasPrev,
	}
	for _, smp := range s.Samples() {
		st.Samples = append(st.Samples, Sample{
			Cycle:  smp.Cycle,
			Values: append([]float64(nil), smp.Values...),
		})
	}
	return st
}
