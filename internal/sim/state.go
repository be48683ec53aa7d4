package sim

// EngineState is the serialisable form of an Engine: the cycle counter. The
// ticker registry is wiring, not state.
type EngineState struct {
	Now Cycle
}

// SnapshotState captures the engine's mutable state.
func (e *Engine) SnapshotState() EngineState { return EngineState{Now: e.now} }

// State exposes the generator's internal state word for state snapshots.
func (r *RNG) State() uint64 { return r.state }
