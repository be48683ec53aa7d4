package workload

import "pivot/internal/cpu"

// ReqGenState is the serialisable form of a ReqGen: the private RNG cursor
// plus the two address cursors. The PC layout and parameters are rebuilt from
// configuration.
type ReqGenState struct {
	RNG      uint64
	SeqPos   uint64
	StorePos uint64
}

// SnapshotState captures the generator's complete mutable state.
func (g *ReqGen) SnapshotState() ReqGenState {
	s := ReqGenState{SeqPos: g.seqPos, StorePos: g.storePos}
	if g.rng != nil {
		s.RNG = g.rng.State()
	}
	return s
}

// BEStreamState is the serialisable form of a BEStream.
type BEStreamState struct {
	RNG       uint64
	StreamPos uint64
	ALULeft   int
	DestRot   uint8
	Pending   cpu.MicroOp
	HasPend   bool
}

// SnapshotState captures the stream's complete mutable state.
func (s *BEStream) SnapshotState() BEStreamState {
	return BEStreamState{
		RNG:       s.rng.State(),
		StreamPos: s.streamPos,
		ALULeft:   s.aluLeft,
		DestRot:   s.destRot,
		Pending:   s.pending,
		HasPend:   s.hasPend,
	}
}
