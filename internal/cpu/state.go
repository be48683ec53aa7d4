package cpu

import "pivot/internal/sim"

// ROBEntryState mirrors one reorder-buffer slot.
type ROBEntryState struct {
	Op      MicroOp
	Seq     uint64
	State   uint8
	DoneAt  sim.Cycle
	Pending int
	Waiters []uint64
	Stall   sim.Cycle
	LLCMiss bool
}

// CoreState is the serialisable form of a Core's pipeline: the ROB ring
// serialised in place (slot positions preserved, so seq→slot arithmetic and
// the ALU timing wheel stay valid), the rename map, the issue queues, and the
// fetch buffer. In-flight memory requests are NOT here — they live in the
// memory system's own state and complete via CompleteLoad(seq).
type CoreState struct {
	ROB        []ROBEntryState
	Head       int
	Count      int
	NextSeq    uint64
	HeadSeq    uint64
	LastWriter [NumRegs]uint64
	ReadyQ     []uint64
	RetryQ     []uint64
	LQUsed     int
	SQUsed     int
	FetchBuf   MicroOp
	Fetched    bool
	ALUWheel   [256][]uint64
	Stats      Stats
}

// SnapshotState captures the core's complete mutable state.
func (c *Core) SnapshotState() CoreState {
	s := CoreState{
		ROB:        make([]ROBEntryState, len(c.rob)),
		Head:       c.head,
		Count:      c.count,
		NextSeq:    c.nextSeq,
		HeadSeq:    c.headSeq,
		LastWriter: c.lastWriter,
		ReadyQ:     append([]uint64(nil), c.readyQ[c.readyH:]...),
		RetryQ:     append([]uint64(nil), c.retryQ[c.retryH:]...),
		LQUsed:     c.lqUsed,
		SQUsed:     c.sqUsed,
		FetchBuf:   c.fetchBuf,
		Fetched:    c.fetched,
		Stats:      c.Stats,
	}
	for i, e := range c.rob {
		s.ROB[i] = ROBEntryState{
			Op: e.op, Seq: e.seq, State: uint8(e.state), DoneAt: e.doneAt,
			Pending: e.pending, Waiters: append([]uint64(nil), e.waiters...),
			Stall: e.stall, LLCMiss: e.llcMiss,
		}
	}
	for slot, pend := range c.aluWheel {
		if len(pend) > 0 {
			s.ALUWheel[slot] = append([]uint64(nil), pend...)
		}
	}
	return s
}
