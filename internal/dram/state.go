package dram

import (
	"pivot/internal/mem"
	"pivot/internal/sim"
)

// BankStateSnap mirrors one bank's row-buffer state.
type BankStateSnap struct {
	OpenRow int64
	ReadyAt sim.Cycle
}

// QueueEntryState is one queued request in serialisable form.
type QueueEntryState struct {
	Req   mem.ReqState
	Enq   sim.Cycle
	Bank  int
	Row   int64
	Ready sim.Cycle
}

// RespEntryState is one completed request waiting out the response latency.
type RespEntryState struct {
	Req mem.ReqState
	Due sim.Cycle
}

// ControllerState is the serialisable form of the memory controller: banks,
// both queues, the per-channel bus timers, in-flight responses, the refresh
// clock and the counters. The claimed scratch array is rebuilt every tick and
// carries no state.
type ControllerState struct {
	Banks       []BankStateSnap
	Normal      []QueueEntryState
	Prio        []QueueEntryState
	BusFreeAt   []sim.Cycle
	PendingResp []RespEntryState
	NextRefresh sim.Cycle
	Stats       Stats
}

func snapQueue(q []entry) []QueueEntryState {
	out := make([]QueueEntryState, len(q))
	for i, e := range q {
		out[i] = QueueEntryState{Req: e.req.State(), Enq: e.enq,
			Bank: e.bank, Row: e.row, Ready: e.ready}
	}
	return out
}

func restoreQueue(q []QueueEntryState) []entry {
	out := make([]entry, len(q))
	for i, e := range q {
		out[i] = entry{req: e.Req.Materialize(), enq: e.Enq,
			bank: e.Bank, row: e.Row, ready: e.Ready}
	}
	return out
}

// SnapshotState captures the controller's complete mutable state.
func (c *Controller) SnapshotState() ControllerState {
	s := ControllerState{
		Banks:       make([]BankStateSnap, len(c.banks)),
		Normal:      snapQueue(c.normal),
		Prio:        snapQueue(c.prio),
		BusFreeAt:   append([]sim.Cycle(nil), c.busFreeAt...),
		PendingResp: make([]RespEntryState, c.pendingResp.Len()),
		NextRefresh: c.nextRefresh,
		Stats:       c.Stats,
	}
	for i, b := range c.banks {
		s.Banks[i] = BankStateSnap{OpenRow: b.openRow, ReadyAt: b.readyAt}
	}
	for i := range s.PendingResp {
		r := c.pendingResp.At(i)
		s.PendingResp[i] = RespEntryState{Req: r.req.State(), Due: r.due}
	}
	return s
}

// RestoreState overwrites the controller's mutable state from a snapshot
// taken on an identically configured controller. Restored queues own freshly
// materialised requests; the Respond wiring is untouched.
func (c *Controller) RestoreState(s ControllerState) {
	for i := range c.banks {
		if i < len(s.Banks) {
			c.banks[i] = bankState{openRow: s.Banks[i].OpenRow, readyAt: s.Banks[i].ReadyAt}
		}
	}
	c.normal = append(c.normal[:0], restoreQueue(s.Normal)...)
	c.prio = append(c.prio[:0], restoreQueue(s.Prio)...)
	copy(c.busFreeAt, s.BusFreeAt)
	c.pendingResp.Reset()
	for _, r := range s.PendingResp {
		c.pendingResp.Push(respEntry{req: r.Req.Materialize(), due: r.Due})
	}
	if c.pendingResp.Len() > 0 {
		c.respHead = c.pendingResp.At(0).due
	} else {
		c.respHead = sim.NeverWork
	}
	c.nextRefresh = s.NextRefresh
	c.Stats = s.Stats
	c.invalidateAct() // derived memo; rebuild from the restored queues
	if c.Ranker != nil {
		c.rerank(c.Ranker.RankGen())
	}
}
