package machine

import (
	"math/bits"

	"pivot/internal/cache"
	"pivot/internal/cpu"
	"pivot/internal/mem"
	"pivot/internal/prefetch"
	"pivot/internal/sim"
)

// delayQ schedules fixed-latency completion events on a 256-slot timing
// wheel. Every latency scheduled through it (L1/L2 hits, LLC-hit responses)
// is far below 256 cycles, so slot collisions across laps cannot occur.
//
// count caches the wheel occupancy for skip-ahead's quiescence poll, and occ
// is a 256-bit bitmap of non-empty slots so nextDue is a word scan instead of
// a slot walk. Both are derived state — never serialised; RestoreState
// rebuilds them with recount.
type delayQ struct {
	wheel [256][]delayed

	count int
	occ   [4]uint64
}

// delayKind discriminates the four fixed-latency completion events the wheel
// carries. The events are plain descriptors rather than closures so that the
// wheel's contents — completions in flight — are serialisable for
// checkpointing.
type delayKind uint8

const (
	// delayLoadDone completes an L1-hit load (core + seq).
	delayLoadDone delayKind = iota
	// delayFillLocal fills a core's L1 after an L2 hit and wakes the line's
	// coalesced MSHR waiters (core + line).
	delayFillLocal
	// delayEgress appends req to its core's egress queue after the
	// private-cache lookup latency (req).
	delayEgress
	// delayDeliver delivers an LLC-hit response to the requesting core (req).
	delayDeliver
)

// delayed is one scheduled completion event.
type delayed struct {
	due  sim.Cycle
	kind delayKind
	core int
	seq  uint64
	line uint64
	req  *mem.Req // delayEgress / delayDeliver only
}

func (d *delayQ) after(e delayed) {
	slot := int(e.due) & 255
	d.wheel[slot] = append(d.wheel[slot], e)
	d.count++
	d.occ[slot>>6] |= 1 << uint(slot&63)
}

// take empties slot and returns its events, keeping count and occ coherent.
// Callers dispatch the returned batch; events scheduled during dispatch
// always land in other slots (latencies are in [1, 256)).
func (d *delayQ) take(slot int) []delayed {
	pend := d.wheel[slot]
	if len(pend) == 0 {
		return nil
	}
	d.wheel[slot] = pend[:0]
	d.count -= len(pend)
	d.occ[slot>>6] &^= 1 << uint(slot&63)
	return pend
}

// nextDue reports the earliest cycle at which a wheel event falls due, or
// (0, false) when an event is due at now and the wheel must be drained this
// cycle. Every live event's due cycle lies in [now, now+256) — latencies are
// strictly below 256 and past-due events were drained the cycle they fell
// due — so each slot holds at most one distinct due cycle and the first
// occupied slot at or after now (circularly) carries the exact earliest due.
// The occ bitmap turns that search into at most four word scans.
func (d *delayQ) nextDue(now sim.Cycle) (sim.Cycle, bool) {
	if d.count == 0 {
		return sim.NeverWork, true
	}
	s := int(now) & 255
	w, b := s>>6, uint(s&63)
	if x := d.occ[w] >> b; x != 0 {
		off := sim.Cycle(bits.TrailingZeros64(x))
		if off == 0 {
			return 0, false
		}
		return now + off, true
	}
	// Remaining words in circular order; the wrap back into word w covers its
	// low b bits (slots now+256-b .. now+255).
	off := sim.Cycle(64 - b)
	for i := 1; i <= 4; i++ {
		x := d.occ[(w+i)&3]
		if i == 4 {
			x &= 1<<b - 1
		}
		if x != 0 {
			return now + off + sim.Cycle((i-1)*64+bits.TrailingZeros64(x)), true
		}
	}
	return 0, false // unreachable while count > 0; fail dense, not idle
}

// recount rebuilds the derived occupancy caches after a checkpoint restore.
func (d *delayQ) recount() {
	d.count = 0
	d.occ = [4]uint64{}
	for slot := range d.wheel {
		if n := len(d.wheel[slot]); n > 0 {
			d.count += n
			d.occ[slot>>6] |= 1 << uint(slot&63)
		}
	}
}

// drainDelays dispatches every completion event due this cycle. Dispatched
// events may schedule new ones, but always at a sub-256-cycle latency, never
// into the slot being drained.
func (m *Machine) drainDelays(now sim.Cycle) {
	for _, e := range m.delays.take(int(now) & 255) {
		m.dispatchDelayed(e, now)
	}
}

func (m *Machine) dispatchDelayed(e delayed, now sim.Cycle) {
	switch e.kind {
	case delayLoadDone:
		m.Cores[e.core].CompleteLoad(e.seq, false, now)
	case delayFillLocal:
		m.ports[e.core].fillLocal(e.line, now)
	case delayEgress:
		m.reqsDelayed--
		p := m.ports[e.req.CoreID]
		p.out = append(p.out, e.req)
		m.outOcc |= 1 << uint(e.req.CoreID)
	case delayDeliver:
		m.reqsDelayed--
		m.deliver(e.req, now, false)
	}
}

// corePort is one core's private memory hierarchy (L1D + L2) and its egress
// into the shared path. It implements cpu.MemPort.
type corePort struct {
	m    *Machine
	id   int
	isLC bool

	// storeCritical marks this core's store misses as priority traffic:
	// FullPath prioritises *all* LC memory accesses, stores included,
	// whereas PIVOT deliberately never prioritises stores (§III-B).
	storeCritical bool

	l1   *cache.Cache
	l2   *cache.Cache
	mshr *cache.MSHRFile
	pf   *prefetch.Prefetcher // nil unless Options.Prefetch

	// out holds L2-miss requests awaiting acceptance by the MBA throttle /
	// interconnect; bounded by Cfg.PortOutCap for back-pressure.
	out []*mem.Req
}

func newCorePort(m *Machine, id int, isLC bool) *corePort {
	p := &corePort{
		m:    m,
		id:   id,
		isLC: isLC,
		l1:   cache.MustNew(m.Cfg.L1),
		l2:   cache.MustNew(m.Cfg.L2),
		mshr: cache.NewMSHRFile(m.Cfg.L1.MSHRs),
	}
	if m.Opt.Prefetch {
		cfg := prefetch.DefaultConfig()
		cfg.LineBytes = m.Cfg.L1.LineBytes
		p.pf = prefetch.New(cfg)
	}
	return p
}

func (p *corePort) lineOf(addr uint64) uint64 {
	return addr &^ uint64(p.m.Cfg.L1.LineBytes-1)
}

// Load implements cpu.MemPort.
func (p *corePort) Load(lr cpu.LoadRequest, now sim.Cycle) bool {
	line := p.lineOf(lr.Addr)
	part := mem.PartID(p.id)
	l1Hit := sim.Cycle(p.m.Cfg.L1.HitCycles)

	if p.l1.Lookup(line, part) {
		p.m.delays.after(delayed{due: now + l1Hit, kind: delayLoadDone, core: p.id, seq: lr.Seq})
		return true
	}
	if e := p.mshr.Lookup(line); e != nil {
		e.Waiters = append(e.Waiters, lr.Seq)
		return true
	}
	if p.mshr.Full() || len(p.out) >= p.m.Cfg.PortOutCap {
		return false // structural stall; the core retries
	}

	l2Hit := sim.Cycle(p.m.Cfg.L2.HitCycles)
	if p.l2.Lookup(line, part) {
		e, _ := p.mshr.Allocate(line)
		e.Waiters = append(e.Waiters, lr.Seq)
		p.m.delays.after(delayed{due: now + l1Hit + l2Hit, kind: delayFillLocal, core: p.id, line: line})
		return true
	}

	// L2 miss: a shared-path request is born.
	e, _ := p.mshr.Allocate(line)
	e.Waiters = append(e.Waiters, lr.Seq)
	r := p.m.newReq()
	r.Addr = line
	r.PC = lr.PC
	r.CoreID = p.id
	r.Part = part
	r.Critical = lr.Critical
	r.LCTask = p.isLC
	r.Issued = now
	r.Hop(mem.CompL1, now, l1Hit)
	r.Hop(mem.CompL2, now+l1Hit, l2Hit)
	p.m.delayReq(now+l1Hit+l2Hit, delayEgress, r)
	p.maybePrefetch(line, now)
	return true
}

// maybePrefetch trains the stream prefetcher on a demand miss and issues
// covered prefetch requests down the shared path. Prefetches never carry the
// critical bit and wake no instruction; they exist to fill caches ahead of
// the stream and to generate the realistic extra bandwidth demand explicit
// prefetching costs.
func (p *corePort) maybePrefetch(line uint64, now sim.Cycle) {
	if p.pf == nil {
		return
	}
	for _, cand := range p.pf.OnMiss(line) {
		// Prefetches are second-class citizens: they may use only half the
		// miss buffers and egress slots, so a burst can never starve demand
		// misses of structural resources.
		if p.mshr.Len() >= p.m.Cfg.L1.MSHRs/2 || len(p.out) >= p.m.Cfg.PortOutCap/2 {
			return
		}
		if p.l1.Contains(cand) || p.l2.Contains(cand) || p.mshr.Lookup(cand) != nil {
			continue
		}
		if _, fresh := p.mshr.Allocate(cand); !fresh {
			continue
		}
		r := p.m.newReq()
		r.Addr = cand
		r.CoreID = p.id
		r.Part = mem.PartID(p.id)
		r.LCTask = p.isLC
		r.Prefetch = true
		r.Issued = now
		p.m.delayReq(now+sim.Cycle(p.m.Cfg.L1.HitCycles), delayEgress, r)
	}
}

// fillLocal completes an L2-hit: fill L1 and wake all coalesced waiters.
func (p *corePort) fillLocal(line uint64, now sim.Cycle) {
	p.l1.Insert(line, mem.PartID(p.id), false)
	if e := p.mshr.Fill(line); e != nil {
		for _, w := range e.Waiters {
			p.m.Cores[p.id].CompleteLoad(w, false, now)
		}
	}
	// The freed MSHR may unblock a structurally refused load: drop the
	// core's cached idle verdict.
	p.m.Cores[p.id].WakeIdle()
}

// RetryReady implements cpu.RetryPort: would a retry of the blocked head op
// be accepted this cycle? Mirrors exactly the refusal conditions of Load and
// Store above; it must never report false when the op would in fact issue,
// or the core could sleep through its own unblocking.
func (p *corePort) RetryReady(kind cpu.OpKind, addr uint64) bool {
	line := p.lineOf(addr)
	if kind == cpu.OpStore {
		return p.l1.Contains(line) || len(p.out) < p.m.Cfg.PortOutCap
	}
	return p.l1.Contains(line) || p.mshr.Lookup(line) != nil ||
		(!p.mshr.Full() && len(p.out) < p.m.Cfg.PortOutCap)
}

// SkipRetries implements cpu.RetryPort: account for n elided retry attempts
// of a blocked op. Each dense-loop attempt performs one mutating L1 miss
// probe (LRU stamp + miss counters) before being structurally refused —
// Loads via the l1.Lookup at the top of Load, Stores likewise — so n
// attempts compensate as n miss probes. Everything else on the refusal path
// (MSHR lookup, capacity checks) is pure.
func (p *corePort) SkipRetries(kind cpu.OpKind, addr uint64, n uint64) {
	p.l1.SkipMissProbes(mem.PartID(p.id), n)
}

// Store implements cpu.MemPort. Stores are absorbed by the write buffer
// (they never stall the ROB; §III-B) but misses still travel the shared path
// to generate write bandwidth.
func (p *corePort) Store(addr, pc uint64, now sim.Cycle) bool {
	line := p.lineOf(addr)
	part := mem.PartID(p.id)
	if p.l1.Touch(line, part) { // Lookup + refresh/mark-dirty in one scan
		return true
	}
	if len(p.out) >= p.m.Cfg.PortOutCap {
		return false // write buffer full: SQ backs up
	}
	r := p.m.newReq()
	r.Addr = line
	r.PC = pc
	r.CoreID = p.id
	r.Part = part
	r.IsWrite = true
	r.Critical = p.storeCritical
	r.LCTask = p.isLC
	r.Issued = now
	p.m.delayReq(now+sim.Cycle(p.m.Cfg.L1.HitCycles), delayEgress, r)
	return true
}

// flush pushes pending L2-miss traffic into the MBA throttle / interconnect,
// stopping at the first refusal (in-order egress).
func (p *corePort) flush(now sim.Cycle) {
	popped := false
	for len(p.out) > 0 {
		r := p.out[0]
		if !p.m.thr.Accept(r, now) {
			break
		}
		copy(p.out, p.out[1:])
		p.out = p.out[:len(p.out)-1]
		popped = true
	}
	if popped {
		if len(p.out) == 0 {
			p.m.outOcc &^= 1 << uint(p.id)
		}
		// Freed egress slots may unblock a refused load or store retry.
		p.m.Cores[p.id].WakeIdle()
	}
}
