// Package interconnect provides the queued Station model used for the shared
// memory-system components (MSCs) on the memory path: the L2<->LLC
// interconnect and the coherent memory bus, and (wrapped by package bwctrl)
// the memory bandwidth controller.
//
// A Station has a finite normal queue, an optional finite priority queue for
// requests carrying PIVOT's critical bit, a per-cycle forwarding bandwidth,
// and a fixed traversal latency. When the downstream component refuses a
// request (its queue is full), the head blocks — this back-pressure is what
// makes queueing propagate upstream under bandwidth contention (the paper's
// Figure 4 root cause).
package interconnect

import (
	"pivot/internal/mem"
	"pivot/internal/ring"
	"pivot/internal/sim"
	"pivot/internal/stats"
)

// Acceptor is anything requests can be offered into.
type Acceptor interface {
	// Accept takes ownership of r if it returns true; false means "queue
	// full" and the caller keeps the request.
	Accept(r *mem.Req, now sim.Cycle) bool
}

// Downstream is what a Station forwards into. A refusal is a promise, as
// in gem5's timing protocol (a refused sendTimingReq waits for
// recvReqRetry): once it has refused an offer, the downstream calls the
// retry hook registered through SetRetry when a re-offer could be accepted
// — it freed a queue slot — so a blocked station sleeps instead of
// re-offering its head every cycle. A downstream that cannot tell when it
// will accept calls the hook from inside the refusing Accept, which asks
// for a re-offer on the next cycle.
type Downstream interface {
	Acceptor
	// SetRetry registers the upstream's retry hook, replacing any earlier
	// one.
	SetRetry(retry func())
	// ChargeRefused counts the refusals of the re-offers a sleeping
	// upstream skipped, one per cycle of [from, to): exactly what its
	// per-cycle re-offers would have counted in a dense run.
	ChargeRefused(from, to sim.Cycle)
}

type entry struct {
	req   *mem.Req
	ready sim.Cycle // enqueue time + latency: earliest forwarding cycle
	enq   sim.Cycle
	seq   uint64 // arrival order across the normal lanes
}

// Config sets a Station's geometry and timing.
type Config struct {
	Name      string
	Component mem.Component
	Latency   sim.Cycle // traversal latency once enqueued
	Bandwidth int       // max requests forwarded per cycle
	CapNormal int       // normal queue capacity
	CapPrio   int       // priority queue capacity (used when priority enabled)

	// MaxWait is the starvation guard from §IV-D: a normal request waiting
	// longer than this is served ahead of the priority queue. Zero disables
	// the guard.
	MaxWait sim.Cycle
}

// Stats counts a station's traffic.
type Stats struct {
	Accepted  uint64
	Forwarded uint64
	Refused   uint64 // offers rejected because the target queue was full
	Promoted  uint64 // normal requests handed off via the starvation guard
	// WaitCycles accumulates queue residency so tests can check fairness.
	WaitCycles uint64
}

// Station is a single queued hop on the memory path.
type Station struct {
	cfg  Config
	down Downstream

	// The normal queue is split into lanes, one FIFO per rank (a single
	// lane without a Ranker or while every rank is 0), and each entry
	// carries its arrival sequence: the oldest normal entry (the
	// starvation guard's head) is the lane head with the lowest seq, and
	// snapshots and EachReq merge the lanes back into arrival order. A
	// ranked pick is the first lane, in rank order, whose head is ready —
	// ready order follows arrival order, so that head is the FCFS-first
	// entry of the lowest ready rank — at O(lanes) per grant. Every queue
	// is a ring: forwarding pops a head every grant.
	lanes   []ring.Ring[entry]
	nNormal int
	seq     uint64
	prio    ring.Ring[entry]

	// PriorityEnabled selects whether requests with the critical bit use the
	// dedicated priority queue (PIVOT / FullPath) or share the normal queue.
	PriorityEnabled bool

	// Ranker, when non-nil, ranks normal-queue requests for selection
	// (lower rank = served first, FCFS within a rank). The MPAM bandwidth
	// controller ranks by its high/medium/low classes. Ranks index the
	// lanes, so they must be small.
	Ranker mem.Ranker
	// rankGen is the Ranker generation the lanes were sorted under.
	// Derived, never serialised.
	rankGen uint64

	// blocked is the request the last Tick offered and the downstream
	// refused, until the downstream signals a retry (onRetry). While the
	// pick is still that request, Tick would only be refused again, so the
	// station sleeps, owing the downstream the skipped offers' refusals
	// (see forecast). Derived, never serialised.
	blocked *mem.Req

	// retry is the upstream's retry hook, called after a Tick that freed
	// queue space.
	retry func()

	// waker ends or shortens the station's engine sleep (see forecast).
	waker sim.Waker

	Stats Stats
}

// New builds a station that forwards into down.
func New(cfg Config, down Downstream) *Station {
	if cfg.Bandwidth <= 0 {
		cfg.Bandwidth = 1
	}
	if cfg.CapNormal <= 0 {
		cfg.CapNormal = 1
	}
	if cfg.CapPrio <= 0 {
		cfg.CapPrio = cfg.CapNormal
	}
	s := &Station{
		cfg:   cfg,
		lanes: []ring.Ring[entry]{ring.New[entry](cfg.CapNormal)},
		prio:  ring.New[entry](cfg.CapPrio),
	}
	s.SetDownstream(down)
	return s
}

// Config returns the station's configuration.
func (s *Station) Config() Config { return s.cfg }

// SetDownstream replaces the downstream (used when wiring machines) and
// registers the station's retry hook with it.
func (s *Station) SetDownstream(d Downstream) {
	s.down = d
	s.blocked = nil
	d.SetRetry(s.onRetry)
}

// SetRetry implements Downstream: retry is called after every Tick that
// forwarded a request, since each forward frees a queue slot.
func (s *Station) SetRetry(retry func()) { s.retry = retry }

// ChargeRefused implements Downstream.
func (s *Station) ChargeRefused(from, to sim.Cycle) { s.Stats.Refused += uint64(to - from) }

// onRetry is the retry hook the station registers downstream: the blocked
// head may be accepted now.
func (s *Station) onRetry() {
	if s.blocked != nil {
		s.waker.Wake()
		s.blocked = nil
	}
}

// RanksChanged wakes the station after its Ranker's generation moved: the
// pick a blocked sleep is waiting on may no longer be the pick.
func (s *Station) RanksChanged() { s.waker.Wake() }

// QueueLen reports current normal- and priority-queue occupancy.
func (s *Station) QueueLen() (normal, prio int) { return s.nNormal, s.prio.Len() }

// SetWaker implements sim.Wakeable.
func (s *Station) SetWaker(w sim.Waker) { s.waker = w }

// lane returns the normal lane for rank, adding lanes up to it.
func (s *Station) lane(rank int) *ring.Ring[entry] {
	for rank >= len(s.lanes) {
		s.lanes = append(s.lanes, ring.New[entry](s.cfg.CapNormal))
	}
	return &s.lanes[rank]
}

// Accept implements Acceptor: enqueue r if there is space. Only a new head
// of its queue or lane can move the station's forecast — the forecast
// reads heads alone, and an entry behind a head is neither ready nor
// starved before it — and only once it is ready: before then it is not a
// candidate, and a new head is never the oldest normal entry while
// another one is queued. So the new head's ready cycle brings the sleep
// forward (WakeAt) without ending it, and without touching the refusals a
// blocked sleep owes.
func (s *Station) Accept(r *mem.Req, now sim.Cycle) bool {
	e := entry{req: r, ready: now + s.cfg.Latency, enq: now}
	if s.PriorityEnabled && r.Critical {
		if s.prio.Len() >= s.cfg.CapPrio {
			// The paper's priority queue exists precisely so critical loads
			// are not blocked by a full normal queue; if even the priority
			// queue is full, fall back to refusing.
			s.Stats.Refused++
			return false
		}
		if s.prio.Len() == 0 {
			s.waker.WakeAt(e.ready)
		}
		s.prio.Push(e)
	} else {
		if s.nNormal >= s.cfg.CapNormal {
			s.Stats.Refused++
			return false
		}
		l := &s.lanes[0]
		if s.Ranker != nil {
			l = s.lane(s.Ranker.Rank(r))
		}
		if l.Len() == 0 {
			s.waker.WakeAt(e.ready)
		}
		e.seq = s.seq
		s.seq++
		l.Push(e)
		s.nNormal++
	}
	r.Enter(s.cfg.Component, now)
	s.Stats.Accepted++
	return true
}

// pick returns the queue whose head the next grant offers, nil when no
// head is ready, and whether the starvation guard promoted it: the oldest
// normal entry (the lane head with the lowest seq) once it waited longer
// than MaxWait, else the ready priority head, else the first ready lane
// head in rank order — the FCFS-first ready entry of the lowest rank. It
// also returns the lane holding the oldest normal entry (nil when none).
func (s *Station) pick(now sim.Cycle) (q *ring.Ring[entry], promoted bool, oldest *ring.Ring[entry]) {
	var first *ring.Ring[entry]
	var oldestSeq uint64
	for i := range s.lanes {
		l := &s.lanes[i]
		if l.Len() == 0 {
			continue
		}
		h := l.At(0)
		if first == nil && h.ready <= now {
			first = l
		}
		if oldest == nil || h.seq < oldestSeq {
			oldest, oldestSeq = l, h.seq
		}
	}
	if oldest != nil && s.cfg.MaxWait != 0 {
		if h := oldest.At(0); h.ready <= now && now-h.enq > s.cfg.MaxWait {
			return oldest, true, oldest
		}
	}
	if s.prio.Len() > 0 && s.prio.At(0).ready <= now {
		return &s.prio, false, oldest
	}
	return first, false, oldest
}

// eachNormal visits the normal entries in arrival order.
func (s *Station) eachNormal(f func(*entry)) {
	if len(s.lanes) == 1 {
		for i, n := 0, s.lanes[0].Len(); i < n; i++ {
			f(s.lanes[0].At(i))
		}
		return
	}
	pos := make([]int, len(s.lanes))
	for k := 0; k < s.nNormal; k++ {
		best := -1
		for i := range s.lanes {
			if pos[i] < s.lanes[i].Len() &&
				(best < 0 || s.lanes[i].At(pos[i]).seq < s.lanes[best].At(pos[best]).seq) {
				best = i
			}
		}
		f(s.lanes[best].At(pos[best]))
		pos[best]++
	}
}

// rerank re-sorts the normal entries into lanes under generation g.
func (s *Station) rerank(g uint64) {
	s.rankGen = g
	if s.nNormal == 0 {
		return
	}
	buf := make([]entry, 0, s.nNormal)
	s.eachNormal(func(e *entry) { buf = append(buf, *e) })
	for i := range s.lanes {
		s.lanes[i].Reset()
	}
	for _, e := range buf {
		s.lane(s.Ranker.Rank(e.req)).Push(e)
	}
}

// Tick forwards up to Bandwidth ready requests into the downstream and
// returns the station's forecast (see forecast). Priority-queue requests go
// first, except that a starved normal request is promoted ahead of them.
func (s *Station) Tick(now sim.Cycle) sim.Cycle {
	if s.Ranker != nil {
		if g := s.Ranker.RankGen(); g != s.rankGen {
			s.rerank(g)
		}
	}
	s.blocked = nil
	forwarded := false
	for n := 0; n < s.cfg.Bandwidth; n++ {
		q, promoted, _ := s.pick(now)
		if q == nil {
			break
		}
		e := q.At(0)
		r, enq := e.req, e.enq
		// Blocked until proven otherwise: a downstream that wants a
		// re-offer next cycle calls onRetry from inside Accept.
		s.blocked = r
		if !s.down.Accept(r, now) {
			break // head-of-line blocking: downstream full
		}
		s.blocked = nil
		// Charge the residency only on successful hand-off: the downstream
		// Accept may already have stamped the request into its own stage,
		// which is why Depart uses the enqueue cycle read above.
		r.Depart(s.cfg.Component, enq, now, s.cfg.Latency)
		s.Stats.WaitCycles += uint64(now - enq)
		if promoted {
			s.Stats.Promoted++
		}
		q.PopHead()
		if q != &s.prio {
			s.nNormal--
		}
		s.Stats.Forwarded++
		forwarded = true
	}
	if forwarded && s.retry != nil {
		s.retry()
	}
	return s.forecast(now + 1)
}

// forecast is the sim.Ticker forecast the Tick before cycle at returns. A
// station sleeps from at in two cases.
//
// Nothing ready: Tick returns before touching any state, until the earliest
// head ready cycle. Arrival order implies ready order within each queue and
// lane (ready = enqueue + fixed latency), so the heads bound every entry.
//
// Blocked: the pick is the request the downstream refused and has not
// signalled a retry for, so every Tick would only be refused again. The
// station sleeps until its own clock could change the pick — the cycle the
// oldest normal entry starves (unless it is the pick), and, for a pick that
// was not promoted, the ready cycle of the priority head or of a
// lower-rank lane head — and the sleep owes each skipped cycle's refusal,
// which SkipCycles charges to the downstream. The other wakes come from
// outside: the downstream's retry (onRetry), an Accept that adds a head,
// and a class generation bump (RanksChanged; a moved generation keeps a
// blocked station awake until Tick re-sorts the lanes — the nothing-ready
// forecast does not depend on ranks).
func (s *Station) forecast(at sim.Cycle) sim.Cycle {
	ready := sim.NeverWork
	if s.prio.Len() > 0 {
		ready = s.prio.At(0).ready
	}
	for i := range s.lanes {
		if l := &s.lanes[i]; l.Len() > 0 {
			ready = min(ready, l.At(0).ready)
		}
	}
	if ready > at {
		return ready // nothing ready (NeverWork when empty)
	}
	if s.blocked == nil || s.Ranker != nil && s.Ranker.RankGen() != s.rankGen {
		return at
	}
	q, promoted, oldest := s.pick(at)
	if q.At(0).req != s.blocked {
		return at
	}
	next := sim.NeverWork
	if !promoted {
		if s.cfg.MaxWait != 0 && oldest != nil && oldest != q {
			h := oldest.At(0)
			next = max(h.ready, h.enq+s.cfg.MaxWait+1)
		}
		if q != &s.prio {
			if s.prio.Len() > 0 {
				next = min(next, s.prio.At(0).ready)
			}
			for i := range s.lanes {
				l := &s.lanes[i]
				if l == q {
					break
				}
				if l.Len() > 0 {
					next = min(next, l.At(0).ready)
				}
			}
		}
	}
	return sim.Owing(next)
}

// SkipCycles implements sim.Skipper: a blocked sleep, the only one that
// owes, owes the downstream one refused offer per skipped cycle.
func (s *Station) SkipCycles(from, to sim.Cycle) { s.down.ChargeRefused(from, to) }

// RegisterStats registers the station's instruments under prefix (e.g.
// "ic"): traffic counters, queue-depth gauges (the paper's Insight #1
// queueing evidence), and the per-epoch back-pressure (refusal) series.
func (s *Station) RegisterStats(reg *stats.Registry, prefix string) {
	st := &s.Stats
	reg.Counter(prefix+".accepted", func() uint64 { return st.Accepted })
	reg.Counter(prefix+".forwarded", func() uint64 { return st.Forwarded })
	reg.Counter(prefix+".refused", func() uint64 { return st.Refused })
	reg.Counter(prefix+".promoted", func() uint64 { return st.Promoted })
	reg.Counter(prefix+".wait_cycles", func() uint64 { return st.WaitCycles })
	reg.Rate(prefix+".refused_epoch", func() uint64 { return st.Refused })
	reg.Gauge(prefix+".qdepth_normal", func() float64 { return float64(s.nNormal) })
	reg.Gauge(prefix+".qdepth_prio", func() float64 { return float64(s.prio.Len()) })
}

// EachReq visits every queued request in deterministic order (priority queue
// first, then normal, both in arrival order), so the machine's in-flight walk
// enumerates identically in identical states.
func (s *Station) EachReq(f func(*mem.Req)) {
	for i, n := 0, s.prio.Len(); i < n; i++ {
		f(s.prio.At(i).req)
	}
	s.eachNormal(func(e *entry) { f(e.req) })
}

// Drain reports whether both queues are empty.
func (s *Station) Drain() bool { return s.nNormal == 0 && s.prio.Len() == 0 }

// ResetStats zeroes the counters.
func (s *Station) ResetStats() { s.Stats = Stats{} }
