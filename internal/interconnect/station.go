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

// Acceptor is anything a Station can forward requests into.
type Acceptor interface {
	// Accept takes ownership of r if it returns true; false means "queue
	// full, retry later" and the caller keeps the request.
	Accept(r *mem.Req, now sim.Cycle) bool
}

// AcceptorFunc adapts a function to the Acceptor interface.
type AcceptorFunc func(r *mem.Req, now sim.Cycle) bool

// Accept calls f.
func (f AcceptorFunc) Accept(r *mem.Req, now sim.Cycle) bool { return f(r, now) }

type entry struct {
	req   *mem.Req
	ready sim.Cycle // enqueue time + latency: earliest forwarding cycle
	enq   sim.Cycle
	rank  int // Ranker's rank for req as of rankGen (normal queue only)
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
	Promoted  uint64 // normal requests served via the starvation guard
	// WaitCycles accumulates queue residency so tests can check fairness.
	WaitCycles uint64
}

// Station is a single queued hop on the memory path.
type Station struct {
	cfg  Config
	down Acceptor

	// Both queues are rings: forwarding pops the head every grant, and a
	// slice pop would copy the whole remaining queue each time.
	normal ring.Ring[entry]
	prio   ring.Ring[entry]

	// PriorityEnabled selects whether requests with the critical bit use the
	// dedicated priority queue (PIVOT / FullPath) or share the normal queue.
	PriorityEnabled bool

	// Ranker, when non-nil, ranks normal-queue requests for selection
	// (lower rank = served first, FCFS within a rank). The MPAM bandwidth
	// controller ranks by its high/medium/low classes.
	Ranker mem.Ranker

	// Ranked-pick memo, derived and never serialised. Each normal entry's
	// rank is cached as of generation rankGen. The scan memo records that
	// the first scanned normal entries have been examined and that best
	// (rank bestRank, -1 when none) is their FCFS-first minimum: within one
	// generation no rank changes, and until a normal entry leaves the
	// queue the ready prefix only grows, so pickNormal resumes the scan
	// where it last stopped instead of re-walking the queue every grant.
	rankGen  uint64
	scanned  int
	best     int
	bestRank int

	// waker ends the station's engine sleep when Accept enqueues: a new
	// entry can be due before the cached forecast (see NextWork).
	waker sim.Waker

	Stats Stats
}

// New builds a station that forwards into down.
func New(cfg Config, down Acceptor) *Station {
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
		cfg:    cfg,
		down:   down,
		normal: ring.New[entry](cfg.CapNormal),
		prio:   ring.New[entry](cfg.CapPrio),
	}
	s.resetScan()
	return s
}

// Config returns the station's configuration.
func (s *Station) Config() Config { return s.cfg }

// SetDownstream replaces the downstream acceptor (used when wiring machines).
func (s *Station) SetDownstream(a Acceptor) { s.down = a }

// QueueLen reports current normal- and priority-queue occupancy.
func (s *Station) QueueLen() (normal, prio int) { return s.normal.Len(), s.prio.Len() }

// SetWaker implements sim.Wakeable.
func (s *Station) SetWaker(w sim.Waker) { s.waker = w }

// Accept implements Acceptor: enqueue r if there is space.
func (s *Station) Accept(r *mem.Req, now sim.Cycle) bool {
	usePrio := s.PriorityEnabled && r.Critical
	if usePrio {
		if s.prio.Len() >= s.cfg.CapPrio {
			// The paper's priority queue exists precisely so critical loads
			// are not blocked by a full normal queue; if even the priority
			// queue is full, fall back to refusing.
			s.Stats.Refused++
			return false
		}
		s.waker.Wake()
		s.prio.Push(entry{req: r, ready: now + s.cfg.Latency, enq: now})
		r.Enter(s.cfg.Component, now)
		s.Stats.Accepted++
		return true
	}
	if s.normal.Len() >= s.cfg.CapNormal {
		s.Stats.Refused++
		return false
	}
	e := entry{req: r, ready: now + s.cfg.Latency, enq: now}
	if s.Ranker != nil {
		e.rank = s.Ranker.Rank(r)
	}
	s.waker.Wake()
	s.normal.Push(e)
	r.Enter(s.cfg.Component, now)
	s.Stats.Accepted++
	return true
}

// pickNormal returns the index of the next normal-queue entry to serve under
// the Ranker's ranking (FCFS within a rank; every rank is 0 without a
// Ranker), or -1 when nothing is ready. Ranks are non-negative (MPAM
// classes), so the scan stops at the first ready rank-0 entry — no later
// entry can beat it, and FCFS breaks the tie in its favour. Ready order
// follows queue order, so the scan also stops at the first not-yet-ready
// entry and the next call resumes there (see the scan memo on Station).
func (s *Station) pickNormal(now sim.Cycle) int {
	if s.Ranker != nil {
		if g := s.Ranker.RankGen(); g != s.rankGen {
			s.rerank(g)
		}
	}
	for n := s.normal.Len(); s.scanned < n && s.bestRank > 0; s.scanned++ {
		e := s.normal.At(s.scanned)
		if e.ready > now {
			break
		}
		if e.rank < s.bestRank {
			s.best, s.bestRank = s.scanned, e.rank
		}
	}
	return s.best
}

// resetScan discards the scan memo; the next ranked pick scans from the head.
func (s *Station) resetScan() {
	s.scanned, s.best, s.bestRank = 0, -1, int(^uint(0)>>1)
}

// rerank refreshes every cached normal-queue rank for generation g.
func (s *Station) rerank(g uint64) {
	for i, n := 0, s.normal.Len(); i < n; i++ {
		e := s.normal.At(i)
		e.rank = s.Ranker.Rank(e.req)
	}
	s.rankGen = g
	s.resetScan()
}

// Tick forwards up to Bandwidth ready requests into the downstream acceptor.
// Priority-queue requests go first, except that a starved normal request is
// promoted ahead of them.
func (s *Station) Tick(now sim.Cycle) {
	// The grant loop reads each queue head exactly once — an earlier version
	// spelled it as starvedNormal/prio-peek/pickNormal helpers, whose
	// repeated head loads were the hottest lines of the loop under
	// saturation.
	for n := 0; n < s.cfg.Bandwidth; n++ {
		var e *entry
		var fromPrio bool
		idx := 0

		var hn *entry
		if s.normal.Len() > 0 {
			hn = s.normal.At(0) // FCFS: index 0 is the oldest
		}
		if hn != nil && s.cfg.MaxWait != 0 && hn.ready <= now && now-hn.enq > s.cfg.MaxWait {
			// §IV-D starvation guard: the over-waited head beats the
			// priority queue.
			e = hn
			s.Stats.Promoted++
		} else if s.prio.Len() > 0 {
			if hp := s.prio.At(0); hp.ready <= now {
				e, fromPrio = hp, true
			}
		}
		if e == nil {
			if s.Ranker == nil {
				// Every rank is 0 and ready order follows queue order: the
				// head is the only candidate.
				if hn != nil && hn.ready <= now {
					e = hn
				}
			} else if i := s.pickNormal(now); i >= 0 {
				e, idx = s.normal.At(i), i
			}
		}
		if e == nil {
			return
		}

		r, enq := e.req, e.enq
		if !s.down.Accept(r, now) {
			return // head-of-line blocking: downstream full
		}
		// Charge the residency only on successful hand-off: the downstream
		// Accept may already have stamped the request into its own stage,
		// which is why Depart uses the enqueue cycle read above.
		r.Depart(s.cfg.Component, enq, now, s.cfg.Latency)
		s.Stats.WaitCycles += uint64(now - enq)
		if fromPrio {
			s.prio.PopHead()
		} else {
			if idx == 0 {
				s.normal.PopHead()
			} else {
				s.normal.RemoveAt(idx)
			}
			s.resetScan()
		}
		s.Stats.Forwarded++
	}
}

// NextWork implements sim.IdleReporter. A station with no entry whose ready
// cycle has arrived performs no observable work in Tick (the grant loop
// returns at "nothing ready" before touching any state), so it sleeps until
// the earliest head ready cycle. Queue order implies ready order (ready =
// enqueue + fixed latency), so the two heads bound every entry. Only Accept
// can add an entry that is due earlier, and it wakes the station.
func (s *Station) NextWork(now sim.Cycle) (sim.Cycle, bool) {
	if s.normal.Len() == 0 && s.prio.Len() == 0 {
		return sim.NeverWork, true
	}
	next := sim.NeverWork
	if s.prio.Len() > 0 {
		ready := s.prio.At(0).ready
		if ready <= now {
			return 0, false
		}
		next = ready
	}
	if s.normal.Len() > 0 {
		ready := s.normal.At(0).ready
		if ready <= now {
			return 0, false
		}
		if ready < next {
			next = ready
		}
	}
	return next, true
}

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
	reg.Gauge(prefix+".qdepth_normal", func() float64 { return float64(s.normal.Len()) })
	reg.Gauge(prefix+".qdepth_prio", func() float64 { return float64(s.prio.Len()) })
}

// EachReq visits every queued request in deterministic order (priority queue
// first, then normal, both FCFS), for checkpoint layers that must enumerate
// in-flight requests identically before a snapshot and after its restore.
func (s *Station) EachReq(f func(*mem.Req)) {
	for i, n := 0, s.prio.Len(); i < n; i++ {
		f(s.prio.At(i).req)
	}
	for i, n := 0, s.normal.Len(); i < n; i++ {
		f(s.normal.At(i).req)
	}
}

// Drain reports whether both queues are empty.
func (s *Station) Drain() bool { return s.normal.Len() == 0 && s.prio.Len() == 0 }

// ResetStats zeroes the counters.
func (s *Station) ResetStats() { s.Stats = Stats{} }
