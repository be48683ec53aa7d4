// Package mem defines the memory-request type exchanged between the CPU
// cores and the shared memory-system components (MSCs), together with the
// bookkeeping PIVOT needs: the per-request critical bit, the PARTID used by
// MPAM-style bandwidth control, and a per-component latency breakdown used by
// the Figure 5 experiment (where does a critical load spend its cycles?).
package mem

import "pivot/internal/sim"

// PartID identifies a software partition for resource control. Following the
// paper's methodology (§V-A), PARTIDs are assigned per CPU so each core has a
// unique PARTID and each CPU executes a single thread.
type PartID uint8

// Component enumerates the stages on the memory path where a request can
// spend time. The four shared memory-system components (MSCs) from Figure 4
// are Interconnect, Bus, BWCtrl and MemCtrl; the others exist so the latency
// split accounts for every cycle of a request's life.
type Component int

// Memory-path components, in path order.
const (
	CompL1 Component = iota
	CompL2
	CompInterconnect // MSC 1: L2 <-> LLC interconnect
	CompLLC
	CompBus     // MSC 2: coherent memory bus
	CompBWCtrl  // MSC 3: memory bandwidth controller (MPAM lives here)
	CompMemCtrl // MSC 4: memory controller queue
	CompDRAM    // DRAM bank service + data transfer
	CompResp    // response network back to the core
	NumComponents
)

// String returns a short human-readable component name.
func (c Component) String() string {
	switch c {
	case CompL1:
		return "L1"
	case CompL2:
		return "L2"
	case CompInterconnect:
		return "Interconnect"
	case CompLLC:
		return "LLC"
	case CompBus:
		return "Bus"
	case CompBWCtrl:
		return "BWCtrl"
	case CompMemCtrl:
		return "MemCtrl"
	case CompDRAM:
		return "DRAM"
	case CompResp:
		return "Response"
	default:
		return "?"
	}
}

// MSCs lists the four shared memory-system components, in path order, that
// enforce (or fail to enforce) access priority in the paper's experiments.
var MSCs = [4]Component{CompInterconnect, CompBus, CompBWCtrl, CompMemCtrl}

// Ranker orders the requests queued at an MSC (§IV-D): Rank returns a
// request's scheduling rank (lower = served first, FCFS within a rank; never
// negative), and RankGen a generation that changes whenever any request's
// rank may have changed. Between two generation changes every rank is fixed,
// so schedulers may cache ranks and scan positions keyed by the generation.
// The MPAM bandwidth controller implements it: ranks are MPAM classes, which
// move only when its monitor window rolls or its state is restored.
type Ranker interface {
	Rank(r *Req) int
	RankGen() uint64
}

// Req is one cache-line-granularity memory access travelling down the memory
// path. A Req is created on an L1 miss and freed (recycled by the machine)
// when its response reaches the core.
type Req struct {
	Addr    uint64 // line-aligned physical address
	PC      uint64 // static address of the load/store that caused it
	CoreID  int
	Part    PartID
	IsWrite bool

	// Critical is PIVOT's per-request critical bit (§IV-C): set when the
	// issuing load was flagged by the RRBP as an actual performance-critical
	// load. FullPath mode sets it for every LC request.
	Critical bool

	// LCTask marks requests issued by latency-critical tasks; used by
	// MPAM-style per-thread priority and by statistics.
	LCTask bool

	Issued sim.Cycle // cycle the request left the L1/MSHR

	// enteredAt tracks when the request entered its current component, Cur
	// names that component, and Split accumulates cycles spent per component
	// for Fig 5.
	enteredAt sim.Cycle
	Cur       Component
	Split     [NumComponents]uint32

	// Trace, when non-nil, accumulates one cycle-stamped span per component
	// transition for the flight recorder. It stays nil unless flight
	// recording is enabled, so the disabled path never touches it.
	Trace *Trace

	// LLCMiss records whether the request missed in the LLC, needed by the
	// offline profiler (per-PC LLC miss rate) and the online statistics.
	LLCMiss bool

	// LLCChecked avoids re-probing the LLC when a blocked miss is retried
	// against a full downstream queue.
	LLCChecked bool

	// Prefetch marks requests issued by a hardware prefetcher rather than a
	// demand access; they fill caches but wake no instruction.
	Prefetch bool
}

// Enter stamps the request as having entered component c at cycle now. The
// component is recorded in Cur so a later Leave/Depart can tell queue wait
// from service time instead of discarding the stage it was measured in.
func (r *Req) Enter(c Component, now sim.Cycle) {
	r.enteredAt = now
	r.Cur = c
}

// Leave accumulates the cycles spent in component c since the matching Enter.
func (r *Req) Leave(c Component, now sim.Cycle) {
	if now >= r.enteredAt {
		r.Split[c] += uint32(now - r.enteredAt)
	}
}

// Depart closes out the request's residency in component c, which it entered
// at cycle enq: the whole residency is charged to the Fig 5 split, and when
// the request is traced it is recorded as a span whose service portion is the
// component's base traversal latency and whose remainder is queue wait. The
// enqueue cycle is passed explicitly rather than read from the Enter stamp
// because the downstream Accept runs before the hand-off is charged and may
// already have re-stamped the request into its own stage.
func (r *Req) Depart(c Component, enq, now, service sim.Cycle) {
	var total sim.Cycle
	if now > enq {
		total = now - enq
	}
	r.Split[c] += uint32(total)
	if r.Trace != nil {
		if service > total {
			service = total
		}
		r.Trace.Spans = append(r.Trace.Spans,
			Span{Comp: c, Start: enq, Wait: total - service, Service: service})
	}
}

// Hop charges a fixed-latency traversal of component c beginning at cycle
// from, recording a pure-service span when the request is traced. It replaces
// AddSplit at call sites where the hop has no queueing.
func (r *Req) Hop(c Component, from, n sim.Cycle) {
	r.Split[c] += uint32(n)
	if r.Trace != nil {
		r.Trace.Spans = append(r.Trace.Spans, Span{Comp: c, Start: from, Service: n})
	}
}

// AddSplit directly charges n cycles to component c, for fixed-latency hops
// that are not modelled with Enter/Leave pairs.
func (r *Req) AddSplit(c Component, n sim.Cycle) {
	r.Split[c] += uint32(n)
}

// Span is one recorded stage of a traced request's lifetime: the cycle it
// entered component Comp, how long it waited for service there, and how long
// the service itself took.
type Span struct {
	Comp    Component
	Start   sim.Cycle
	Wait    sim.Cycle
	Service sim.Cycle
}

// Trace is the span chain the flight recorder attaches to a request. Buffers
// are pooled by the recorder, so Reset keeps the backing array.
type Trace struct {
	Spans []Span
}

// Reset empties the trace for reuse, keeping capacity.
func (t *Trace) Reset() { t.Spans = t.Spans[:0] }

// TotalCycles sums the recorded per-component cycles.
func (r *Req) TotalCycles() uint64 {
	var t uint64
	for _, v := range r.Split {
		t += uint64(v)
	}
	return t
}

// Reset clears a request for reuse from a free pool.
func (r *Req) Reset() {
	*r = Req{}
}

// ReqState is the fully exported serialisable form of a Req, used by the
// machine checkpoint layer. Every field of Req (including the private
// enteredAt stamp) round-trips through it, except the Trace pointer: traces
// belong to the flight recorder, which checkpoints in-flight span chains
// itself so that a machine state is byte-identical with and without the
// recorder attached.
type ReqState struct {
	Addr       uint64
	PC         uint64
	CoreID     int
	Part       PartID
	IsWrite    bool
	Critical   bool
	LCTask     bool
	Issued     sim.Cycle
	EnteredAt  sim.Cycle
	Cur        Component
	Split      [NumComponents]uint32
	LLCMiss    bool
	LLCChecked bool
	Prefetch   bool
}

// State captures the request's complete state.
func (r *Req) State() ReqState {
	return ReqState{
		Addr: r.Addr, PC: r.PC, CoreID: r.CoreID, Part: r.Part,
		IsWrite: r.IsWrite, Critical: r.Critical, LCTask: r.LCTask,
		Issued: r.Issued, EnteredAt: r.enteredAt, Cur: r.Cur, Split: r.Split,
		LLCMiss: r.LLCMiss, LLCChecked: r.LLCChecked, Prefetch: r.Prefetch,
	}
}

// Materialize rebuilds a live request from its serialised state.
func (s ReqState) Materialize() *Req {
	return &Req{
		Addr: s.Addr, PC: s.PC, CoreID: s.CoreID, Part: s.Part,
		IsWrite: s.IsWrite, Critical: s.Critical, LCTask: s.LCTask,
		Issued: s.Issued, enteredAt: s.EnteredAt, Cur: s.Cur, Split: s.Split,
		LLCMiss: s.LLCMiss, LLCChecked: s.LLCChecked, Prefetch: s.Prefetch,
	}
}
