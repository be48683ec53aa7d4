// Package workload provides the synthetic instruction-stream generators that
// stand in for the paper's benchmark suites (Table I): the Tailbench
// latency-critical applications (Img-DNN, Moses, Xapian, Silo, Masstree),
// the CloudSuite best-effort applications (Data/Graph/In-memory Analytics),
// and iBench's streaming stressor.
//
// Real binaries cannot run on this simulator, so each generator reproduces
// the properties the paper's experiments actually depend on:
//
//   - LC apps: request-driven service with a per-app dependence structure —
//     a pointer-chase spine of dependent loads (the performance-critical
//     loads that stall the ROB head), payload loads with locality, and
//     compute. This yields the paper's Figure 8 shape (a few static loads
//     cause almost all ROB stall cycles) and realistic load-latency knees.
//   - BE apps: sustained bandwidth demand with per-app locality (streaming
//     row-hit traffic for iBench/DA, random gather for GA, a mix for IA)
//     and memory-level parallelism.
//
// All generators are deterministic given their RNG seed.
package workload

import (
	"pivot/internal/cpu"
	"pivot/internal/sim"
)

// LineBytes is the cache-line size shared with the memory system.
const LineBytes = 64

// LCParams describes a latency-critical application's per-request behaviour.
type LCParams struct {
	Name string

	// ChaseDepth is the number of dependent (pointer-chase) loads per
	// request — the performance-critical spine.
	ChaseDepth int
	// ChaseLines is the chase working-set size in cache lines; sized to miss
	// the LLC for criticality to matter.
	ChaseLines uint64
	// ChasePCs is the number of static PCs the chase loads rotate through
	// (these become the potential-critical set).
	ChasePCs int

	// PayloadLoads is the number of independent payload loads per chase
	// step, drawn from a smaller, mostly cache-resident set.
	PayloadLoads int
	// PayloadLines is the payload working set in lines.
	PayloadLines uint64
	// PayloadSeq makes payload accesses sequential (spatial locality).
	PayloadSeq bool
	// PayloadPCs is the number of static payload-load PCs.
	PayloadPCs int

	// ALUPerStep is compute per chase step (dependent on the chase value).
	ALUPerStep int
	// ALULat is the latency of each ALU op.
	ALULat int

	// StoresPerReq is the number of stores per request (logging, response
	// buffers); stores retire via the write buffer.
	StoresPerReq int
}

// BEParams describes a best-effort application's steady-state behaviour.
type BEParams struct {
	Name string

	// StreamFrac is the fraction of accesses that stream sequentially
	// (row-buffer friendly); the rest are random within RandLines.
	StreamFrac float64
	// StreamLines is the streaming buffer size in lines (wraps around).
	StreamLines uint64
	// RandLines is the random working set in lines.
	RandLines uint64
	// StoreFrac is the fraction of memory ops that are stores (iBench's
	// copy writes as much as it reads).
	StoreFrac float64
	// ALUPerMem is compute ops interleaved per memory op.
	ALUPerMem int
	// MLP is the number of independent in-flight loads the generator
	// sustains (destination registers rotate, no chains).
	MLP int
	// PCs is the static instruction footprint (large for analytics, which
	// is what defeats CBP's small table).
	PCs int
}

// ---- Catalogue -------------------------------------------------------------

// LC application identifiers, following Table I.
const (
	ImgDNN   = "img-dnn"
	Moses    = "moses"
	Xapian   = "xapian"
	Silo     = "silo"
	Masstree = "masstree"

	// Microservice is not in Table I: it models the small-instruction-
	// footprint cloud workloads of §VII's future-work discussion, where
	// PIVOT can skip offline profiling entirely because the online RRBP
	// sees every load without destructive aliasing.
	Microservice = "microservice"
)

// BE application identifiers, following Table I.
const (
	IBench     = "ibench"
	DataAn     = "data-analytics"
	GraphAn    = "graph-analytics"
	InMemAn    = "in-memory-analytics"
	StressCopy = "stress-copy" // the offline-profiling stress BE task
)

// LCApps returns the five Tailbench-like LC application parameter sets. The
// values are calibrated so that run-alone knees, criticality CDFs and
// bandwidth sensitivities reproduce the paper's orderings (see DESIGN.md §1).
func LCApps() map[string]LCParams {
	return map[string]LCParams{
		// Masstree: key-value store; deep tree traversal, large footprint,
		// little compute. Nearly all of its memory traffic is critical.
		Masstree: {
			Name: Masstree, ChaseDepth: 12, ChaseLines: 1 << 19, ChasePCs: 6,
			PayloadLoads: 2, PayloadLines: 1 << 12, PayloadSeq: false, PayloadPCs: 120,
			ALUPerStep: 4, ALULat: 1, StoresPerReq: 4,
		},
		// Silo: in-memory OLTP; moderate chains, more compute per step,
		// record reads that partially spill the LLC.
		Silo: {
			Name: Silo, ChaseDepth: 8, ChaseLines: 1 << 18, ChasePCs: 8,
			PayloadLoads: 3, PayloadLines: 1 << 16, PayloadSeq: false, PayloadPCs: 100,
			ALUPerStep: 10, ALULat: 1, StoresPerReq: 8,
		},
		// Xapian: online search; posting-list scans (sequential payload over
		// an index much larger than the LLC) plus B-tree descent.
		Xapian: {
			Name: Xapian, ChaseDepth: 6, ChaseLines: 1 << 18, ChasePCs: 5,
			PayloadLoads: 8, PayloadLines: 1 << 18, PayloadSeq: true, PayloadPCs: 80,
			ALUPerStep: 6, ALULat: 1, StoresPerReq: 2,
		},
		// Moses: machine translation; frequent hash-table probes over a
		// large phrase table, short chains.
		Moses: {
			Name: Moses, ChaseDepth: 10, ChaseLines: 1 << 19, ChasePCs: 10,
			PayloadLoads: 4, PayloadLines: 1 << 17, PayloadSeq: false, PayloadPCs: 120,
			ALUPerStep: 8, ALULat: 1, StoresPerReq: 4,
		},
		// Img-DNN: inference; weight streaming (sequential payload far
		// beyond the LLC), high compute, shallow chains. Least chase-bound,
		// most bandwidth-hungry.
		ImgDNN: {
			Name: ImgDNN, ChaseDepth: 4, ChaseLines: 1 << 17, ChasePCs: 4,
			PayloadLoads: 10, PayloadLines: 1 << 19, PayloadSeq: true, PayloadPCs: 40,
			ALUPerStep: 16, ALULat: 1, StoresPerReq: 4,
		},
		// Microservice (§VII): a tiny-footprint request handler — short
		// chains over a modest table, a handful of static loads in total.
		Microservice: {
			Name: Microservice, ChaseDepth: 4, ChaseLines: 1 << 16, ChasePCs: 2,
			PayloadLoads: 2, PayloadLines: 1 << 12, PayloadSeq: false, PayloadPCs: 6,
			ALUPerStep: 6, ALULat: 1, StoresPerReq: 2,
		},
	}
}

// BEApps returns the best-effort application parameter sets.
func BEApps() map[string]BEParams {
	return map[string]BEParams{
		// iBench: each thread sequentially copies one private 64 MB buffer
		// to another — equal read and write streams, maximal row locality.
		IBench: {
			Name: IBench, StreamFrac: 1.0, StreamLines: 1 << 20, RandLines: 0,
			StoreFrac: 0.5, ALUPerMem: 0, MLP: 8, PCs: 8,
		},
		// Data analytics (Bayes classification): sequential dataset scan
		// with per-record compute.
		DataAn: {
			Name: DataAn, StreamFrac: 0.9, StreamLines: 1 << 20, RandLines: 1 << 16,
			StoreFrac: 0.1, ALUPerMem: 4, MLP: 6, PCs: 200,
		},
		// Graph analytics (PageRank): random gathers over a large vertex
		// array — row-buffer hostile, high MLP.
		GraphAn: {
			Name: GraphAn, StreamFrac: 0.2, StreamLines: 1 << 18, RandLines: 1 << 20,
			StoreFrac: 0.1, ALUPerMem: 2, MLP: 10, PCs: 150,
		},
		// In-memory analytics (collaborative filtering): blend of streaming
		// factors and random rating lookups.
		InMemAn: {
			Name: InMemAn, StreamFrac: 0.5, StreamLines: 1 << 19, RandLines: 1 << 18,
			StoreFrac: 0.2, ALUPerMem: 6, MLP: 6, PCs: 250,
		},
		// The offline-profiling stress task (§V-B): a plain memory-copy
		// workload, identical for every LC task.
		StressCopy: {
			Name: StressCopy, StreamFrac: 1.0, StreamLines: 1 << 20, RandLines: 0,
			StoreFrac: 0.5, ALUPerMem: 0, MLP: 8, PCs: 4,
		},
	}
}

// LCNames lists the LC apps in the paper's presentation order.
func LCNames() []string { return []string{ImgDNN, Moses, Xapian, Silo, Masstree} }

// BENames lists the CloudSuite BE apps (excluding iBench and the stressor).
func BENames() []string { return []string{DataAn, GraphAn, InMemAn} }

// pcBase gives distinct static-PC ranges to distinct generator instances so
// profilers can tell apps apart.
func pcBase(slot int) uint64 { return 0x400000 + uint64(slot)<<24 }

// addrBase gives each core a private physical region of regionBytes; BE
// threads touch different regions so they contend only for bandwidth, not
// for lines.
func addrBase(core int) uint64 { return uint64(core+1) * regionBytes }

// The layout of a core's region. An LC task's chase lines start at the
// region's base and its payload lines at payloadOffset; a BE stream's
// streaming lines start at the base and its random lines at randOffset. The
// Max*Lines counts are the largest working sets that stay inside their
// slice: below the next slice's offset, or below the next core's region.
const (
	regionBytes   = 1 << 33
	payloadOffset = 1 << 30
	randOffset    = 1 << 28

	MaxChaseLines   = payloadOffset / LineBytes
	MaxPayloadLines = (regionBytes - payloadOffset) / LineBytes
	MaxStreamLines  = randOffset / LineBytes
	MaxRandLines    = (regionBytes - randOffset) / LineBytes
)

var _ cpu.Stream = (*BEStream)(nil)

// BEStream is an endless best-effort instruction stream.
type BEStream struct {
	p    BEParams
	rng  *sim.RNG
	base uint64
	pcs  []uint64

	streamPos uint64
	aluLeft   int
	destRot   uint8
	pending   cpu.MicroOp
	hasPend   bool
}

// NewBEStream builds a BE stream for the given core slot. The streaming
// cursor starts at a random offset so co-located copies do not walk DRAM
// banks in lockstep (which would serialise the whole channel on one bank).
func NewBEStream(p BEParams, core int, rng *sim.RNG) *BEStream {
	s := &BEStream{p: p, rng: rng, base: addrBase(core)}
	if p.StreamLines > 0 {
		s.streamPos = rng.Uint64n(p.StreamLines)
	}
	s.pcs = make([]uint64, p.PCs)
	for i := range s.pcs {
		s.pcs[i] = pcBase(core) + uint64(i)*4
	}
	return s
}

// Next implements cpu.Stream.
func (s *BEStream) Next(op *cpu.MicroOp) bool {
	if s.aluLeft > 0 {
		s.aluLeft--
		*op = cpu.MicroOp{
			PC:   s.pcs[s.rng.Intn(len(s.pcs))],
			Kind: cpu.OpALU, Dest: cpu.RegID(1 + s.destRot%8), Lat: 1,
		}
		s.destRot++
		return true
	}
	s.aluLeft = s.p.ALUPerMem

	var addr uint64
	if s.p.StreamFrac >= 1 || s.rng.Float64() < s.p.StreamFrac {
		addr = s.base + (s.streamPos%s.p.StreamLines)*LineBytes
		s.streamPos++
	} else {
		addr = s.base + randOffset + s.rng.Uint64n(s.p.RandLines)*LineBytes
	}

	kind := cpu.OpLoad
	if s.p.StoreFrac > 0 && s.rng.Float64() < s.p.StoreFrac {
		kind = cpu.OpStore
	}
	// Rotate destinations so loads are independent (high MLP).
	dest := cpu.RegID(0)
	if kind == cpu.OpLoad {
		dest = cpu.RegID(8 + int(s.destRot)%s.p.MLP)
		s.destRot++
	}
	*op = cpu.MicroOp{
		PC:   s.pcs[s.rng.Intn(len(s.pcs))],
		Kind: kind, Dest: dest, Addr: addr,
	}
	return true
}
