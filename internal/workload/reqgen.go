package workload

import (
	"pivot/internal/cpu"
	"pivot/internal/load"
	"pivot/internal/sim"
)

// Register conventions for generated request programs.
const (
	regChase   cpu.RegID = 1 // pointer-chase chain register
	regALUBase cpu.RegID = 2 // rotating compute destinations
	regPayload cpu.RegID = 16
)

// ReqGen expands an LCParams description into the micro-op program of one
// request. The key structural property is the chase spine: each chase load's
// source register is the previous chase load's destination, so the loads
// serialise and stall the ROB head when they miss — these are the
// performance-critical loads PIVOT exists to find.
type ReqGen struct {
	p    LCParams
	rng  *sim.RNG
	base uint64

	chasePCs   []uint64
	payloadPCs []uint64
	storePCs   []uint64
	aluPCs     []uint64
	endPC      uint64

	seqPos   uint64 // sequential payload cursor
	storePos uint64 // response-buffer cursor

	// Zipf-skewed payload population (nil = uniform, the historical
	// behaviour). The samplers are derived constants, not mutable state —
	// they never appear in ReqGenState.
	zipfLines *load.Zipf
	zipfPCs   *load.Zipf
}

// NewReqGen builds a generator for core slot core.
func NewReqGen(p LCParams, core int, rng *sim.RNG) *ReqGen {
	g := &ReqGen{p: p, rng: rng, base: addrBase(core)}
	pc := pcBase(core)
	alloc := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = pc
			pc += 4
		}
		return out
	}
	g.chasePCs = alloc(max(1, p.ChasePCs))
	g.payloadPCs = alloc(max(1, p.PayloadPCs))
	g.storePCs = alloc(max(1, p.StoresPerReq))
	g.aluPCs = alloc(max(1, p.ALUPerStep))
	g.endPC = pc
	return g
}

// SetZipf skews the payload population: payload line addresses and payload
// PCs are drawn Zipfian with skew theta in (0, 1) instead of uniformly, so
// a few lines/PCs become hot — the datacenter key-popularity pattern. theta
// <= 0 keeps the historical uniform draws (and their exact RNG stream).
// Call before the first Generate.
func (g *ReqGen) SetZipf(theta float64) {
	if theta <= 0 {
		g.zipfLines, g.zipfPCs = nil, nil
		return
	}
	g.zipfLines = load.NewZipf(g.p.PayloadLines, theta)
	g.zipfPCs = load.NewZipf(uint64(len(g.payloadPCs)), theta)
}

// ChasePCs exposes the static chase-load PCs (tests verify the profiler
// recovers exactly these).
func (g *ReqGen) ChasePCs() []uint64 { return g.chasePCs }

// OpsPerRequest returns the program length of one request.
func (g *ReqGen) OpsPerRequest() int {
	perStep := 1 + g.p.ALUPerStep + g.p.PayloadLoads
	return g.p.ChaseDepth*perStep + g.p.StoresPerReq + 1
}

// Generate appends one request's program to buf and returns it. The final op
// carries FlagReqEnd with the given reqID.
func (g *ReqGen) Generate(buf []cpu.MicroOp, reqID uint64) []cpu.MicroOp {
	p := g.p
	chaseMask := p.ChaseLines - 1 // params use power-of-two line counts
	for step := 0; step < p.ChaseDepth; step++ {
		// Chase load: depends on the previous chase load.
		addr := g.base + (g.rng.Uint64()&chaseMask)*LineBytes
		buf = append(buf, cpu.MicroOp{
			PC:   g.chasePCs[step%len(g.chasePCs)],
			Kind: cpu.OpLoad, Dest: regChase, Src1: regChase, Addr: addr,
		})
		// Compute dependent on the chase value.
		for a := 0; a < p.ALUPerStep; a++ {
			buf = append(buf, cpu.MicroOp{
				PC:   g.aluPCs[a%len(g.aluPCs)],
				Kind: cpu.OpALU, Dest: regALUBase + cpu.RegID(a%8),
				Src1: regChase, Lat: uint8(max(1, p.ALULat)),
			})
		}
		// Payload loads: registerwise independent — their addresses are
		// computable early (scan cursors, table bases), so out-of-order
		// execution hides their latency behind the chase spine and behind
		// each other. These are the paper's *non-critical* loads: they still
		// gate request completion through in-order commit, but their
		// ROB-head stalls stay short because many are in flight at once.
		for l := 0; l < p.PayloadLoads; l++ {
			var paddr uint64
			if p.PayloadSeq {
				paddr = g.base + payloadOffset + (g.seqPos%p.PayloadLines)*LineBytes
				g.seqPos++
			} else if g.zipfLines != nil {
				paddr = g.base + payloadOffset + g.zipfLines.Next(g.rng)*LineBytes
			} else {
				paddr = g.base + payloadOffset + g.rng.Uint64n(p.PayloadLines)*LineBytes
			}
			var pcIdx int
			if g.zipfPCs != nil {
				pcIdx = int(g.zipfPCs.Next(g.rng))
			} else {
				pcIdx = g.rng.Intn(len(g.payloadPCs))
			}
			buf = append(buf, cpu.MicroOp{
				PC:   g.payloadPCs[pcIdx],
				Kind: cpu.OpLoad, Dest: regPayload + cpu.RegID(l%8),
				Addr: paddr,
			})
		}
	}
	// Response writes: each request appends to a rotating response buffer,
	// so store traffic continuously misses and reaches DRAM (real servers
	// serialise responses into fresh buffer space).
	for s := 0; s < p.StoresPerReq; s++ {
		buf = append(buf, cpu.MicroOp{
			PC:   g.storePCs[s%len(g.storePCs)],
			Kind: cpu.OpStore, Src1: regChase,
			Addr: g.base + (1 << 31) + (g.storePos%(1<<16))*LineBytes,
		})
		g.storePos++
	}
	// Completion marker: depends on the final chase value so it commits only
	// after the request's critical path resolves.
	buf = append(buf, cpu.MicroOp{
		PC: g.endPC, Kind: cpu.OpALU, Src1: regChase, Lat: 1,
		Flags: cpu.FlagReqEnd, ReqID: reqID,
	})
	return buf
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
