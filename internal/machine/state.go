package machine

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"

	"pivot/internal/bwctrl"
	"pivot/internal/cache"
	"pivot/internal/cbp"
	"pivot/internal/cpu"
	"pivot/internal/dram"
	"pivot/internal/flight"
	"pivot/internal/interconnect"
	"pivot/internal/loadgen"
	"pivot/internal/mba"
	"pivot/internal/mem"
	"pivot/internal/prefetch"
	"pivot/internal/profile"
	"pivot/internal/rrbp"
	"pivot/internal/sim"
	"pivot/internal/stats"
	"pivot/internal/workload"
)

// This file composes the per-component SnapshotState methods into one
// MachineState: the complete mutable state of a simulation at a cycle
// boundary. The differential oracles (skip-ahead vs dense, recorder on vs
// off, stationary vs neutral load) demand that two machines which simulated
// the same workload to the same cycle produce byte-identical StateBytes.

// PortState is one core's private memory hierarchy in serialisable form.
type PortState struct {
	L1   cache.CacheState
	L2   cache.CacheState
	MSHR cache.MSHRState
	PF   *prefetch.PrefetcherState // nil unless Options.Prefetch
	Out  []mem.ReqState
}

// DelayedState is one scheduled delay-wheel event in serialisable form.
type DelayedState struct {
	Due    sim.Cycle
	Kind   uint8
	Core   int
	Seq    uint64
	Line   uint64
	HasReq bool
	Req    mem.ReqState
}

// delayedState converts one wheel event to its serialisable form.
func delayedState(e delayed) DelayedState {
	ds := DelayedState{Due: e.due, Kind: uint8(e.kind), Core: e.core, Seq: e.seq, Line: e.line}
	if e.req != nil {
		ds.HasReq = true
		ds.Req = e.req.State()
	}
	return ds
}

// LCTaskState is one LC task's runtime state (predictor tables, profiler and
// the load generator's arrival process).
type LCTaskState struct {
	Source   loadgen.SourceState
	RRBP     *rrbp.TableState
	CBP      *cbp.PredictorState
	Profiler *profile.ProfilerState
}

// BESlotState is one core's BE instruction stream, by value: gob rejects nil
// slice elements, so absent streams (LC cores) carry Present == false
// instead of a nil pointer.
type BESlotState struct {
	Present bool
	Stream  workload.BEStreamState
}

// MachineState is the full mutable state of a Machine. Wiring — tick order,
// hooks, downstream pointers, policy configuration — is NOT here: it follows
// from the Config, Options and TaskSpecs the machine was built from.
type MachineState struct {
	Engine sim.EngineState
	Cores  []cpu.CoreState
	Ports  []PortState
	LLC    cache.CacheState
	IC     interconnect.StationState
	Bus    interconnect.StationState
	BW     bwctrl.ControllerState
	MC     dram.ControllerState
	Thr    mba.ThrottleState
	Delays [256][]DelayedState
	LCs    []LCTaskState
	BEs    []BESlotState // by core index; Present is false for LC cores

	SplitSum   [mem.NumComponents]float64
	SplitCount uint64
	Sampled    []RequestRecord

	Sampler *stats.SamplerState      // nil unless stats enabled at snapshot
	LatDist *stats.DistributionState // nil unless stats enabled at snapshot
	Flight  *flight.RecorderState    // nil unless a flight recorder attached

	MeasureStart sim.Cycle
	Measured     sim.Cycle
	StatsResetAt sim.Cycle

	ReqsIssued   uint64
	ReqsRecycled uint64
	ReqsDelayed  int
}

// Fingerprint hashes the machine's identity — config, options and task
// specs — so the differential oracles can check that the two machines they
// compare were built from the same inputs.
func (m *Machine) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "cfg:%+v|policy:%d|rrbp:%+v|cbp:%+v|msc:%d|prof:%t|ebw:%g|nsg:%t|samp:%d|pf:%t",
		m.Cfg, m.Opt.Policy, m.Opt.RRBP, m.Opt.CBP, m.Opt.DisableMSC,
		m.Opt.Profile, m.Opt.ExpectedLCBW, m.Opt.NoStarvationGuard,
		m.Opt.SampleRequests, m.Opt.Prefetch)
	for _, t := range m.tasks {
		// Maps format with sorted keys, so Potential hashes deterministically.
		// Load is a pure value (slices of values, no pointers or maps), so
		// %+v formats it deterministically too.
		fmt.Fprintf(h, "|task:%d:%+v:%+v:%g:%g:%d:%v:%+v",
			t.Kind, t.LC, t.BE, t.MeanInterarrival, t.ExpectedBW, t.Seed,
			t.Potential, t.Load)
	}
	return h.Sum64()
}

// SnapshotState captures the machine's complete mutable state. It only reads
// — taking a snapshot can never perturb a simulation.
func (m *Machine) SnapshotState() *MachineState {
	s := &MachineState{
		Engine:       m.Engine.SnapshotState(),
		Cores:        make([]cpu.CoreState, len(m.Cores)),
		Ports:        make([]PortState, len(m.ports)),
		LLC:          m.llc.SnapshotState(),
		IC:           m.ic.SnapshotState(),
		Bus:          m.bus.SnapshotState(),
		BW:           m.bw.SnapshotState(),
		MC:           m.mc.SnapshotState(),
		Thr:          m.thr.SnapshotState(),
		BEs:          make([]BESlotState, len(m.bes)),
		SplitSum:     m.splitSum,
		SplitCount:   m.splitCount,
		Sampled:      append([]RequestRecord(nil), m.sampled...),
		MeasureStart: m.measureStart,
		Measured:     m.measured,
		StatsResetAt: m.statsResetAt,
		ReqsIssued:   m.reqsIssued,
		ReqsRecycled: m.reqsRecycled,
		ReqsDelayed:  m.reqsDelayed,
	}
	for i, c := range m.Cores {
		s.Cores[i] = c.SnapshotState()
	}
	for i, p := range m.ports {
		ps := PortState{
			L1:   p.l1.SnapshotState(),
			L2:   p.l2.SnapshotState(),
			MSHR: p.mshr.SnapshotState(),
			Out:  make([]mem.ReqState, p.out.Len()),
		}
		for j := range ps.Out {
			ps.Out[j] = (*p.out.At(j)).State()
		}
		if p.pf != nil {
			pf := p.pf.SnapshotState()
			ps.PF = &pf
		}
		s.Ports[i] = ps
	}
	for slot, pend := range m.delays.wheel {
		if len(pend) == 0 {
			continue
		}
		out := make([]DelayedState, len(pend))
		for i, e := range pend {
			out[i] = delayedState(e)
		}
		s.Delays[slot] = out
	}
	for _, lc := range m.lcs {
		ls := LCTaskState{Source: lc.Source.SnapshotState()}
		if lc.RRBP != nil {
			t := lc.RRBP.SnapshotState()
			ls.RRBP = &t
		}
		if lc.CBP != nil {
			t := lc.CBP.SnapshotState()
			ls.CBP = &t
		}
		if lc.Profiler != nil {
			t := lc.Profiler.SnapshotState()
			ls.Profiler = &t
		}
		s.LCs = append(s.LCs, ls)
	}
	for i, be := range m.bes {
		if be != nil {
			s.BEs[i] = BESlotState{Present: true, Stream: be.SnapshotState()}
		}
	}
	if m.sampler != nil {
		st := m.sampler.SnapshotState()
		s.Sampler = &st
	}
	if m.latDist != nil {
		st := m.latDist.SnapshotState()
		s.LatDist = &st
	}
	s.Flight = m.flightSnapshot()
	return s
}

// StateBytes gob-encodes the machine's complete mutable state. Two machines
// that simulated the same workload to the same cycle — dense vs skip-ahead,
// recorder on vs off — must produce byte-identical StateBytes; the
// differential oracles compare exactly that.
func (m *Machine) StateBytes() ([]byte, error) {
	return encodeState(m.SnapshotState())
}

// encodeState gob-encodes a machine snapshot.
func encodeState(s *MachineState) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
