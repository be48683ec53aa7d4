package machine

import (
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

// This file composes the per-component Snapshot()/Restore() pairs into one
// MachineState: the complete mutable state of a simulation at a cycle
// boundary. The contract every checkpoint test holds the machine to:
// restoring a snapshot into a freshly built machine (same Config, Options and
// TaskSpecs) and stepping N cycles is bit-identical to stepping the original
// machine the same N cycles.

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
// hooks, downstream pointers, policy configuration — is NOT here: it is
// reconstructed by building a machine from the identical Config, Options and
// TaskSpecs, then overwriting its state with RestoreState.
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

// Fingerprint hashes the machine's identity — config, options and task specs
// — so a checkpoint is only ever restored into a machine built from the same
// inputs.
func (m *Machine) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "cfg:%+v|policy:%d|rrbp:%+v|cbp:%+v|msc:%d|prof:%t|ebw:%g|nsg:%t|samp:%d|pf:%t",
		m.Cfg, m.Opt.Policy, m.Opt.RRBP, m.Opt.CBP, m.Opt.DisableMSC,
		m.Opt.Profile, m.Opt.ExpectedLCBW, m.Opt.NoStarvationGuard,
		m.Opt.SampleRequests, m.Opt.Prefetch)
	for _, t := range m.tasks {
		// Maps format with sorted keys, so Potential hashes deterministically.
		// Load is a pure value (slices of values, no pointers or maps), so
		// %+v formats it deterministically too; including it keys checkpoint
		// directories by load shape.
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
			Out:  make([]mem.ReqState, len(p.out)),
		}
		for j, r := range p.out {
			ps.Out[j] = r.State()
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

// validateState checks a decoded snapshot against this machine's geometry
// WITHOUT mutating anything, so a mismatched snapshot can be discarded and an
// older one tried while the machine is still pristine.
func (m *Machine) validateState(s *MachineState) error {
	if len(s.Cores) != len(m.Cores) {
		return fmt.Errorf("machine: snapshot has %d cores, machine has %d", len(s.Cores), len(m.Cores))
	}
	if len(s.Ports) != len(m.ports) {
		return fmt.Errorf("machine: snapshot has %d ports, machine has %d", len(s.Ports), len(m.ports))
	}
	if len(s.LCs) != len(m.lcs) {
		return fmt.Errorf("machine: snapshot has %d LC tasks, machine has %d", len(s.LCs), len(m.lcs))
	}
	if len(s.BEs) != len(m.bes) {
		return fmt.Errorf("machine: snapshot has %d BE slots, machine has %d", len(s.BEs), len(m.bes))
	}
	if got, want := len(s.LLC.Lines), m.llc.StateLines(); got != want {
		return fmt.Errorf("machine: LLC snapshot has %d lines, geometry holds %d", got, want)
	}
	for i, ps := range s.Ports {
		if got, want := len(ps.L1.Lines), m.ports[i].l1.StateLines(); got != want {
			return fmt.Errorf("machine: core %d L1 snapshot has %d lines, geometry holds %d", i, got, want)
		}
		if got, want := len(ps.L2.Lines), m.ports[i].l2.StateLines(); got != want {
			return fmt.Errorf("machine: core %d L2 snapshot has %d lines, geometry holds %d", i, got, want)
		}
		if (ps.PF != nil) != (m.ports[i].pf != nil) {
			return fmt.Errorf("machine: core %d prefetcher presence differs from snapshot", i)
		}
	}
	for i, cs := range s.Cores {
		if len(cs.ROB) != m.Cores[i].Config().ROBSize {
			return fmt.Errorf("machine: core %d snapshot ROB has %d slots, config has %d",
				i, len(cs.ROB), m.Cores[i].Config().ROBSize)
		}
	}
	for i := range s.LCs {
		if (s.LCs[i].RRBP != nil) != (m.lcs[i].RRBP != nil) ||
			(s.LCs[i].CBP != nil) != (m.lcs[i].CBP != nil) ||
			(s.LCs[i].Profiler != nil) != (m.lcs[i].Profiler != nil) {
			return fmt.Errorf("machine: LC task %d predictor/profiler presence differs from snapshot", i)
		}
	}
	for i := range s.BEs {
		if s.BEs[i].Present != (m.bes[i] != nil) {
			return fmt.Errorf("machine: core %d BE stream presence differs from snapshot", i)
		}
	}
	// A flight-recording machine must not resume from a snapshot that lacks
	// the recorder's state: the resumed run would silently under-report
	// everything completed before the snapshot. (The reverse — a snapshot
	// carrying flight state restored into a recorder-less machine — is fine:
	// the recorder is purely observational, so its state is simply dropped.)
	if m.flightRec != nil {
		if s.Flight == nil {
			return fmt.Errorf("machine: flight recorder attached but snapshot has no flight state")
		}
		if err := s.Flight.Validate(m.flightRec.Cfg()); err != nil {
			return err
		}
	}
	return nil
}

// RestoreState overwrites the machine's state from a snapshot taken on a
// machine built from the identical Config, Options and TaskSpecs. On a
// validation error the machine is untouched; apply-phase errors cannot occur
// after validation passes.
func (m *Machine) RestoreState(s *MachineState) error {
	if err := m.validateState(s); err != nil {
		return err
	}

	m.Engine.RestoreState(s.Engine)
	for i, c := range m.Cores {
		c.RestoreState(s.Cores[i])
	}
	for i, p := range m.ports {
		ps := s.Ports[i]
		if err := p.l1.RestoreState(ps.L1); err != nil {
			return err // unreachable after validateState; kept for safety
		}
		if err := p.l2.RestoreState(ps.L2); err != nil {
			return err
		}
		p.mshr.RestoreState(ps.MSHR)
		p.out = p.out[:0]
		for _, rs := range ps.Out {
			p.out = append(p.out, rs.Materialize())
		}
		if len(p.out) > 0 {
			m.outOcc |= 1 << uint(i)
		} else {
			m.outOcc &^= 1 << uint(i)
		}
		if p.pf != nil {
			p.pf.RestoreState(*ps.PF)
		}
	}
	if err := m.llc.RestoreState(s.LLC); err != nil {
		return err
	}
	m.ic.RestoreState(s.IC)
	m.bus.RestoreState(s.Bus)
	m.bw.RestoreState(s.BW)
	m.mc.RestoreState(s.MC)
	m.thr.RestoreState(s.Thr)

	for slot := range m.delays.wheel {
		m.delays.wheel[slot] = m.delays.wheel[slot][:0]
		for _, ds := range s.Delays[slot] {
			e := delayed{due: ds.Due, kind: delayKind(ds.Kind), core: ds.Core, seq: ds.Seq, line: ds.Line}
			if ds.HasReq {
				e.req = ds.Req.Materialize()
			}
			m.delays.wheel[slot] = append(m.delays.wheel[slot], e)
		}
	}
	// The occupancy cache feeding skip-ahead's quiescence poll is derived
	// state: rebuild it from the restored wheel.
	m.delays.recount()

	for i, lc := range m.lcs {
		ls := s.LCs[i]
		lc.Source.RestoreState(ls.Source)
		if lc.RRBP != nil {
			lc.RRBP.RestoreState(*ls.RRBP)
		}
		if lc.CBP != nil {
			lc.CBP.RestoreState(*ls.CBP)
		}
		if lc.Profiler != nil {
			lc.Profiler.RestoreState(*ls.Profiler)
		}
	}
	for i, be := range m.bes {
		if be != nil {
			be.RestoreState(s.BEs[i].Stream)
		}
	}

	m.splitSum = s.SplitSum
	m.splitCount = s.SplitCount
	m.sampled = append(m.sampled[:0], s.Sampled...)
	m.measureStart = s.MeasureStart
	m.measured = s.Measured
	m.statsResetAt = s.StatsResetAt
	m.reqsIssued = s.ReqsIssued
	m.reqsRecycled = s.ReqsRecycled
	m.reqsDelayed = s.ReqsDelayed

	// Stats instruments read through to the component counters restored
	// above; only the sampler ring and the latency distribution own state.
	// A snapshot from a stats-enabled machine restores into a stats-enabled
	// machine; a plain snapshot leaves a fresh sampler fresh.
	if m.sampler != nil && s.Sampler != nil {
		m.sampler.RestoreState(*s.Sampler)
	}
	if m.latDist != nil && s.LatDist != nil {
		m.latDist.RestoreState(*s.LatDist)
	}
	// Reattach the flight recorder last: the in-flight walk reads the
	// component queues restored above.
	m.flightRestore(s.Flight)
	return nil
}
