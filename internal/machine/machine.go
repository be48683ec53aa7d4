package machine

import (
	"fmt"
	"math/bits"

	"pivot/internal/bwctrl"
	"pivot/internal/cache"
	"pivot/internal/cbp"
	"pivot/internal/cpu"
	"pivot/internal/dram"
	"pivot/internal/flight"
	"pivot/internal/interconnect"
	"pivot/internal/load"
	"pivot/internal/loadgen"
	"pivot/internal/mba"
	"pivot/internal/mem"
	"pivot/internal/metrics"
	"pivot/internal/profile"
	"pivot/internal/rrbp"
	"pivot/internal/sim"
	"pivot/internal/stats"
	"pivot/internal/workload"
)

// TaskKind distinguishes latency-critical from best-effort tasks.
type TaskKind int

// Task kinds.
const (
	TaskLC TaskKind = iota
	TaskBE
)

// TaskSpec pins one task to one core.
type TaskSpec struct {
	Kind TaskKind
	LC   workload.LCParams // when Kind == TaskLC
	BE   workload.BEParams // when Kind == TaskBE

	// MeanInterarrival is the LC request inter-arrival mean in cycles
	// (0 = closed loop, used for profiling and max-throughput probes).
	// It is shorthand for a stationary Load spec: when Load.Mean is zero it
	// is copied into the load model's base mean.
	MeanInterarrival float64

	// Load declares the LC task's arrival-rate shape and request-population
	// skew (phase curves, on-off bursts, activity windows, Zipf payloads).
	// The zero value, combined with MeanInterarrival, reproduces the
	// historical stationary open/closed-loop Poisson process bit-exactly.
	Load load.Spec

	// Potential is the offline-profiled potential-critical set consumed by
	// PolicyPIVOT. Nil under PIVOT means "no filter" (every load measured).
	Potential profile.CriticalSet

	// ExpectedBW is this LC task's user-specified expected bandwidth
	// fraction (§II-B). The harness calibrates it from the task's run-alone
	// bandwidth at its operating load. Zero falls back to
	// Options.ExpectedLCBW.
	ExpectedBW float64

	Seed uint64
}

// Options selects the policy and its parameters.
type Options struct {
	Policy Policy

	// DisableMSC suppresses priority enforcement at one MSC for the Fig 7
	// leave-one-out experiment. The zero value (CompL1) disables nothing.
	DisableMSC mem.Component

	// RRBP configures PIVOT's online table; zero value = rrbp.DefaultConfig.
	RRBP rrbp.Config

	// CBP configures the CBP baselines; zero value = cbp.DefaultConfig.
	CBP cbp.Config

	// Profile attaches a full offline profiler to every LC core (the
	// offline phase measures ALL loads, which is what makes it 75× slow on
	// real hardware; in the simulator it is free).
	Profile bool

	// ExpectedLCBW is each LC task's user-specified expected bandwidth
	// fraction, driving PIVOT's adaptive RRBP threshold (§IV-C): while the
	// task's measured usage is below it, PIVOT aggressively includes more
	// potential-set loads; once usage recovers, only persistent long-stall
	// loads stay prioritised. Default 0.08 — a typical LC task's standalone
	// channel share. (MPAM's queue classification separately pins LC
	// partitions at Min=1.0, the paper's §II-B setting.)
	ExpectedLCBW float64

	// NoStarvationGuard disables the §IV-D max-wait promotion (ablation).
	NoStarvationGuard bool

	// SampleRequests records the per-component cycle split of the first N
	// LC demand requests completed in the measured region (request-flow
	// debugging; see Machine.SampledRequests). 0 disables sampling.
	SampleRequests int

	// Prefetch enables the per-core stride/stream prefetcher. Off by
	// default: the headline configuration folds prefetch concurrency into
	// the effective L1 miss buffers (DESIGN.md §6.1); the ablation
	// experiment turns this on to quantify explicit prefetching.
	Prefetch bool

	// WatchdogWindow enables the forward-progress watchdog: if no core
	// commits an instruction for this many cycles, StepChecked aborts the run
	// with a *StallError carrying a diagnostic snapshot instead of spinning
	// forever. 0 disables the watchdog (and plain Run never checks it).
	WatchdogWindow sim.Cycle

	// Audit enables the invariant auditor: every DefaultStatsEpoch cycles of
	// a StepChecked run, the machine asserts request conservation, queue
	// capacity bounds and bandwidth-credit accounting, aborting with a
	// *AuditError on the first violation.
	Audit bool

	// MaxCycles bounds the total simulated cycles a StepChecked run may
	// consume (a runaway budget); 0 = unbounded.
	MaxCycles sim.Cycle

	// Dense forces naive per-cycle stepping instead of the quiescence-aware
	// skip-ahead engine (the -dense escape hatch). Results are bit-identical
	// either way — dense is the trusted reference the equivalence suite
	// compares against — so Dense is deliberately NOT part of the machine
	// fingerprint: dense and skip-ahead machines fingerprint alike.
	Dense bool
}

// LCTask is the runtime state of one latency-critical task.
type LCTask struct {
	Core     int
	Spec     TaskSpec
	Gen      *workload.ReqGen
	Source   *loadgen.Source
	RRBP     *rrbp.Table
	CBP      *cbp.Predictor
	Profiler *profile.Profiler
}

// Machine is the simulated node.
type Machine struct {
	Cfg Config
	Opt Options

	Engine *sim.Engine
	Cores  []*cpu.Core
	ports  []*corePort

	llc *cache.Cache
	ic  *interconnect.Station
	bus *interconnect.Station
	bw  *bwctrl.Controller
	mc  *dram.Controller
	thr *mba.Throttle

	delays delayQ

	tasks []TaskSpec
	lcs   []*LCTask
	// bes holds the generated BE streams by core index (nil for LC cores and
	// custom-stream tasks) so SnapshotState can reach their cursors.
	bes []*workload.BEStream

	reqPool []*mem.Req

	// statsSet optionally filters the per-component latency split (Fig 5)
	// to requests from specific static loads (e.g. the chase PCs).
	statsSet profile.CriticalSet

	splitSum   [mem.NumComponents]float64
	splitCount uint64
	sampled    []RequestRecord

	// Stats framework (nil until EnableStats): the instrument registry, the
	// epoch sampler, and the LC memory-latency distribution it feeds.
	// statsOn caches "EnableStats was called" as a plain bool so per-request
	// hot paths pay a single flag test, not pointer comparisons, when the
	// framework is disabled.
	statsReg *stats.Registry
	sampler  *stats.Sampler
	latDist  *stats.Distribution
	statsOn  bool
	// statsNow is the cycle of the last epoch sample. Time-varying gauges
	// read it, not the live clock, so a dump taken after the run reports
	// the value the final sample saw.
	statsNow sim.Cycle

	// Flight recorder (nil until EnableFlight); flightOn caches the check so
	// the request hot paths pay a single flag test when recording is off.
	flightRec *flight.Recorder
	flightOn  bool

	// progress, when set, is bumped by StepChecked after every granule so a
	// live telemetry endpoint can report the current cycle without touching
	// simulated state (the counter is atomic; see stats.Progress).
	progress *stats.Progress

	// predTick notes that at least one LC task carries an online predictor
	// (RRBP or CBP), so auxTick has observable work at every 1024-cycle
	// refresh boundary and skip-ahead must not jump across one.
	predTick bool

	measureStart sim.Cycle
	measured     sim.Cycle

	// Request-conservation accounting for the invariant auditor: every
	// pooled request is either recycled or held somewhere the auditor can
	// count (a port's out queue, an MSC queue, DRAM's response pipe, or a
	// req-carrying delay slot tracked by reqsDelayed).
	reqsIssued   uint64
	reqsRecycled uint64
	reqsDelayed  int
	// outOcc is a bitmask of ports with a non-empty egress queue, kept
	// coherent at every empty↔non-empty transition so the aux ticker's
	// forecast, its compensation and its flush loop iterate set bits
	// instead of scanning every port. Derived state, never serialised.
	outOcc uint64
	// statsResetAt anchors elapsed-cycle accounting (bandwidth credit) to
	// the last ResetStats.
	statsResetAt sim.Cycle
}

// New assembles a machine running the given tasks under opt. Task i runs on
// core i with PartID i; len(tasks) must not exceed cfg.Cores.
func New(cfg Config, opt Options, tasks []TaskSpec) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(tasks) > cfg.Cores {
		return nil, fmt.Errorf("machine: %d tasks exceed %d cores", len(tasks), cfg.Cores)
	}
	opt, cons := opt.normalize(cfg)
	m := &Machine{Cfg: cfg, Opt: opt, Engine: sim.NewEngine(), tasks: tasks,
		bes: make([]*workload.BEStream, len(tasks))}

	// Memory side, downstream to upstream, built from the normalized
	// construction config (m.Cfg keeps the caller's config — the machine
	// fingerprint must not depend on option-derived tweaks). Cache geometries
	// were validated above, so the Must constructors cannot fire.
	m.llc = cache.MustNew(cfg.LLC)
	m.mc = dram.New(cons.DRAM, cfg.L1.LineBytes)
	m.mc.Respond = m.onResp
	m.bw = bwctrl.New(cons.BW, m.mc)
	m.bus = interconnect.New(cons.Bus, m.bw)
	m.ic = interconnect.New(cons.IC, llcLink{m})
	m.thr = mba.New(m.ic, cfg.DRAM.TBurst)

	m.applyPolicy()

	// Cores and tasks.
	for i, spec := range tasks {
		port := newCorePort(m, i, spec.Kind == TaskLC)
		port.storeCritical = opt.Policy == PolicyFullPath && spec.Kind == TaskLC
		m.ports = append(m.ports, port)

		var stream cpu.Stream
		hooks := cpu.Hooks{}
		rng := sim.NewRNG(spec.Seed + uint64(i+1)*0x9E37)

		if spec.Kind == TaskLC {
			lc := &LCTask{Core: i, Spec: spec}
			lc.Gen = workload.NewReqGen(spec.LC, i, rng.Fork())
			lc.Gen.SetZipf(spec.Load.ZipfTheta)
			// The model receives the same RNG fork the source itself used
			// to own, so stationary arrivals stay bit-identical to the
			// pre-refactor engine.
			lspec := spec.Load
			if lspec.Mean == 0 {
				lspec.Mean = spec.MeanInterarrival
			}
			lc.Source = loadgen.New(lc.Gen, load.New(lspec, rng.Fork()), m.Engine.Now)
			stream = lc.Source
			hooks.OnReqEnd = lc.Source.OnReqEnd
			if opt.Profile {
				lc.Profiler = profile.NewProfiler()
			}
			switch opt.Policy {
			case PolicyPIVOT:
				lc.RRBP = rrbp.New(opt.RRBP)
			case PolicyCBP, PolicyCBPFullPath:
				lc.CBP = cbp.New(opt.CBP)
			}
			hooks.IsCritical, hooks.SkipCritical = m.criticalHook(lc)
			hooks.OnLoadRetire = m.retireHook(lc)
			m.lcs = append(m.lcs, lc)
		} else {
			be := workload.NewBEStream(spec.BE, i, rng.Fork())
			m.bes[i] = be
			stream = be
		}

		core := cpu.New(i, cfg.Core, stream, port, hooks)
		m.Cores = append(m.Cores, core)
	}

	// Skip-ahead needs to know whether any predictor expects the coarse
	// 1024-cycle refresh/adaptation tick in auxTick.
	for _, lc := range m.lcs {
		if lc.RRBP != nil || lc.CBP != nil {
			m.predTick = true
		}
	}

	// Tick order: DRAM first so responses land before upstream moves, then
	// MSCs downstream-to-upstream, then machine plumbing, then cores.
	// Components are registered as concrete values (not TickFunc closures) so
	// their Ticks return forecasts, the engine can discover their Skipper
	// sides, and the hot loop dispatches through a single interface call per
	// component.
	m.Engine.Register(m.mc)
	m.Engine.Register(m.bw)
	m.Engine.Register(m.bus)
	m.Engine.Register(m.ic)
	m.Engine.Register(&auxTicker{m: m})
	for _, c := range m.Cores {
		m.Engine.Register(c)
	}
	m.Engine.SetDense(opt.Dense)
	return m, nil
}

// MustNew is New panicking on error, for tests and examples.
func MustNew(cfg Config, opt Options, tasks []TaskSpec) *Machine {
	m, err := New(cfg, opt, tasks)
	if err != nil {
		panic(err)
	}
	return m
}

// normalize resolves every option default in one pass and derives the
// construction config the MSC constructors consume: ExpectedLCBW falls back
// to 0.05, a zero RRBP config becomes the default geometry at the scaled
// refresh, a zero CBP config becomes its default, and NoStarvationGuard
// zeroes the MSCs' MaxWait promotion thresholds. Only the returned config
// carries those tweaks — callers keep their own (it is the machine
// fingerprint).
func (o Options) normalize(cfg Config) (Options, Config) {
	if o.ExpectedLCBW <= 0 {
		o.ExpectedLCBW = 0.05
	}
	if o.RRBP == (rrbp.Config{}) {
		o.RRBP = rrbp.DefaultConfig()
		// The paper refreshes every 1M cycles across 20-billion-cycle runs;
		// our measured regions are ~10³× shorter, so the default refresh is
		// scaled to keep the same windows-per-run ratio (EXPERIMENTS.md).
		o.RRBP.RefreshCycles = ScaledRRBPRefresh
	}
	if o.CBP == (cbp.Config{}) {
		o.CBP = cbp.DefaultConfig()
	}
	if o.NoStarvationGuard {
		cfg.DRAM.MaxWait = 0
		cfg.IC.MaxWait = 0
		cfg.Bus.MaxWait = 0
		cfg.BW.Station.MaxWait = 0
	}
	return o, cfg
}

// applyPolicy configures priority queues, MPAM and LLC partitioning.
func (m *Machine) applyPolicy() {
	cfg, opt := m.Cfg, m.Opt

	prioAll := false
	switch opt.Policy {
	case PolicyFullPath, PolicyPIVOT, PolicyCBPFullPath:
		prioAll = true
	}
	if prioAll {
		m.ic.PriorityEnabled = opt.DisableMSC != mem.CompInterconnect
		m.bus.PriorityEnabled = opt.DisableMSC != mem.CompBus
		m.bw.Station.PriorityEnabled = opt.DisableMSC != mem.CompBWCtrl
		m.mc.PriorityEnabled = opt.DisableMSC != mem.CompMemCtrl
	}
	if opt.Policy == PolicyCBP {
		// CBP guides only the memory controller (§VI-B).
		m.mc.PriorityEnabled = true
	}

	switch opt.Policy {
	case PolicyMPAM, PolicyFullPath, PolicyPIVOT:
		m.bw.MPAMEnabled = true
	}
	if opt.Policy == PolicyFullPath || opt.Policy == PolicyPIVOT {
		// §IV-D: within the normal (and priority) queues, scheduling still
		// follows MPAM classes at every MSC — LC tasks' non-critical
		// requests are ordered ahead of BE traffic inside the queues, they
		// just don't get dedicated queue space or strict DRAM service.
		m.ic.Ranker = m.bw
		m.bus.Ranker = m.bw
		m.mc.Ranker = m.bw
		m.bw.OnRankGen = func() {
			m.mc.RanksChanged()
			m.bus.RanksChanged()
			m.ic.RanksChanged()
		}
	}

	// LLC partitioning: every policy except Default reserves the LLC for LC
	// tasks by restricting BE partitions to BEWays ways.
	if opt.Policy != PolicyDefault {
		beMask := uint64(1)<<uint(cfg.BEWays) - 1
		for i, t := range m.tasks {
			if t.Kind == TaskBE {
				m.llc.SetWayMask(mem.PartID(i), beMask)
			}
		}
	}

	// MPAM allocations: LC partitions declare Min=100% (the paper's §II-B
	// setting) so their requests always classify high; BE tasks are capped
	// low so they classify as low priority under contention.
	for i, t := range m.tasks {
		p := mem.PartID(i)
		if t.Kind == TaskLC {
			m.bw.SetAllocation(p, bwctrl.Allocation{Min: 1.0, Max: 1.0})
		} else {
			m.bw.SetAllocation(p, bwctrl.Allocation{Min: 0, Max: 0.05})
		}
	}
}

// criticalHook builds the per-load criticality decision for an LC core,
// together with the matching skip compensator: skip(pc, n) must account for
// exactly n evaluations of the decision (predictor lookup counters and
// threshold-crossing flags) without issuing them one by one. Cores refuse to
// report idle on a critical-flagged retry when SkipCritical is nil, so the
// two are always produced as a pair.
func (m *Machine) criticalHook(lc *LCTask) (crit func(pc uint64) bool, skip func(pc uint64, n uint64)) {
	switch m.Opt.Policy {
	case PolicyFullPath:
		// Always-critical is pure: skipping evaluations touches nothing.
		return func(uint64) bool { return true }, func(uint64, uint64) {}
	case PolicyPIVOT:
		pot := lc.Spec.Potential
		tbl := lc.RRBP
		crit = func(pc uint64) bool {
			if pot != nil && !pot.Contains(pc) {
				return false // the extra instruction bit is not set
			}
			return tbl.IsCritical(pc)
		}
		skip = func(pc uint64, n uint64) {
			if pot != nil && !pot.Contains(pc) {
				return
			}
			tbl.SkipLookups(pc, n)
		}
		return crit, skip
	case PolicyCBP, PolicyCBPFullPath:
		pred := lc.CBP
		return func(pc uint64) bool { return pred.IsCritical(pc) },
			func(pc uint64, n uint64) { pred.SkipLookups(pc, n) }
	default:
		return nil, nil
	}
}

// retireObserver is the per-load retire observer for an LC core. It replaces
// the earlier closure chain: a single struct with a fixed method keeps the
// retire path free of per-call closure allocation (see the AllocsPerRun
// regression test) and dispatches each consumer with one nil check.
type retireObserver struct {
	long     sim.Cycle
	pot      profile.CriticalSet
	profiler *profile.Profiler
	rrbp     *rrbp.Table
	cbp      *cbp.Predictor
}

func (o *retireObserver) onLoadRetire(pc uint64, stall sim.Cycle, llcMiss bool) {
	if o.profiler != nil {
		o.profiler.OnLoadRetire(pc, stall, llcMiss)
	}
	if o.rrbp != nil {
		// Online phase: only loads carrying the potential bit are measured
		// (§IV-C) — this is what keeps the overhead minimal.
		if o.pot == nil || o.pot.Contains(pc) {
			o.rrbp.RecordRetire(pc, stall > o.long)
		}
	}
	if o.cbp != nil && stall > o.long {
		o.cbp.RecordStall(pc)
	}
}

// retireHook builds the per-load retire observer for an LC core.
func (m *Machine) retireHook(lc *LCTask) func(pc uint64, stall sim.Cycle, llcMiss bool) {
	if lc.Profiler == nil && lc.RRBP == nil && lc.CBP == nil {
		return nil
	}
	o := &retireObserver{
		long:     m.Cfg.Core.LongStall,
		pot:      lc.Spec.Potential,
		profiler: lc.Profiler,
		rrbp:     lc.RRBP,
		cbp:      lc.CBP,
	}
	return o.onLoadRetire
}

// auxTicker registers Machine.auxTick with the engine and forecasts when
// the machine-level plumbing is quiescent: no delay slot is due before the
// forecast, every port with pending egress is held by the MBA throttle
// (whose release cycle then bounds the sleep), and (when any predictor is
// attached) the next 1024-cycle refresh boundary bounds the sleep. The only
// counter an elided auxTick would have bumped is the throttle's per-cycle
// Delayed count on each held port's head request, so a sleep owes exactly
// while some port holds egress; SkipCycles compensates it.
type auxTicker struct{ m *Machine }

func (a *auxTicker) Tick(now sim.Cycle) sim.Cycle {
	a.m.auxTick(now)
	return a.forecast(now + 1)
}

// SetWaker implements sim.Wakeable: scheduling a delay event is the only
// input from outside the aux ticker's own Tick that can bring its work
// forward (egress queues and the throttle move only inside auxTick).
func (a *auxTicker) SetWaker(w sim.Waker) { a.m.delays.waker = w }

// forecast is the forecast the Tick before cycle at returns. A port with
// pending egress used to pin the machine dense unconditionally — through
// entire MBA-throttled intervals — but when the head request is only
// waiting out the throttle's inserted delay, the release cycle is a hard
// bound: nothing else can move that queue earlier, and downstream refusals
// (a full interconnect) report as not-held and keep the ticker awake.
func (a *auxTicker) forecast(at sim.Cycle) sim.Cycle {
	m := a.m
	next, idle := m.delays.nextDue(at)
	if !idle {
		return at
	}
	for occ := m.outOcc; occ != 0; occ &= occ - 1 {
		p := m.ports[bits.TrailingZeros64(occ)]
		until, held := m.thr.HeldUntil((*p.out.At(0)).Part, at)
		if !held {
			return at
		}
		next = min(next, until)
	}
	if m.predTick {
		if at&1023 == 0 {
			return at
		}
		next = min(next, (at|1023)+1)
	}
	if m.outOcc != 0 {
		return sim.Owing(next)
	}
	return next
}

// SkipCycles compensates elided auxTicks: each skipped cycle, a dense flush
// would have offered every non-empty port's head request to the throttle and
// been refused once (the flush loop stops at the first refusal), bumping
// Delayed exactly once per held port per cycle.
func (a *auxTicker) SkipCycles(from, to sim.Cycle) {
	a.m.thr.Delayed += uint64(bits.OnesCount64(a.m.outOcc)) * uint64(to-from)
}

// auxTick runs the machine-level plumbing each cycle: delayed completions,
// per-core L2-miss egress, and (coarsely) predictor refresh and threshold
// adaptation.
func (m *Machine) auxTick(now sim.Cycle) {
	m.drainDelays(now)
	for occ := m.outOcc; occ != 0; occ &= occ - 1 {
		m.ports[bits.TrailingZeros64(occ)].flush(now)
	}
	if now&1023 == 0 {
		if m.predTick {
			// Refresh and threshold adaptation rewrite the predictor state
			// that sleeping cores' elided lookups update: settle them first.
			m.Engine.Settle()
		}
		for _, lc := range m.lcs {
			if lc.RRBP != nil {
				lc.RRBP.MaybeRefresh(now)
				// Usage readings are meaningless before the first completed
				// monitor window; stay conservative until then.
				if m.bw.WindowsDone() > 0 {
					expected := lc.Spec.ExpectedBW
					if expected <= 0 {
						expected = m.Opt.ExpectedLCBW
					}
					usage := m.bw.Usage(mem.PartID(lc.Core))
					lc.RRBP.SetUnderBandwidth(usage < expected)
				}
			}
			if lc.CBP != nil {
				lc.CBP.MaybeRefresh(now)
			}
		}
	}
}

// llcLink is the interconnect's downstream: the shared LLC lookup, whose
// misses go on to the bus. An LLC hit is always accepted, so only the bus
// refuses, and the refusal contract (retry hook, skipped-refusal charge) is
// the bus's.
type llcLink struct{ m *Machine }

func (l llcLink) Accept(r *mem.Req, now sim.Cycle) bool { return l.m.llcAccept(r, now) }
func (l llcLink) SetRetry(retry func())                 { l.m.bus.SetRetry(retry) }
func (l llcLink) ChargeRefused(from, to sim.Cycle)      { l.m.bus.ChargeRefused(from, to) }

// llcAccept looks r up in the shared LLC and forwards a miss to the bus.
func (m *Machine) llcAccept(r *mem.Req, now sim.Cycle) bool {
	if !r.LLCChecked {
		r.LLCChecked = true
		if m.llc.Lookup(r.Addr, r.Part) {
			r.Hop(mem.CompLLC, now, sim.Cycle(m.Cfg.LLC.HitCycles))
			if r.IsWrite {
				m.recycle(r, now)
				return true
			}
			due := now + sim.Cycle(m.Cfg.LLC.HitCycles) + m.Cfg.LLCRespLatency
			m.delayReq(due, delayDeliver, r)
			return true
		}
		r.LLCMiss = true
	}
	// Miss (or previously determined miss, retried): toward the bus.
	return m.bus.Accept(r, now)
}

// onResp handles a DRAM response: fill the caches and wake the core.
func (m *Machine) onResp(r *mem.Req, now sim.Cycle) {
	if r.IsWrite {
		m.recycle(r, now)
		return
	}
	m.llc.Insert(r.Addr, r.Part)
	m.deliver(r, now, true)
}

// deliver fills the private caches, wakes MSHR waiters and recycles r.
func (m *Machine) deliver(r *mem.Req, now sim.Cycle, llcMiss bool) {
	// Wake the core before the fill, even for a waiter-less one (a
	// prefetch): the freed MSHR or the filled line may unblock a
	// structurally refused load.
	m.Cores[r.CoreID].WakeIdle()
	p := m.ports[r.CoreID]
	p.l2.Insert(r.Addr, r.Part)
	p.l1.Insert(r.Addr, r.Part)
	if e := p.mshr.Fill(r.Addr); e != nil {
		for _, w := range e.Waiters {
			m.Cores[r.CoreID].CompleteLoad(w, llcMiss, now)
		}
	}
	if r.LCTask && !r.Prefetch && now >= m.measureStart {
		if m.statsSet == nil || m.statsSet.Contains(r.PC) {
			for c := 0; c < int(mem.NumComponents); c++ {
				m.splitSum[c] += float64(r.Split[c])
			}
			m.splitCount++
		}
		if m.statsOn {
			m.latDist.Observe(float64(now - r.Issued))
		}
		if len(m.sampled) < m.Opt.SampleRequests {
			m.sampled = append(m.sampled, RequestRecord{
				PC: r.PC, CoreID: r.CoreID, Critical: r.Critical,
				IssuedAt: uint64(r.Issued), CompletedAt: uint64(now), Split: r.Split,
			})
		}
	}
	m.recycle(r, now)
}

func (m *Machine) newReq() *mem.Req {
	m.reqsIssued++
	var r *mem.Req
	if n := len(m.reqPool); n > 0 {
		r = m.reqPool[n-1]
		m.reqPool = m.reqPool[:n-1]
		r.Reset()
	} else {
		r = &mem.Req{}
	}
	if m.flightOn {
		r.Trace = m.flightRec.StartTrace()
	}
	return r
}

// recycle returns a request to the pool, first handing its completed
// lifecycle to the flight recorder when one is attached. Every recycle site
// is a real end-of-life (a delivered load, an absorbed write), so completion
// and recycling are the same event.
func (m *Machine) recycle(r *mem.Req, now sim.Cycle) {
	if m.flightOn {
		m.flightRec.Complete(r, now)
		r.Trace = nil
	}
	m.reqsRecycled++
	m.reqPool = append(m.reqPool, r)
}

// delayReq schedules a request-carrying delay event (a fixed-latency hop),
// keeping the in-flight count the invariant auditor checks exact: the count
// rises here and falls when dispatchDelayed releases the request.
func (m *Machine) delayReq(due sim.Cycle, kind delayKind, r *mem.Req) {
	m.reqsDelayed++
	m.delays.after(delayed{due: due, kind: kind, req: r})
}

// SetStatsFilter restricts the per-component latency split to requests whose
// PC is in set (nil = all LC requests). Used by the Fig 5 harness.
func (m *Machine) SetStatsFilter(set profile.CriticalSet) { m.statsSet = set }

// RequestRecord is one sampled LC memory request's life on the memory path.
type RequestRecord struct {
	PC          uint64
	CoreID      int
	Critical    bool
	IssuedAt    uint64
	CompletedAt uint64
	Split       [mem.NumComponents]uint32
}

// TotalCycles sums the record's per-component cycles.
func (r RequestRecord) TotalCycles() uint64 {
	var t uint64
	for _, v := range r.Split {
		t += uint64(v)
	}
	return t
}

// SampledRequests returns the request-flow samples collected in the measured
// region (Options.SampleRequests bounds the count).
func (m *Machine) SampledRequests() []RequestRecord { return m.sampled }

// Run advances the machine through a warm-up region (statistics discarded)
// and then a measured region.
func (m *Machine) Run(warmup, measure sim.Cycle) {
	m.Engine.Step(warmup)
	m.ResetStats()
	m.measureStart = m.Engine.Now()
	m.Engine.Step(measure)
	m.measured = measure
}

// ResetStats clears all statistics, marking the start of measurement.
func (m *Machine) ResetStats() {
	m.measureStart = m.Engine.Now()
	m.statsResetAt = m.Engine.Now()
	m.measured = 0
	for _, c := range m.Cores {
		c.ResetStats()
	}
	for _, p := range m.ports {
		p.l1.ResetStats()
		p.l2.ResetStats()
	}
	m.llc.ResetStats()
	m.ic.ResetStats()
	m.bus.ResetStats()
	m.bw.Station.ResetStats()
	m.mc.ResetStats()
	for _, lc := range m.lcs {
		lc.Source.ResetMeasurement()
	}
	m.splitSum = [mem.NumComponents]float64{}
	m.splitCount = 0
	m.sampled = m.sampled[:0]
	if m.latDist != nil {
		m.latDist.Reset()
	}
	if m.flightRec != nil {
		m.flightRec.Reset()
	}
}

// MeasuredCycles reports the length of the measured region.
func (m *Machine) MeasuredCycles() sim.Cycle { return m.measured }

// MarkMeasured records the measured-region length for callers that drive
// the engine directly (resource managers) instead of using Run.
func (m *Machine) MarkMeasured(measure sim.Cycle) { m.measured = measure }

// Tasks returns the task specifications in core order.
func (m *Machine) Tasks() []TaskSpec { return m.tasks }

// LCTasks returns the machine's LC tasks in core order.
func (m *Machine) LCTasks() []*LCTask { return m.lcs }

// LCp95 returns LC task i's 95th-percentile request latency in cycles.
func (m *Machine) LCp95(i int) uint32 {
	return metrics.Percentile(m.lcs[i].Source.Latencies(), 95)
}

// BECommitted sums instructions committed by BE cores in the measured region.
func (m *Machine) BECommitted() uint64 {
	var sum uint64
	for i, t := range m.tasks {
		if t.Kind == TaskBE {
			sum += m.Cores[i].Stats.Committed
		}
	}
	return sum
}

// BWUtil returns achieved/peak DRAM bandwidth over the measured region.
func (m *Machine) BWUtil() float64 { return m.mc.Utilisation(m.measured) }

// AvgBandwidthGBs converts measured bandwidth to GB/s at 2.4 GHz for the
// figures that report absolute bandwidth.
func (m *Machine) AvgBandwidthGBs() float64 {
	if m.measured == 0 {
		return 0
	}
	bytes := float64(m.mc.Stats.LinesMoved) * float64(m.Cfg.L1.LineBytes)
	secs := float64(m.measured) / 2.4e9
	return bytes / secs / 1e9
}

// SplitAverages returns the mean per-component cycles of tracked LC requests
// and the number of requests aggregated.
func (m *Machine) SplitAverages() ([mem.NumComponents]float64, uint64) {
	var out [mem.NumComponents]float64
	if m.splitCount == 0 {
		return out, 0
	}
	for c := range out {
		out[c] = m.splitSum[c] / float64(m.splitCount)
	}
	return out, m.splitCount
}

// DRAMStats exposes the memory controller counters.
func (m *Machine) DRAMStats() dram.Stats { return m.mc.Stats }

// LLC exposes the shared cache (managers adjust way masks through it).
func (m *Machine) LLC() *cache.Cache { return m.llc }

// MBA exposes the throttle (managers program per-part levels).
func (m *Machine) MBA() *mba.Throttle { return m.thr }

// BWController exposes the bandwidth controller (for usage monitoring).
func (m *Machine) BWController() *bwctrl.Controller { return m.bw }
