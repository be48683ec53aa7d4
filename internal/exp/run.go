package exp

import (
	"fmt"
	"runtime/debug"

	"pivot/internal/flight"
	"pivot/internal/load"
	"pivot/internal/machine"
	"pivot/internal/manager"
	"pivot/internal/mem"
	"pivot/internal/metrics"
	"pivot/internal/profile"
	"pivot/internal/sim"
)

// LCSpec places one LC app at a percentage of its calibrated max load.
type LCSpec struct {
	App     string
	LoadPct int

	// Interarrival pins the mean request inter-arrival (cycles) directly,
	// skipping calibration — no QoS target applies, so the task counts as
	// meeting QoS unless its queue saturates. 0 derives the arrival rate from
	// LoadPct and the app's calibrated max load.
	Interarrival float64

	// ExpectedBW overrides the task's expected bandwidth fraction; 0 derives
	// it from calibration (0.9x the run-alone bandwidth at LoadPct).
	ExpectedBW float64

	// Load shapes the task's arrival process and reference skew (phases,
	// on-off bursts, tenant windows, Zipf). Its Mean is left zero — the base
	// rate always comes from Interarrival or calibration at LoadPct; the
	// machine fills it in. The zero value keeps stationary Poisson arrivals.
	Load load.Spec
}

// BESpec places n threads of one BE app.
type BESpec struct {
	App     string
	Threads int
}

// Method is a partitioning approach as named in the paper's figures: either
// a hardware policy or a software manager over the managed policy.
type Method struct {
	Name    string
	Policy  machine.Policy
	Manager string // "PARTIES" or "CLITE" (Policy must be PolicyManaged)
	// MBALevel, for PolicyMBA, fixes the static BE throttle; 0 lets
	// RunBestMBA search for the best level meeting QoS.
	MBALevel int
}

// Named method sets used across figures.
func MethodDefault() Method { return Method{Name: "Default", Policy: machine.PolicyDefault} }
func MethodMBA(lvl int) Method {
	return Method{Name: "MBA", Policy: machine.PolicyMBA, MBALevel: lvl}
}
func MethodMPAM() Method     { return Method{Name: "MPAM", Policy: machine.PolicyMPAM} }
func MethodFullPath() Method { return Method{Name: "FullPath", Policy: machine.PolicyFullPath} }
func MethodPIVOT() Method    { return Method{Name: "PIVOT", Policy: machine.PolicyPIVOT} }
func MethodPARTIES() Method {
	return Method{Name: "PARTIES", Policy: machine.PolicyManaged, Manager: "PARTIES"}
}
func MethodCLITE() Method {
	return Method{Name: "CLITE", Policy: machine.PolicyManaged, Manager: "CLITE"}
}

// RunSpec is one co-location simulation.
type RunSpec struct {
	Method Method
	LCs    []LCSpec
	BEs    []BESpec

	// Extra policy options (leave-one-out MSC, RRBP overrides, ...).
	Opt machine.Options

	// Seed overrides Scale.Seed, and Warmup/Measure override the scale's run
	// windows; zero keeps the scale's value. The execution form of an
	// expanded scenario run unit carries these (scenario.Scenario.Seed and
	// the warmup/measure window overrides).
	Seed            uint64
	Warmup, Measure sim.Cycle
}

// RunResult summarises one simulation.
type RunResult struct {
	P50     []uint32 // per LC task
	P95     []uint32 // per LC task
	P99     []uint32 // per LC task
	QoSMet  []bool
	AllQoS  bool
	MeanLat []float64
	BEIPC   float64 // aggregate BE instructions per cycle
	BWUtil  float64
	Split   [mem.NumComponents]float64
	SplitN  uint64
	LCIPC   []float64
}

// Run executes one co-location scenario and evaluates QoS against the
// calibrated knee targets. All failure modes come back as errors: invalid
// machine configs, aborted runs (watchdog stall, invariant-audit violation,
// deadline, cycle budget), and any panic escaping the simulator, which is
// recovered into a *machine.PanicError carrying the goroutine stack and a
// diagnostic snapshot of the machine at the moment it died.
func (ctx *Context) Run(spec RunSpec) (RunResult, error) { return ctx.run(spec, variant{}) }

// variant is what a bespoke experiment changes about a co-location run. The
// zero value is a plain Run; every variant still builds its tasks, runs and
// judges QoS through run.
type variant struct {
	// potential, when set, replaces the method's potential set for each LC
	// app (a cleared or re-profiled set).
	potential func(app string) profile.CriticalSet
	// splitFilter restricts the per-component split statistics to these PCs.
	splitFilter map[uint64]bool
	// manager, when set, drives a run whose method names no manager.
	manager manager.Manager
}

func (ctx *Context) run(spec RunSpec, v variant) (res RunResult, err error) {
	var m *machine.Machine
	defer func() {
		if p := recover(); p != nil {
			pe := &machine.PanicError{Value: p, Stack: string(debug.Stack())}
			if m != nil {
				pe.Diag = m.Diagnose()
			}
			res, err = RunResult{}, pe
		}
	}()

	opt := ctx.guard(spec.Opt)
	opt.Policy = spec.Method.Policy
	if ctx.StatsEpoch > 0 && opt.SampleRequests == 0 {
		// Recording request lifecycles is purely observational; it feeds the
		// timeline exporter without touching any simulated decision.
		opt.SampleRequests = 128
	}

	seed, warmup, measure := ctx.runWindows(spec)

	// The one place a run's LC and BE specs become machine tasks.
	var tasks []machine.TaskSpec
	var targets []uint32
	for _, lc := range spec.LCs {
		ts := machine.TaskSpec{
			Kind: machine.TaskLC,
			Seed: seed,
			Load: lc.Load,
		}
		if v.potential != nil {
			ts.Potential = v.potential(lc.App)
		} else if spec.Method.Policy == machine.PolicyPIVOT {
			ts.Potential = ctx.Potential(lc.App)
		}
		if lc.Interarrival > 0 {
			// Explicit arrival rate: no calibration, no knee-derived target.
			ts.LC = ctx.lcParams(lc.App)
			ts.MeanInterarrival = lc.Interarrival
			ts.ExpectedBW = lc.ExpectedBW
			targets = append(targets, 0)
		} else {
			cal, cerr := ctx.Calib(lc.App)
			if cerr != nil {
				return RunResult{}, cerr
			}
			ts.LC = cal.App
			ts.MeanInterarrival = cal.MeanIAAt(lc.LoadPct)
			ts.ExpectedBW = 0.9 * cal.AloneBWAt(lc.LoadPct)
			if lc.ExpectedBW > 0 {
				ts.ExpectedBW = lc.ExpectedBW
			}
			targets = append(targets, cal.QoSTarget)
		}
		tasks = append(tasks, ts)
	}
	for _, be := range spec.BEs {
		app := ctx.beParams(be.App)
		for i := 0; i < be.Threads && len(tasks) < ctx.Cfg.Cores; i++ {
			tasks = append(tasks, machine.TaskSpec{
				Kind: machine.TaskBE, BE: app,
				Seed: seed + uint64(10+len(tasks)),
			})
		}
	}

	m, err = machine.New(ctx.Cfg, opt, tasks)
	if err != nil {
		return RunResult{}, err
	}
	if v.splitFilter != nil {
		m.SetStatsFilter(v.splitFilter)
	}
	if ctx.StatsEpoch > 0 {
		m.EnableStats(ctx.StatsEpoch, 0)
	}
	if ctx.FlightTop > 0 {
		m.EnableFlight(flight.Config{TopK: ctx.FlightTop, SampleCap: ctx.FlightSample})
	}
	if ctx.Progress != nil {
		m.SetProgress(ctx.Progress)
		ctx.Progress.SetGoal(uint64(warmup + measure))
	}
	if spec.Method.Policy == machine.PolicyMBA && spec.Method.MBALevel > 0 {
		for i, t := range tasks {
			if t.Kind == machine.TaskBE {
				m.MBA().SetLevel(mem.PartID(i), spec.Method.MBALevel)
			}
		}
	}

	rc := ctx.runContext()
	mgr := v.manager
	switch spec.Method.Manager {
	case "PARTIES":
		mgr = manager.NewPARTIES(targets)
	case "CLITE":
		mgr = manager.NewCLITE(targets)
	}
	if mgr != nil {
		err = manager.RunChecked(rc, mgr, m, warmup, measure, ctx.Scale.Epoch)
	} else {
		err = m.RunChecked(rc, warmup, measure)
	}
	if err != nil {
		return RunResult{}, err
	}

	res = RunResult{AllQoS: true}
	for i := range spec.LCs {
		src := m.LCTasks()[i].Source
		if n := src.DroppedLatencies(); n > 0 {
			// Percentiles over the kept prefix would misreport the tail.
			return RunResult{}, fmt.Errorf("exp: %s: LC task %d dropped %d latency records past the cap; shorten the measured window",
				spec.Method.Name, i, n)
		}
		lat := src.Latencies()
		qs := metrics.Quantiles(lat, 50, 95, 99) // one sort for all three
		p95 := qs[1]
		target := targets[i]
		// An open-loop source whose backlog keeps growing has saturated even
		// if too few requests completed to show it in p95 yet. A zero target
		// (explicit-interarrival task) has no latency bound to violate.
		saturated := src.QueueDepth() > 32
		met := !saturated && (target == 0 || (p95 != 0 && p95 <= target))
		res.P50 = append(res.P50, qs[0])
		res.P95 = append(res.P95, p95)
		res.P99 = append(res.P99, qs[2])
		res.QoSMet = append(res.QoSMet, met)
		res.MeanLat = append(res.MeanLat, metrics.Mean(lat))
		res.LCIPC = append(res.LCIPC, m.Cores[i].IPC(m.MeasuredCycles()))
		if !met {
			res.AllQoS = false
		}
	}
	res.BEIPC = float64(m.BECommitted()) / float64(m.MeasuredCycles())
	res.BWUtil = m.BWUtil()
	res.Split, res.SplitN = m.SplitAverages()
	ctx.captureStats(m, spec)
	ctx.captureFlight(m, spec)
	return res, nil
}

// runWindows resolves a spec's effective seed and run windows: the spec's
// overrides when set, the scale's values otherwise.
func (ctx *Context) runWindows(spec RunSpec) (seed uint64, warmup, measure sim.Cycle) {
	seed, warmup, measure = ctx.Scale.Seed, ctx.Scale.Warmup, ctx.Scale.Measure
	if spec.Seed != 0 {
		seed = spec.Seed
	}
	if spec.Warmup > 0 {
		warmup = spec.Warmup
	}
	if spec.Measure > 0 {
		measure = spec.Measure
	}
	return seed, warmup, measure
}

// captureStats records the stats dump and timeline of the just-finished run
// (the harness keeps the most recent instrumented run; each capture gets a
// fresh pid so multi-run timelines stay distinguishable if accumulated).
func (ctx *Context) captureStats(m *machine.Machine, spec RunSpec) {
	if !m.StatsEnabled() {
		return
	}
	d := m.StatsDump()
	cap := ctx.sh.cap
	cap.mu.Lock()
	defer cap.mu.Unlock()
	cap.stats = &d
	cap.statsRuns++
	cap.timeline = m.BuildTimeline(cap.statsRuns,
		fmt.Sprintf("run %d: %s", cap.statsRuns, specLabel(spec)))
}

// specLabel names a run for report headers and timeline process names: each
// LC task by its load percentage, its explicit inter-arrival, or as a
// closed loop (neither set).
func specLabel(spec RunSpec) string {
	label := spec.Method.Name
	for _, lc := range spec.LCs {
		switch {
		case lc.Interarrival > 0:
			label += fmt.Sprintf(" %s@ia=%g", lc.App, lc.Interarrival)
		case lc.LoadPct == 0:
			label += fmt.Sprintf(" %s@closed-loop", lc.App)
		default:
			label += fmt.Sprintf(" %s@%d%%", lc.App, lc.LoadPct)
		}
	}
	return label
}

// captureFlight records the tail-attribution report of the just-finished
// flight-recorded run. Source deliberately excludes the build fingerprint and
// run counters — the report must be byte-identical across dense and
// skip-ahead invocations of the same spec (callers add provenance when
// exporting).
func (ctx *Context) captureFlight(m *machine.Machine, spec RunSpec) {
	if !m.FlightEnabled() {
		return
	}
	rep := m.FlightReport()
	rep.Source = specLabel(spec)
	cap := ctx.sh.cap
	cap.mu.Lock()
	defer cap.mu.Unlock()
	cap.flight = rep
	// When the same run was also stats-instrumented, its slowest requests'
	// span chains join the run's Perfetto timeline under their own pid.
	if m.StatsEnabled() && cap.timeline != nil {
		rep.AppendTimeline(cap.timeline, 1000+cap.statsRuns)
	}
}

// mbaLevels is the descending throttle ladder RunBestMBA searches.
var mbaLevels = []int{100, 80, 60, 40, 20, 10, 5, 2}

// RunBestMBA runs spec the way the figures declare it. An MBA method with no
// level set searches the throttle ladder for the least-throttled level that
// still meets QoS (what an operator tuning MBA would deploy) and returns its
// result with the chosen level, or the most throttled attempt if no level
// protects QoS. Any other method runs once, returning its own level.
func (ctx *Context) RunBestMBA(spec RunSpec) (RunResult, int, error) {
	if spec.Method.Policy != machine.PolicyMBA || spec.Method.MBALevel != 0 {
		r, err := ctx.Run(spec)
		return r, spec.Method.MBALevel, err
	}
	var last RunResult
	for _, lvl := range mbaLevels {
		spec.Method = MethodMBA(lvl)
		r, err := ctx.Run(spec)
		if err != nil {
			return RunResult{}, 0, err
		}
		last = r
		if r.AllQoS {
			break
		}
	}
	return last, spec.Method.MBALevel, nil
}

// MaxBEThroughput sweeps the BE thread count downward and returns the best
// normalised BE throughput achieved with QoS met (the Fig 3/13 metric),
// normalising against `normThreads` threads running alone. Thread counts
// below the first that meets QoS only lose throughput, so the sweep stops
// there; an MBA method with no level set searches the throttle ladder at
// each count (RunBestMBA). It returns 0 when no thread count (including 1)
// meets QoS.
func (ctx *Context) MaxBEThroughput(mth Method, lcs []LCSpec, beApp string, normThreads int) (float64, error) {
	base, err := ctx.BEAloneIPC(beApp, normThreads)
	if err != nil {
		return 0, err
	}
	if base <= 0 {
		return 0, nil
	}
	for n := ctx.Scale.MaxBEThreads; n >= 1; n-- {
		if len(lcs)+n > ctx.Cfg.Cores {
			continue
		}
		r, _, err := ctx.RunBestMBA(RunSpec{Method: mth, LCs: lcs, BEs: []BESpec{{App: beApp, Threads: n}}})
		if err != nil {
			return 0, err
		}
		if r.AllQoS {
			return r.BEIPC / base, nil
		}
	}
	return 0, nil
}

// EMU computes effective machine utilisation for a co-location result: the
// summed normalised loads of all tasks, zero if any LC task violates QoS.
func (ctx *Context) EMU(lcs []LCSpec, beApp string, beThreads, normThreads int, r RunResult) (float64, error) {
	if !r.AllQoS {
		return 0, nil
	}
	var sum float64
	for _, lc := range lcs {
		sum += float64(lc.LoadPct) / 100
	}
	if beThreads > 0 {
		base, err := ctx.BEAloneIPC(beApp, normThreads)
		if err != nil {
			return 0, err
		}
		if base > 0 {
			sum += r.BEIPC / base
		}
	}
	return sum * 100, nil
}
