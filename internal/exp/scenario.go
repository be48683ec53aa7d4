package exp

import (
	"fmt"
	"strings"
	"sync"

	"pivot/internal/faultinject"
	"pivot/internal/machine"
	"pivot/internal/mem"
	"pivot/internal/metrics"
	"pivot/internal/rrbp"
	"pivot/internal/scenario"
	"pivot/internal/sim"
	"pivot/internal/workload"
)

// This file bridges the declarative scenario layer (internal/scenario) to
// the execution layer: policy names become Methods, scenario options become
// machine options, and expanded run units become RunSpecs on the contexts
// their machines resolve to. User scenarios (through the harness) and the
// builtin figure scenarios run through the same translations.

// Named method constructors for the CBP predictor comparison (§VI-B).
func MethodCBP() Method { return Method{Name: "CBP", Policy: machine.PolicyCBP} }
func MethodCBPFullPath() Method {
	return Method{Name: "CBP+FullPath", Policy: machine.PolicyCBPFullPath}
}

// MethodByName maps a scenario policy name (scenario.Policies) to its Method.
func MethodByName(name string) (Method, bool) {
	switch name {
	case "Default":
		return MethodDefault(), true
	case "MBA":
		return MethodMBA(0), true
	case "MPAM":
		return MethodMPAM(), true
	case "FullPath":
		return MethodFullPath(), true
	case "PIVOT":
		return MethodPIVOT(), true
	case "CBP":
		return MethodCBP(), true
	case "CBP+FullPath":
		return MethodCBPFullPath(), true
	case "PARTIES":
		return MethodPARTIES(), true
	case "CLITE":
		return MethodCLITE(), true
	}
	return Method{}, false
}

// beThreads caps a scenario's declared BE thread count at the scale's bound:
// the builtins declare the paper's 7-thread stressor, which coarser test
// scales shrink along with everything else.
func (ctx *Context) beThreads(declared int) int {
	if declared > ctx.Scale.MaxBEThreads {
		return ctx.Scale.MaxBEThreads
	}
	return declared
}

// ConfigFor instantiates the machine a scenario requests; defaultCores fills
// in when the scenario does not set machine.cores.
func ConfigFor(m scenario.Machine, defaultCores int) machine.Config {
	cores := m.Cores
	if cores <= 0 {
		cores = defaultCores
	}
	var cfg machine.Config
	if m.Preset == scenario.PresetNeoverse {
		cfg = machine.NeoverseConfig(cores)
	} else {
		cfg = machine.KunpengConfig(cores)
	}
	if m.BEWays > 0 {
		cfg.BEWays = m.BEWays
	}
	return cfg
}

// RegisterScenarioApps makes a scenario's inline custom applications
// resolvable by name — in calibration, offline profiling and runs — on this
// context. Validation has already guaranteed the names collide with nothing.
func (ctx *Context) RegisterScenarioApps(sc *scenario.Scenario) {
	ctx.sh.appMu.Lock()
	defer ctx.sh.appMu.Unlock()
	for i := range sc.Tasks {
		t := &sc.Tasks[i]
		if t.LCParams != nil {
			ctx.sh.customLC[t.LCParams.Name] = t.LCParams.ToWorkload()
		}
		if t.BEParams != nil {
			ctx.sh.customBE[t.BEParams.Name] = t.BEParams.ToWorkload()
		}
	}
}

// lcParams resolves an LC app name: scenario-registered custom apps first,
// then the workload catalogue.
func (ctx *Context) lcParams(app string) workload.LCParams {
	ctx.sh.appMu.RLock()
	p, ok := ctx.sh.customLC[app]
	ctx.sh.appMu.RUnlock()
	if ok {
		return p
	}
	return workload.LCApps()[app]
}

// beParams resolves a BE app name the same way.
func (ctx *Context) beParams(app string) workload.BEParams {
	ctx.sh.appMu.RLock()
	p, ok := ctx.sh.customBE[app]
	ctx.sh.appMu.RUnlock()
	if ok {
		return p
	}
	return workload.BEApps()[app]
}

// OptionsFor translates scenario options into machine options. Zero scenario
// values stay zero here; machine.Options.normalize applies the defaults.
func OptionsFor(o scenario.Options) machine.Options {
	opt := machine.Options{
		ExpectedLCBW:      o.ExpectedLCBW,
		Prefetch:          o.Prefetch,
		NoStarvationGuard: o.NoStarvationGuard,
	}
	if msc, ok := scenario.MSC(o.DisableMSC); ok {
		opt.DisableMSC = msc
	}
	if o.RRBPEntries != 0 {
		opt.RRBP = rrbpSized(o.RRBPEntries)
	}
	return opt
}

// FaultPlanFor compiles a scenario's `faults` stanza into the injector plan
// faultinject.AttachPlan consumes. The scenario must have passed Validate
// (unknown station names panic here). Nil in, nil out.
func FaultPlanFor(f *scenario.Faults) *faultinject.Plan {
	if f == nil {
		return nil
	}
	plan := &faultinject.Plan{
		Seed:     f.Seed,
		Stations: make(map[mem.Component]faultinject.Config, len(f.Stations)),
	}
	for name, r := range f.Stations {
		comp, ok := scenario.MSC(name)
		if !ok {
			panic("exp: fault plan names unknown MSC " + name)
		}
		plan.Stations[comp] = faultinject.Config{
			DropProb:    r.Drop,
			SpikeProb:   r.Spike,
			SpikeCycles: sim.Cycle(r.SpikeCycles),
			HoldProb:    r.Hold,
		}
	}
	return plan
}

// rrbpSized builds the RRBP geometry for a scenario's rrbp_entries knob:
// n > 0 sizes the table, -1 makes it unlimited (fully associative).
func rrbpSized(n int) rrbp.Config {
	cfg := rrbp.DefaultConfig()
	cfg.RefreshCycles = machine.ScaledRRBPRefresh
	if n > 0 {
		cfg.Entries = n
	} else {
		cfg.Entries = 0
	}
	return cfg
}

// SpecForUnit converts one expanded scenario run unit into the harness's
// execution form. Declared BE thread counts are honoured as-is (the core
// budget was validated). ctx must have the unit's inline custom apps registered
// (UnitResolver does that).
func (ctx *Context) SpecForUnit(u scenario.RunUnit) (RunSpec, error) {
	sc := u.Scenario
	mth, ok := MethodByName(sc.Policy)
	if !ok {
		return RunSpec{}, fmt.Errorf("exp: scenario %s: unknown policy %q", sc.Name, sc.Policy)
	}
	if mth.Policy == machine.PolicyMBA {
		mth.MBALevel = sc.Options.MBALevel
	}
	spec := RunSpec{
		Method:    mth,
		Opt:       OptionsFor(sc.Options),
		Seed:      sc.Seed,
		Warmup:    sim.Cycle(sc.Warmup),
		Measure:   sim.Cycle(sc.Measure),
		FaultPlan: FaultPlanFor(sc.Faults),
	}
	for i := range sc.Tasks {
		t := &sc.Tasks[i]
		if t.Kind == scenario.KindLC {
			spec.LCs = append(spec.LCs, LCSpec{
				App:          t.AppName(),
				LoadPct:      t.LoadPct,
				Interarrival: t.Interarrival,
				ExpectedBW:   t.ExpectedBW,
				Load:         t.Load.ToLoad(),
			})
		} else {
			spec.BEs = append(spec.BEs, BESpec{App: t.AppName(), Threads: t.ThreadCount()})
		}
	}
	return spec, nil
}

// sibling builds a context over another machine configuration: every knob
// (scale, robustness, observability, checkpointing, run context) carries
// over, but the calibration caches start empty, since knees shift with the
// machine. The capture of the most recent instrumented run is
// shared, so LastStats/LastTimeline/LastFlight on the original context see
// runs executed on the sibling.
func (ctx *Context) sibling(cfg machine.Config) *Context {
	out := *ctx
	out.Cfg = cfg
	out.sh = newShared(ctx.sh.cap)
	return &out
}

// UnitResolver returns a function resolving the context each run unit of a
// scenario executes on. Most units keep the scenario's machine and share one
// context, but a machine-parameter sweep axis (machine.cores, machine.be_ways)
// gives different units different configurations — those get sibling
// contexts, memoised per configuration so units with the same machine share
// calibration caches. The resolver is safe for concurrent harness workers;
// each resolved context has the unit's inline custom apps registered.
func (ctx *Context) UnitResolver() func(scenario.RunUnit) *Context {
	memo := map[machine.Config]*Context{ctx.Cfg: ctx}
	var mu sync.Mutex
	return func(u scenario.RunUnit) *Context {
		sc := u.Scenario
		cfg := ConfigFor(sc.Machine, ctx.Cfg.Cores)
		mu.Lock()
		out, ok := memo[cfg]
		if !ok {
			out = ctx.sibling(cfg)
			memo[cfg] = out
		}
		mu.Unlock()
		out.RegisterScenarioApps(sc)
		return out
	}
}

// UnitLabel names a run unit in tables and job IDs; a sweep-free scenario's
// single unit takes the scenario name.
func UnitLabel(sc *scenario.Scenario, u scenario.RunUnit) string {
	if u.Label == "" {
		return sc.Name
	}
	return u.Label
}

// ScenarioTable renders per-unit results as the scenario summary table
// (per-LC columns are "/"-joined in task order).
func ScenarioTable(sc *scenario.Scenario, labels []string, results []RunResult) *metrics.Table {
	t := &metrics.Table{
		Title:   fmt.Sprintf("Scenario %s (%d run units)", sc.Name, len(results)),
		Headers: []string{"unit", "p95", "QoS", "LC IPC", "BE ipc", "BW util"},
	}
	for i, r := range results {
		t.AddRow(labels[i],
			joinEach(r.P95, func(v uint32) string { return fmt.Sprint(v) }),
			qosMark(r),
			joinEach(r.LCIPC, func(v float64) string { return fmt.Sprintf("%.3f", v) }),
			fmt.Sprintf("%.4f", r.BEIPC),
			fmt.Sprintf("%.3f", r.BWUtil))
	}
	return t
}

// joinEach renders a per-LC metric slice as one "/"-joined cell.
func joinEach[T any](vs []T, f func(T) string) string {
	if len(vs) == 0 {
		return "-"
	}
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = f(v)
	}
	return strings.Join(parts, "/")
}
