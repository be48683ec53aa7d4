// Package exp is the experiment harness: one function per figure and table
// of the paper, each returning a text table with the same rows/series the
// paper reports. The harness shares a Context that caches the expensive
// common work — offline profiles and the per-application load-latency
// calibration (Figure 12) from which QoS targets, max loads and expected
// bandwidths derive.
package exp

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"pivot/internal/flight"
	"pivot/internal/machine"
	"pivot/internal/metrics"
	"pivot/internal/profile"
	"pivot/internal/sim"
	"pivot/internal/stats"
	"pivot/internal/workload"
)

// Scale sets simulation lengths. Full() drives the CLI; Quick() keeps unit
// tests and benchmarks fast (coarser, noisier, same shapes).
type Scale struct {
	Warmup  sim.Cycle
	Measure sim.Cycle
	// CalMeasure is the measured region for calibration sweeps (LC alone).
	CalMeasure sim.Cycle
	// LoadFracs is the sweep grid for load-latency curves, as fractions of
	// the closed-loop saturation throughput.
	LoadFracs []float64
	// Epoch is the manager decision interval.
	Epoch sim.Cycle
	// MaxBEThreads bounds the iBench thread sweeps.
	MaxBEThreads int
	// Seed is the base RNG seed for every run.
	Seed uint64
}

// Full returns the scale used by cmd/pivot-exp.
func Full() Scale {
	return Scale{
		Warmup:       400_000,
		Measure:      600_000,
		CalMeasure:   500_000,
		LoadFracs:    []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		Epoch:        50_000,
		MaxBEThreads: 7,
		Seed:         1,
	}
}

// Quick returns the scale used by tests and benchmarks.
func Quick() Scale {
	return Scale{
		Warmup:       250_000,
		Measure:      250_000,
		CalMeasure:   200_000,
		LoadFracs:    []float64{0.1, 0.3, 0.5, 0.7, 0.9},
		Epoch:        25_000,
		MaxBEThreads: 7,
		Seed:         1,
	}
}

// CurvePoint is one load-latency sweep measurement (LC running alone).
type CurvePoint struct {
	LoadFrac float64 // fraction of closed-loop saturation throughput
	RPMC     float64 // requests per million cycles offered
	P95      uint32
	Mean     float64
	IPC      float64
	BWUtil   float64
	Complete uint64
}

// AppCalib is the run-alone calibration of one LC application.
type AppCalib struct {
	Name    string
	App     workload.LCParams
	SatRPMC float64 // closed-loop saturation throughput
	Curve   []CurvePoint
	// QoSTarget is the knee-derived tail-latency target (cycles).
	QoSTarget uint32
	// MaxLoad is the maximum offered RPMC meeting QoSTarget (Fig 12's
	// vertical line); experiment loads are percentages of it.
	MaxLoad float64
}

// MeanIAAt returns the arrival mean (cycles) for a percentage of max load.
func (c *AppCalib) MeanIAAt(pct int) float64 {
	rpmc := c.MaxLoad * float64(pct) / 100
	if rpmc <= 0 {
		return 0
	}
	return 1e6 / rpmc
}

// AloneBWAt interpolates the task's run-alone bandwidth usage at a
// percentage of max load, for calibrating TaskSpec.ExpectedBW.
func (c *AppCalib) AloneBWAt(pct int) float64 {
	target := c.MaxLoad * float64(pct) / 100
	// The curve is sorted by RPMC; find the bracketing points.
	if len(c.Curve) == 0 {
		return 0
	}
	if target <= c.Curve[0].RPMC {
		return c.Curve[0].BWUtil
	}
	for i := 1; i < len(c.Curve); i++ {
		a, b := c.Curve[i-1], c.Curve[i]
		if target <= b.RPMC {
			f := (target - a.RPMC) / (b.RPMC - a.RPMC)
			return a.BWUtil + f*(b.BWUtil-a.BWUtil)
		}
	}
	return c.Curve[len(c.Curve)-1].BWUtil
}

// cell is one lazily-computed cache slot. The once serialises duplicate
// computations of the same key without blocking other keys, so parallel
// workers can calibrate different apps concurrently.
type cell[T any] struct {
	once sync.Once
	v    T
	err  error
}

// shared is the state every clone of a Context points at: the calibration
// caches and the most recent instrumented run's artifacts. All fields are
// goroutine-safe so harness workers can share one Context.
type shared struct {
	mu      sync.Mutex
	calib   map[string]*cell[*AppCalib]
	pots    map[string]*cell[profile.CriticalSet]
	beAlone map[string]*cell[float64]

	// Scenario-registered custom applications, resolved by lcParams/beParams
	// ahead of the workload catalogue (see RegisterScenarioApps).
	appMu    sync.RWMutex
	customLC map[string]workload.LCParams
	customBE map[string]workload.BEParams

	logMu sync.Mutex

	// cap is shared with sibling contexts (other machine configs derived via
	// UnitResolver): the caches above are per-config, but the most recent
	// instrumented run's artifacts must stay visible from the context the CLI
	// holds, whichever config actually executed.
	cap *capture
}

// capture holds the most recent instrumented run's artifacts.
type capture struct {
	mu        sync.Mutex
	stats     *stats.Dump
	timeline  *stats.Timeline
	flight    *flight.Report
	statsRuns int
}

// lookup returns the cache cell for key, creating it when absent.
func lookup[T any](sh *shared, m map[string]*cell[T], key string) *cell[T] {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c, ok := m[key]
	if !ok {
		c = &cell[T]{}
		m[key] = c
	}
	return c
}

// Context carries the machine config, scale, and caches shared across
// experiments. A Context may be shared by concurrent harness workers: the
// caches are synchronised, and each simulation's state lives entirely inside
// its own Machine, so parallel sweeps produce results identical to serial
// ones. Use WithRunContext to derive per-run deadline-bounded views.
type Context struct {
	Cfg   machine.Config
	Scale Scale
	Out   io.Writer // progress notes; nil silences them

	// StatsEpoch, when non-zero, enables the stats framework on every
	// co-location run the harness executes, sampling the instrument registry
	// every StatsEpoch cycles. LastStats and LastTimeline then return the
	// most recent instrumented run's dump and Perfetto timeline.
	StatsEpoch sim.Cycle

	// FlightTop, when > 0, attaches a per-request flight recorder to every
	// co-location run the harness executes, keeping full span chains for this
	// many slowest requests. LastFlight then returns the most recent run's
	// tail-attribution report. Recording is purely observational: simulated
	// results are bit-identical with it on or off.
	FlightTop int

	// FlightSample is the flight recorder's lifecycle reservoir size
	// (0 = the flight package default).
	FlightSample int

	// Progress, when set, receives live telemetry from every run this
	// Context executes (current cycle, goal) for the /progress endpoint.
	Progress *stats.Progress

	// Watchdog aborts any run in which no core commits an instruction for
	// this many cycles (machine.Options.WatchdogWindow); 0 disables it.
	Watchdog sim.Cycle

	// Audit enables the machine's per-epoch invariant auditor on every run.
	Audit bool

	// Dense forces every run onto the naive per-cycle tick loop instead of
	// the quiescence-aware skip-ahead engine (the -dense escape hatch; see
	// machine.Options.Dense). Results are bit-identical either way.
	Dense bool

	// CheckpointDir, when set, makes every checkpointable co-location run
	// crash-safe: it periodically writes its full machine state to a per-run
	// subdirectory and, on a later identical invocation, resumes from the
	// newest good checkpoint instead of restarting. Checkpointing never
	// perturbs results — a resumed run's statistics are bit-identical to an
	// uninterrupted one's. Manager-driven and fault-injected runs are
	// excluded (their state lives outside the machine snapshot).
	CheckpointDir string

	// CheckpointInterval is the simulated-cycle checkpoint period;
	// 0 = machine.DefaultCheckpointInterval.
	CheckpointInterval sim.Cycle

	// runCtx bounds every simulation this Context executes (wall-clock
	// deadline / cancellation); nil means context.Background().
	runCtx context.Context

	sh *shared
}

// NewContext builds a harness context over cfg at the given scale.
func NewContext(cfg machine.Config, scale Scale) *Context {
	return &Context{Cfg: cfg, Scale: scale, sh: newShared(&capture{})}
}

// newShared builds the per-config cache state around an existing capture.
func newShared(cap *capture) *shared {
	return &shared{
		calib:    make(map[string]*cell[*AppCalib]),
		pots:     make(map[string]*cell[profile.CriticalSet]),
		beAlone:  make(map[string]*cell[float64]),
		customLC: make(map[string]workload.LCParams),
		customBE: make(map[string]workload.BEParams),
		cap:      cap,
	}
}

// WithRunContext returns a shallow copy of ctx whose simulations are bounded
// by c (deadline and cancellation), sharing the calibration caches and stats
// capture with ctx.
func (ctx *Context) WithRunContext(c context.Context) *Context {
	out := *ctx
	out.runCtx = c
	return &out
}

// runContext returns the bounding context for simulations (never nil).
func (ctx *Context) runContext() context.Context {
	if ctx.runCtx != nil {
		return ctx.runCtx
	}
	return context.Background()
}

// guard applies the Context's self-defense settings to machine options.
func (ctx *Context) guard(opt machine.Options) machine.Options {
	opt.WatchdogWindow = ctx.Watchdog
	opt.Audit = ctx.Audit
	opt.Dense = ctx.Dense
	return opt
}

func (ctx *Context) logf(format string, args ...any) {
	if ctx.Out != nil {
		ctx.sh.logMu.Lock()
		defer ctx.sh.logMu.Unlock()
		fmt.Fprintf(ctx.Out, format+"\n", args...)
	}
}

// Potential returns (computing and caching) the offline-profiled potential
// set for an LC app.
func (ctx *Context) Potential(app string) profile.CriticalSet {
	c := lookup(ctx.sh, ctx.sh.pots, app)
	c.once.Do(func() {
		ctx.logf("offline profiling %s ...", app)
		c.v = machine.ProfileLC(ctx.Cfg, ctx.lcParams(app), ctx.Scale.MaxBEThreads, ctx.Scale.Seed)
	})
	return c.v
}

// Calib returns (computing and caching) the run-alone calibration of an LC
// app: the Figure 12 load-latency sweep, the knee-derived QoS target and
// the max load. A failed calibration (misconfigured machine, app that
// completes no requests, aborted run) is returned as an error — and cached,
// since recomputing it would fail identically.
func (ctx *Context) Calib(app string) (*AppCalib, error) {
	c := lookup(ctx.sh, ctx.sh.calib, app)
	c.once.Do(func() { c.v, c.err = ctx.computeCalib(app) })
	return c.v, c.err
}

func (ctx *Context) computeCalib(app string) (*AppCalib, error) {
	ctx.logf("calibrating %s (load-latency sweep)...", app)
	params := ctx.lcParams(app)
	c := &AppCalib{Name: app, App: params}
	rc := ctx.runContext()
	opt := ctx.guard(machine.Options{Policy: machine.PolicyDefault})

	// Closed-loop saturation throughput.
	m, err := machine.New(ctx.Cfg, opt,
		[]machine.TaskSpec{{Kind: machine.TaskLC, LC: params, MeanInterarrival: 0, Seed: ctx.Scale.Seed}})
	if err != nil {
		return nil, err
	}
	if err := m.RunChecked(rc, ctx.Scale.Warmup/2, ctx.Scale.CalMeasure); err != nil {
		return nil, fmt.Errorf("exp: calibrating %s: %w", app, err)
	}
	c.SatRPMC = float64(m.LCTasks()[0].Source.Completed()) / float64(ctx.Scale.CalMeasure) * 1e6
	if c.SatRPMC <= 0 {
		return nil, fmt.Errorf("exp: %s completed no requests closed-loop", app)
	}

	for _, f := range ctx.Scale.LoadFracs {
		rpmc := c.SatRPMC * f
		mm, err := machine.New(ctx.Cfg, opt,
			[]machine.TaskSpec{{Kind: machine.TaskLC, LC: params,
				MeanInterarrival: 1e6 / rpmc, Seed: ctx.Scale.Seed}})
		if err != nil {
			return nil, err
		}
		if err := mm.RunChecked(rc, ctx.Scale.Warmup/2, ctx.Scale.CalMeasure); err != nil {
			return nil, fmt.Errorf("exp: calibrating %s at %.0f%%: %w", app, f*100, err)
		}
		src := mm.LCTasks()[0].Source
		c.Curve = append(c.Curve, CurvePoint{
			LoadFrac: f,
			RPMC:     rpmc,
			P95:      mm.LCp95(0),
			Mean:     metrics.Mean(src.Latencies()),
			IPC:      mm.Cores[0].IPC(mm.MeasuredCycles()),
			BWUtil:   mm.BWUtil(),
			Complete: src.Completed(),
		})
	}
	sort.Slice(c.Curve, func(i, j int) bool { return c.Curve[i].RPMC < c.Curve[j].RPMC })

	// Knee: tail latency at low load sets the floor; the QoS target is the
	// conventional knee multiple of it, and max load is the highest offered
	// load still under target (following the PARTIES/Tailbench method the
	// paper cites).
	floor := c.Curve[0].P95
	c.QoSTarget = floor * 3
	for _, pt := range c.Curve {
		if pt.P95 <= c.QoSTarget && pt.RPMC > c.MaxLoad {
			c.MaxLoad = pt.RPMC
		}
	}
	if c.MaxLoad == 0 {
		c.MaxLoad = c.Curve[0].RPMC
	}
	ctx.logf("  %s: sat=%.1f RPMC, QoS=%d cycles, maxLoad=%.1f RPMC",
		app, c.SatRPMC, c.QoSTarget, c.MaxLoad)
	return c, nil
}

// BEAloneIPC returns (computing and caching) the standalone aggregate IPC of
// `threads` copies of a BE app — the normalisation baseline for BE
// throughput figures.
func (ctx *Context) BEAloneIPC(app string, threads int) (float64, error) {
	key := fmt.Sprintf("%s/%d", app, threads)
	c := lookup(ctx.sh, ctx.sh.beAlone, key)
	c.once.Do(func() {
		be := ctx.beParams(app)
		var tasks []machine.TaskSpec
		for i := 0; i < threads; i++ {
			tasks = append(tasks, machine.TaskSpec{Kind: machine.TaskBE, BE: be, Seed: ctx.Scale.Seed + uint64(10+i)})
		}
		m, err := machine.New(ctx.Cfg, ctx.guard(machine.Options{Policy: machine.PolicyDefault}), tasks)
		if err != nil {
			c.err = err
			return
		}
		if err := m.RunChecked(ctx.runContext(), ctx.Scale.Warmup/2, ctx.Scale.Measure/2); err != nil {
			c.err = fmt.Errorf("exp: BE-alone baseline %s: %w", key, err)
			return
		}
		c.v = float64(m.BECommitted()) / float64(m.MeasuredCycles())
	})
	return c.v, c.err
}

// LastStats returns the stats dump of the most recent instrumented run (nil
// when StatsEpoch was never set or no co-location run executed).
func (ctx *Context) LastStats() *stats.Dump {
	ctx.sh.cap.mu.Lock()
	defer ctx.sh.cap.mu.Unlock()
	return ctx.sh.cap.stats
}

// LastTimeline returns the Perfetto timeline of the most recent
// instrumented run (nil when none exists).
func (ctx *Context) LastTimeline() *stats.Timeline {
	ctx.sh.cap.mu.Lock()
	defer ctx.sh.cap.mu.Unlock()
	return ctx.sh.cap.timeline
}

// LastFlight returns the tail-attribution report of the most recent
// flight-recorded run (nil when FlightTop was never set or no co-location
// run executed).
func (ctx *Context) LastFlight() *flight.Report {
	ctx.sh.cap.mu.Lock()
	defer ctx.sh.cap.mu.Unlock()
	return ctx.sh.cap.flight
}
