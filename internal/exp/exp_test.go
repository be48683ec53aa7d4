package exp

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"pivot/internal/machine"
	"pivot/internal/metrics"
	"pivot/internal/profile"
	"pivot/internal/sim"
	"pivot/internal/workload"
)

// tinyScale keeps exp-layer tests fast; shapes get noisy but structural
// invariants (knees found, QoS gates applied, tables well-formed) hold.
func tinyScale() Scale {
	s := Quick()
	s.Warmup = 150_000
	s.Measure = 150_000
	s.CalMeasure = 120_000
	s.LoadFracs = []float64{0.2, 0.6}
	s.MaxBEThreads = 3
	return s
}

func tinyCtx() *Context {
	return NewContext(machine.KunpengConfig(4), tinyScale())
}

// tCalib / tRun unwrap the error-returning API for tests that only exercise
// the success path.
func tCalib(t *testing.T, ctx *Context, app string) *AppCalib {
	t.Helper()
	cal, err := ctx.Calib(app)
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

func tRun(t *testing.T, ctx *Context, spec RunSpec) RunResult {
	t.Helper()
	r, err := ctx.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCalibrationProducesKnee(t *testing.T) {
	ctx := tinyCtx()
	cal := tCalib(t, ctx, workload.Silo)
	if cal.SatRPMC <= 0 {
		t.Fatal("no saturation throughput")
	}
	if cal.QoSTarget == 0 || cal.MaxLoad <= 0 {
		t.Fatalf("degenerate calibration: %+v", cal)
	}
	if cal.MaxLoad > cal.SatRPMC {
		t.Fatal("max load exceeds saturation throughput")
	}
	if ia := cal.MeanIAAt(50); ia <= 0 {
		t.Fatalf("MeanIAAt(50) = %v", ia)
	}
	if ia70, ia10 := cal.MeanIAAt(70), cal.MeanIAAt(10); ia70 >= ia10 {
		t.Fatal("higher load must mean shorter inter-arrivals")
	}
	// Calibration is cached.
	if tCalib(t, ctx, workload.Silo) != cal {
		t.Fatal("calibration not cached")
	}
}

func TestAloneBWInterpolation(t *testing.T) {
	ctx := tinyCtx()
	cal := tCalib(t, ctx, workload.ImgDNN)
	low, high := cal.AloneBWAt(10), cal.AloneBWAt(90)
	if low < 0 || high <= 0 {
		t.Fatalf("bandwidth interpolation broken: %v, %v", low, high)
	}
	if high < low {
		t.Fatal("bandwidth should not fall with load")
	}
}

func TestRunGatesQoS(t *testing.T) {
	ctx := tinyCtx()
	// Default under heavy contention must violate; PIVOT must not.
	lcs := []LCSpec{{App: workload.Masstree, LoadPct: 70}}
	bes := []BESpec{{App: workload.IBench, Threads: 3}}
	def := tRun(t, ctx, RunSpec{Method: MethodDefault(), LCs: lcs, BEs: bes})
	piv := tRun(t, ctx, RunSpec{Method: MethodPIVOT(), LCs: lcs, BEs: bes})
	if def.AllQoS {
		t.Error("Default met QoS under heavy contention (unexpected at this scale)")
	}
	if !piv.AllQoS {
		t.Errorf("PIVOT violated QoS: p95=%v target=%v", piv.P95, tCalib(t, ctx, workload.Masstree).QoSTarget)
	}
	if piv.BEIPC <= 0 {
		t.Error("no BE throughput measured")
	}
}

// panicky is a manager whose first decision panics, mid-simulation.
type panicky struct{}

func (panicky) Name() string                       { return "panicky" }
func (panicky) Decide(*machine.Machine, sim.Cycle) { panic("panicky: decide") }

// TestRunPanicCarriesDiagnostic: a panic inside a run is recovered into a
// *machine.PanicError carrying the value, the stack and a diagnostic of the
// machine at the cycle it died.
func TestRunPanicCarriesDiagnostic(t *testing.T) {
	ctx := tinyCtx()
	spec := RunSpec{Method: MethodDefault(),
		LCs: []LCSpec{{App: workload.Masstree, Interarrival: 3000}},
		BEs: []BESpec{{App: workload.IBench, Threads: 1}}}
	_, err := ctx.run(spec, variant{manager: panicky{}})
	var pe *machine.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("run returned %v, want *machine.PanicError", err)
	}
	if pe.Value != "panicky: decide" || !strings.Contains(pe.Stack, "Decide") {
		t.Errorf("panic value %v / stack lost the panic site", pe.Value)
	}
	if pe.Diag.Cycle == 0 || len(pe.Diag.Cores) == 0 {
		t.Errorf("panic diagnostic missing the machine snapshot: %+v", pe.Diag)
	}
}

func TestEMUComputation(t *testing.T) {
	ctx := tinyCtx()
	r := RunResult{AllQoS: true, BEIPC: 0.05}
	base, err := ctx.BEAloneIPC(workload.IBench, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ctx.EMU([]LCSpec{{App: workload.Silo, LoadPct: 70}}, workload.IBench, 3, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	want := 70 + r.BEIPC/base*100
	if got < want-0.01 || got > want+0.01 {
		t.Fatalf("EMU = %v, want %v", got, want)
	}
	r.AllQoS = false
	if emu, _ := ctx.EMU([]LCSpec{{App: workload.Silo, LoadPct: 70}}, workload.IBench, 3, 3, r); emu != 0 {
		t.Fatal("violated EMU must be 0")
	}
}

func TestStaticTables(t *testing.T) {
	ctx := tinyCtx()
	for _, mk := range []func() (*metrics.Table, error){
		ctx.Table1, ctx.Table2, ctx.Storage,
	} {
		tb, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		s := tb.String()
		if len(s) == 0 || !strings.Contains(s, "==") {
			t.Fatalf("malformed table output: %q", s)
		}
	}
	// Every term of the §IV-E arithmetic and the published 1045-bit total.
	st, err := ctx.Storage()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"sequence-number register", "8"},
		{"RRBP index register", "5"},
		{"sequence comparator", "8"},
		{"ROB potential-critical bits (192x1)", "192"},
		{"RRBP table (64x6)", "384"},
		{"load-queue bits (64x7)", "448"},
		{"total", "1045"},
	}
	if !reflect.DeepEqual(st.Rows, want) {
		t.Fatalf("storage rows = %q, want %q", st.Rows, want)
	}
}

func TestFig08Shape(t *testing.T) {
	ctx := tinyCtx()
	tbl, err := ctx.Fig08()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("fig8 rows = %d, want silo and moses", len(tbl.Rows))
	}
	// top-50% coverage column must read (close to) 1.
	for _, row := range tbl.Rows {
		last := row[len(row)-1]
		if !strings.HasPrefix(last, "1.000") && !strings.HasPrefix(last, "0.9") {
			t.Fatalf("top-50%% stall share = %s, want ~1", last)
		}
	}
}

// TestProfilingHonoursContextOptions: the offline phase behind Potential
// (every PIVOT and CBP run), the profiling-parameter variants and Fig 8 runs
// under the Context's dense, audit and watchdog settings, so `-dense`
// reaches the profile as well as the runs; and it runs once per app, since
// Select and CDF only read the profile.
func TestProfilingHonoursContextOptions(t *testing.T) {
	var got []machine.Options
	var apps []string
	orig := runProfiler
	runProfiler = func(cfg machine.Config, app workload.LCParams, stressThreads int, seed uint64,
		cycles sim.Cycle, opt machine.Options) *profile.Profiler {
		if cycles != machine.ProfileCycles {
			t.Errorf("profiled %d cycles, want %d", cycles, machine.ProfileCycles)
		}
		got = append(got, opt)
		apps = append(apps, app.Name)
		return profile.NewProfiler()
	}
	defer func() { runProfiler = orig }()

	ctx := tinyCtx()
	ctx.Dense, ctx.Audit, ctx.Watchdog = true, true, 12_345
	ctx.Potential(workload.Silo)
	ctx.profile(workload.Silo).Select(profile.Params{MinExecFreq: 0.005, MinLLCMissRate: 0.05, TopStallFrac: 0.05})
	if _, err := ctx.Fig08(); err != nil {
		t.Fatal(err)
	}
	if want := []string{workload.Silo, workload.Moses}; !slices.Equal(apps, want) {
		t.Fatalf("profiled %v, want each of %v once (silo's potential set and variant reuse its profile, fig8 adds moses)",
			apps, want)
	}
	for i, opt := range got {
		if !opt.Dense || !opt.Audit || opt.WatchdogWindow != 12_345 {
			t.Errorf("profiling run %d: dense=%v audit=%v watchdog=%d, want the Context's true/true/12345",
				i, opt.Dense, opt.Audit, opt.WatchdogWindow)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	for _, id := range []string{"fig1", "fig2", "fig3", "fig5", "fig6", "fig7", "fig8",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"fig20", "fig21", "fig22", "sens", "fig23", "fig24", "fig25",
		"table1", "table2", "table3", "storage"} {
		e, ok := reg[id]
		if !ok {
			t.Errorf("experiment %s missing from registry", id)
			continue
		}
		if e.Run == nil || e.Brief == "" {
			t.Errorf("experiment %s incomplete", id)
		}
	}
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("IDs not sorted")
		}
	}
}

func TestMaxSecondLoadMonotoneGate(t *testing.T) {
	ctx := tinyCtx()
	// With PIVOT, two light LC tasks co-locate: the frontier must be > 0.
	got, err := frontier(ctx, RunSpec{Method: MethodPIVOT(),
		LCs: []LCSpec{{App: workload.Silo, LoadPct: 30}, {App: workload.Xapian}}})
	if err != nil {
		t.Fatal(err)
	}
	if got == "0" {
		t.Fatal("PIVOT frontier empty even at light load")
	}
}

// TestCloudSuiteFreeCores pins the CloudSuite figures' free-core rule on a
// machine smaller than the goldens' 8 cores: the BE tasks split the cores the
// two LC tasks leave free, whatever the builtin declares (6 threads for
// fig16, 3+3 for fig17), and the BE-alone baselines use the same counts.
func TestCloudSuiteFreeCores(t *testing.T) {
	for _, tc := range []struct {
		id  string
		per int // BE threads per task on 4 cores
	}{{"fig16", 2}, {"fig17", 1}} {
		t.Run(tc.id, func(t *testing.T) {
			ctx := tinyCtx()
			// One unit: the first app mix under Default.
			sc := ctx.builtin(tc.id)
			sc.Policy = "Default"
			sc.Sweep = sc.Sweep[:1]
			sc.Sweep[0].Values = sc.Sweep[0].Values[:1]
			tbl, err := ctx.cloudSuite(sc, tc.id)
			if err != nil {
				t.Fatal(err)
			}

			// Rerun the unit with the expected thread counts: the row must
			// match it cell for cell.
			units := sc.MustExpand()
			spec, err := ctx.SpecForUnit(units[0])
			if err != nil {
				t.Fatal(err)
			}
			var keys []string
			var base float64
			for i := range spec.BEs {
				spec.BEs[i].Threads = tc.per
				keys = append(keys, fmt.Sprintf("%s/%d", spec.BEs[i].App, tc.per))
				alone, err := ctx.BEAloneIPC(spec.BEs[i].App, tc.per)
				if err != nil {
					t.Fatal(err)
				}
				base += alone
			}
			r := tRun(t, ctx, spec)
			row := tbl.Rows[0]
			if want := fmt.Sprintf("%.2f", r.BEIPC/base); row[2] != want {
				t.Errorf("BE tput = %s, want %s", row[2], want)
			}
			if want := fmt.Sprintf("%.3f", r.BWUtil); row[3] != want {
				t.Errorf("BW util = %s, want %s", row[3], want)
			}
			// The projection computed no baseline at any other count.
			sort.Strings(keys)
			var got []string
			for k := range ctx.sh.beAlone {
				got = append(got, k)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, keys) {
				t.Errorf("BE-alone baselines %v, want %v", got, keys)
			}
		})
	}
}

func TestExtensionsProduceTables(t *testing.T) {
	ctx := tinyCtx()
	for name, fn := range map[string]func() (*metrics.Table, error){
		"noprofile": ctx.NoProfile,
		"prefetch":  ctx.PrefetchAblation,
	} {
		tb, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := tb.String()
		if !strings.Contains(out, "==") || len(strings.Split(out, "\n")) < 5 {
			t.Errorf("%s table malformed:\n%s", name, out)
		}
	}
}

func TestAloneMeanInterpolation(t *testing.T) {
	ctx := tinyCtx()
	cal := tCalib(t, ctx, workload.Silo)
	lo, hi := cal.AloneMeanAt(10), cal.AloneMeanAt(90)
	if lo <= 0 || hi < lo {
		t.Fatalf("mean interpolation broken: %v, %v", lo, hi)
	}
}

// TestSpecLabelNamesArrivals: a run label names each LC task's arrivals as
// they were set — load percentage, explicit inter-arrival or closed loop —
// not a 0% load for the latter two.
func TestSpecLabelNamesArrivals(t *testing.T) {
	spec := RunSpec{Method: MethodPIVOT(), LCs: []LCSpec{
		{App: "masstree", LoadPct: 70},
		{App: "silo", Interarrival: 4000},
		{App: "xapian"},
	}}
	if got, want := specLabel(spec), "PIVOT masstree@70% silo@ia=4000 xapian@closed-loop"; got != want {
		t.Fatalf("specLabel = %q, want %q", got, want)
	}
}
