// Command pivotsim runs one co-location scenario unit and prints its summary
// row: per-LC p95 latency and QoS verdict, LC and BE throughput, and memory
// bandwidth utilisation.
//
// Example: one Masstree LC task at a 4000-cycle mean inter-arrival,
// co-located with 7 iBench threads under PIVOT:
//
//	pivotsim -lc masstree -ia 4000 -be ibench -threads 7 -policy pivot
//
// pivotsim is a flag front end over the scenario layer: its run-describing
// flags (-lc, -ia, -zipf, -be, -threads, -policy, -cores, -warmup,
// -measure, -neoverse, -seed) build a one-unit scenario, which runs through
// the same harness path as `pivot-exp -scenario file.json` and prints the
// same table, byte for byte. So a PIVOT run is offline-profiled exactly as
// in the figures, and an MBA run searches the throttle ladder for the least
// throttling that meets QoS. -policy takes any scenario policy name, ignoring case. -ia 0 makes
// the LC task closed loop, calibrated for its QoS target; -threads 0 leaves
// out the BE task. Richer mixes, load shapes and sweeps need a scenario file
// (see README "Scenarios" and examples/scenarios/). -json prints the unit's
// result record instead of the table.
//
// Shutdown: the first SIGINT or SIGTERM aborts the run and the process exits
// 130; a second signal force-quits. pivotsim keeps no result cache, so a
// rerun starts the unit over; `pivot-exp -scenario -cache-dir` keeps
// finished units.
//
// Observability: -flight-out arms the per-request flight recorder — every
// memory-path transition becomes a queue-wait/service span — and writes the
// tail-attribution report (per-PC and per-component breakdown plus the
// -flight-top slowest requests' span chains) in JSON, CSV or text by file
// suffix. Recording never changes simulated results. -debug-addr serves
// pprof, runtime metrics and /progress (live cycle, cycles/sec, ETA);
// -log-format=json switches stderr diagnostics to structured JSON, and
// -version prints the build fingerprint stamped into exported reports.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"pivot/internal/cliutil"
	"pivot/internal/exp"
	"pivot/internal/harness"
	"pivot/internal/machine"
	"pivot/internal/scenario"
	"pivot/internal/sim"
	"pivot/internal/workload"
)

// unitFlags are the flags that describe the run; scenario turns them into
// the one-unit scenario pivotsim executes.
type unitFlags struct {
	lc, be, policy  string
	ia, zipf        float64
	threads, cores  int
	warmup, measure uint64
	seed            uint64
	neoverse        bool
}

func (f *unitFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.lc, "lc", workload.Masstree, "LC application (img-dnn|moses|xapian|silo|masstree)")
	fs.Float64Var(&f.ia, "ia", 4000, "mean request inter-arrival in cycles (0 = closed loop, calibrated for its QoS target)")
	fs.Float64Var(&f.zipf, "zipf", 0, "Zipf skew theta of the LC task's reference popularity, in [0, 1) (0 = uniform; richer load shapes need a scenario file, run by pivot-exp -scenario)")
	fs.StringVar(&f.be, "be", workload.IBench, "BE application")
	fs.IntVar(&f.threads, "threads", 7, "BE thread count (0 = no BE task)")
	fs.StringVar(&f.policy, "policy", "pivot", "partitioning policy, any case: "+strings.Join(scenario.Policies(), "|"))
	fs.IntVar(&f.cores, "cores", 8, "core count")
	fs.Uint64Var(&f.warmup, "warmup", 400_000, "warm-up cycles")
	fs.Uint64Var(&f.measure, "measure", 600_000, "measured cycles")
	fs.BoolVar(&f.neoverse, "neoverse", false, "use the ARM Neoverse-like configuration (Table III)")
	fs.Uint64Var(&f.seed, "seed", 1, "simulation seed (0 = the harness default, 1)")
}

// scenario builds the one-unit scenario the flags describe. It does not
// validate: ScenarioJobs does, naming the offending field.
func (f *unitFlags) scenario() *scenario.Scenario {
	policy := f.policy
	for _, p := range scenario.Policies() {
		if strings.EqualFold(p, f.policy) {
			policy = p
		}
	}
	lc := scenario.Task{Kind: scenario.KindLC, App: f.lc, Interarrival: f.ia}
	if f.zipf != 0 {
		lc.Load = &scenario.LoadSpec{ZipfTheta: f.zipf}
	}
	sc := &scenario.Scenario{
		Version: scenario.Version,
		Name:    "pivotsim",
		Machine: scenario.Machine{Cores: f.cores},
		Policy:  policy,
		Tasks:   []scenario.Task{lc},
		Warmup:  f.warmup,
		Measure: f.measure,
		Seed:    f.seed,
	}
	if f.neoverse {
		sc.Machine.Preset = scenario.PresetNeoverse
	}
	if f.threads != 0 {
		sc.Tasks = append(sc.Tasks, scenario.Task{Kind: scenario.KindBE, App: f.be, Threads: f.threads})
	}
	return sc
}

func main() {
	var uf unitFlags
	uf.register(flag.CommandLine)
	asJSON := flag.Bool("json", false, "print the unit's result record (JSON) instead of the table")
	statsOut := flag.String("stats-out", "", "write the run's stats dump here (JSON; CSV with a .csv suffix)")
	statsEpoch := flag.Uint64("stats-epoch", uint64(machine.DefaultStatsEpoch), "stats sampling period in cycles")
	statsTable := flag.Bool("stats-table", false, "print the stats registry as an aligned table after the run")
	timelineOut := flag.String("timeline-out", "", "write a Chrome trace-event timeline here (open in Perfetto)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof and /debug/metrics on this address")
	dense := flag.Bool("dense", false, "force the naive per-cycle tick loop instead of quiescence-aware skip-ahead (bit-identical results, slower)")
	flightOut := flag.String("flight-out", "", "record per-request span chains and write the tail-attribution report here (.json/.csv/text by suffix)")
	flightTop := flag.Int("flight-top", 32, "with -flight-out: keep full span chains for the N slowest requests")
	flightSample := flag.Int("flight-sample", 0, "with -flight-out: lifecycle reservoir size (0 = default)")
	logFormat := flag.String("log-format", "text", "diagnostics format on stderr: text|json")
	version := flag.Bool("version", false, "print the build fingerprint and exit")
	flag.Parse()

	if *version {
		fmt.Println(cliutil.Version("pivotsim"))
		return
	}
	logger, err := cliutil.Logger(*logFormat)
	if err != nil {
		fail(2, err)
	}
	progress, err := cliutil.ServeDebug(*debugAddr, logger)
	if err != nil {
		logger.Error("debug server failed", "err", err)
		os.Exit(1)
	}

	sc := uf.scenario()
	ctx := exp.NewContext(machine.KunpengConfig(sc.Cores()), exp.Full())
	ctx.Out = os.Stderr
	if *statsOut != "" || *timelineOut != "" || *statsTable {
		ctx.StatsEpoch = sim.Cycle(*statsEpoch)
	}
	if *flightOut != "" {
		ctx.FlightTop = *flightTop
		ctx.FlightSample = *flightSample
	}
	ctx.Dense = *dense
	ctx.Progress = progress

	jobs, labels, err := harness.ScenarioJobs(ctx, sc)
	if err != nil {
		fail(2, err)
	}
	runCtx, cancelRun := cliutil.CancelOnSignal("pivotsim")
	res := harness.New(harness.Config{Logger: logger, Progress: progress}).RunContext(runCtx, jobs)[0]
	interrupted := runCtx.Err() != nil
	cancelRun()
	if res.Err != nil {
		if interrupted {
			logger.Info("interrupted")
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "pivotsim: %v\n", errors.Unwrap(res.Err))
		var re *harness.RunError
		if errors.As(res.Err, &re) {
			if d, ok := re.Diag(); ok {
				fmt.Fprintln(os.Stderr, d.String())
			}
		}
		os.Exit(1)
	}
	r, err := harness.ValueAs[exp.RunResult](res)
	if err != nil {
		fail(1, err)
	}

	if *statsOut != "" {
		if err := cliutil.WriteStats(ctx.LastStats(), *statsOut); err != nil {
			fail(1, err)
		}
	}
	if *timelineOut != "" {
		if err := cliutil.WriteTimeline(ctx.LastTimeline(), *timelineOut); err != nil {
			fail(1, err)
		}
	}
	if *flightOut != "" {
		if err := cliutil.WriteFlight(ctx.LastFlight(), *flightOut); err != nil {
			fail(1, err)
		}
	}
	if *statsTable {
		d := ctx.LastStats()
		if d == nil {
			fail(1, errors.New("-stats-table: the run recorded no stats (is -stats-epoch 0?)"))
		}
		fmt.Println(d.Table("stats registry (measured region)").String())
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fail(1, err)
		}
		return
	}
	fmt.Print(exp.ScenarioTable(sc, labels, []exp.RunResult{r}).String() + "\n")
}

func fail(code int, err error) {
	fmt.Fprintf(os.Stderr, "pivotsim: %v\n", err)
	os.Exit(code)
}
