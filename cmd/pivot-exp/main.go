// Command pivot-exp regenerates the paper's figures and tables.
//
// Usage:
//
//	pivot-exp [-quick] [-cores n] list
//	pivot-exp [-quick] [-cores n] scenarios
//	pivot-exp [-quick] [-cores n] <experiment-id>...
//	pivot-exp [-quick] [-cores n] all
//	pivot-exp [-quick] [-cores n] -scenario file.json
//	pivot-exp [-cache-dir d] <experiment-id>...
//	pivot-exp -scenario file.json [-cache-dir d] [-csv-out f]
//
// Each experiment prints a text table whose rows/series mirror the paper's
// figure; EXPERIMENTS.md records the paper-vs-measured comparison.
// "scenarios" lists the declarative builtin scenarios behind the figures
// (internal/scenario), and -scenario expands a user scenario file into run
// units and executes them through the same parallel harness, printing one
// summary row per unit.
//
// Robustness: experiments run through the resilient harness
// (internal/harness). -parallel runs several experiments concurrently
// (results stay identical to serial execution), -timeout bounds each
// experiment's wall clock, -watchdog aborts any simulation making no forward
// progress, and -audit enables the machine's per-epoch invariant auditor. A
// failing experiment no longer kills the sweep: the rest complete, a failure
// summary (with machine diagnostic dumps) goes to stderr, and the exit
// status is 1.
//
// Observability: -stats-out/-timeline-out instrument every co-location run
// with the gem5-style stats registry (sampled every -stats-epoch cycles)
// and export the most recent run's flat dump and Perfetto-loadable
// timeline, so a slow or QoS-violating figure can be diagnosed from its
// artifacts alone. -flight-out arms the per-request flight recorder on
// every run and exports the last run's tail-attribution report (per-PC and
// per-component latency breakdown plus the -flight-top slowest requests'
// span chains; .json/.csv/text by suffix). -debug-addr serves
// net/http/pprof, runtime metrics, and /progress — live cycles/sec, ETA
// and per-unit sweep progress. Diagnostics go through log/slog;
// -log-format=json emits machine-readable lines, and -version prints the
// build fingerprint stamped into reports.
//
// Result cache: -cache-dir keys every job's result — an experiment's tables
// or a scenario unit's run — on (executable digest, experiment ID or unit
// scenario, scale, cores, dense) in a content-addressed cache. Rerunning an
// interrupted sweep with the same -cache-dir replays the jobs that finished;
// rerunning an edited sweep, or the same sweep after rebuilding with
// different code, recomputes only the changed jobs. A cache hit/miss summary
// goes to stderr. Cached output is byte-identical to uncached runs, and one
// cached experiment serves both text and -csv. A hit runs no simulation, so
// with -stats-out/-timeline-out/-flight-out the sweep's last job skips the
// cache read (its result is still stored) and the artifacts describe the
// run the sweep ends on. With -scenario, -csv-out also writes the unit table
// as CSV.
//
// Shutdown: the first SIGINT or SIGTERM aborts the in-flight runs, jobs that
// already finished stay in -cache-dir (a rerun with the same directory
// replays them and computes the rest), and the process exits 130; a second
// signal force-quits immediately.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"pivot/internal/cliutil"
	"pivot/internal/exp"
	"pivot/internal/harness"
	"pivot/internal/machine"
	"pivot/internal/metrics"
	"pivot/internal/scenario"
	"pivot/internal/sim"
)

func main() {
	quick := flag.Bool("quick", false, "use the fast (coarser) simulation scale")
	cores := flag.Int("cores", 8, "simulated core count")
	quiet := flag.Bool("quiet", false, "suppress calibration progress notes")
	csv := flag.Bool("csv", false, "emit comma-separated values instead of text tables")
	parallel := flag.Int("parallel", 1, "experiments to run concurrently (same results as serial)")
	timeout := flag.Duration("timeout", 0, "wall-clock deadline per experiment (0 = none)")
	audit := flag.Bool("audit", false, "audit simulator invariants (request conservation, queue bounds, bandwidth credit) every epoch")
	watchdog := flag.Uint64("watchdog", uint64(machine.DefaultWatchdogWindow), "abort a run if no instruction commits for this many cycles (0 = off)")
	statsOut := flag.String("stats-out", "", "write the last run's stats dump here (JSON; CSV with a .csv suffix)")
	statsEpoch := flag.Uint64("stats-epoch", uint64(machine.DefaultStatsEpoch), "stats sampling period in cycles")
	timelineOut := flag.String("timeline-out", "", "write the last run's Chrome trace-event timeline here (open in Perfetto)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof and /debug/metrics on this address (e.g. localhost:6060)")
	dense := flag.Bool("dense", false, "force the naive per-cycle tick loop instead of quiescence-aware skip-ahead (bit-identical results, slower)")
	scenarioPath := flag.String("scenario", "", "run a user scenario file (JSON) through the harness instead of experiment ids")
	cacheDir := flag.String("cache-dir", "", "content-addressed result cache; finished, unchanged jobs replay instead of recomputing")
	csvOut := flag.String("csv-out", "", "with -scenario: also write the unit summary table as CSV here")
	flightOut := flag.String("flight-out", "", "record per-request span chains on every run and write the last run's tail-attribution report here (.json/.csv/text by suffix)")
	flightTop := flag.Int("flight-top", 32, "with -flight-out: keep full span chains for the N slowest requests")
	flightSample := flag.Int("flight-sample", 0, "with -flight-out: lifecycle reservoir size (0 = default)")
	logFormat := flag.String("log-format", "text", "sweep diagnostics format on stderr: text|json")
	version := flag.Bool("version", false, "print the build fingerprint and exit")
	flag.Parse()

	if *version {
		fmt.Println(cliutil.Version("pivot-exp"))
		return
	}
	logger, err := cliutil.Logger(*logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pivot-exp: %v\n", err)
		os.Exit(2)
	}

	args := flag.Args()
	if len(args) == 0 && *scenarioPath == "" {
		usage()
		os.Exit(2)
	}
	if *csvOut != "" && *scenarioPath == "" {
		fmt.Fprintln(os.Stderr, "pivot-exp: -csv-out applies to -scenario sweeps")
		os.Exit(2)
	}

	// Live sweep telemetry: /progress on the debug server reports cycles/sec,
	// ETA and per-unit sweep progress while experiments run.
	liveProgress, err := cliutil.ServeDebug(*debugAddr, logger)
	if err != nil {
		logger.Error("debug server failed", "err", err)
		os.Exit(1)
	}

	scale := exp.Full()
	if *quick {
		scale = exp.Quick()
	}
	ctx := exp.NewContext(machine.KunpengConfig(*cores), scale)
	if !*quiet {
		ctx.Out = os.Stderr
	}
	if *statsOut != "" || *timelineOut != "" {
		ctx.StatsEpoch = sim.Cycle(*statsEpoch)
	}
	ctx.Watchdog = sim.Cycle(*watchdog)
	ctx.Audit = *audit
	ctx.Dense = *dense
	ctx.Progress = liveProgress
	if *flightOut != "" {
		ctx.FlightTop = *flightTop
		ctx.FlightSample = *flightSample
	}

	// Graceful shutdown: the first SIGINT/SIGTERM cancels the sweep, then
	// artifacts are written and the process exits 130.
	runCtx, cancelRun := cliutil.CancelOnSignal("pivot-exp")
	defer cancelRun()

	reg := exp.Registry()
	if *scenarioPath == "" && args[0] == "list" {
		for _, id := range exp.IDs() {
			fmt.Printf("%-10s %s\n", id, reg[id].Brief)
		}
		return
	}
	if *scenarioPath == "" && args[0] == "scenarios" {
		screg := scenario.Builtins()
		for _, id := range scenario.BuiltinIDs() {
			fmt.Printf("%-10s %s\n", id, screg[id].Brief)
		}
		return
	}

	var cache *harness.Cache
	if *cacheDir != "" {
		cache, err = harness.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pivot-exp: %v\n", err)
			os.Exit(1)
		}
	}

	hcfg := harness.Config{
		Parallel: *parallel,
		Timeout:  *timeout,
		Progress: liveProgress,
	}
	if !*quiet {
		hcfg.Logger = logger
	}
	runner := harness.New(hcfg)

	var jobs []harness.Job
	var sc *scenario.Scenario
	var unitLabels []string
	if *scenarioPath != "" {
		sc, err = scenario.Load(*scenarioPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pivot-exp: %v\n", err)
			os.Exit(2)
		}
		jobs, unitLabels, err = harness.ScenarioJobs(ctx, sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pivot-exp: %v\n", err)
			os.Exit(2)
		}
	} else {
		ids := args
		if args[0] == "all" {
			ids = exp.IDs()
		}
		jobs, err = harness.ExperimentJobs(ctx, ids)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pivot-exp: %v (try 'list')\n", err)
			os.Exit(2)
		}
	}
	if cache != nil && len(jobs) > 0 && (*statsOut != "" || *timelineOut != "" || *flightOut != "") {
		// The per-run artifacts come from the last simulated run, and a
		// cache hit simulates nothing: run the sweep's last job afresh.
		jobs[len(jobs)-1].Refresh = true
	}
	results := runner.RunContext(runCtx, harness.CachedJobs(cache, jobs))
	if cache != nil {
		fmt.Fprintf(os.Stderr, "pivot-exp: result cache: %d hit(s), %d miss(es)\n",
			cache.Hits(), cache.Misses())
	}

	// Emit completed work in sweep order; collect failures.
	var failed []harness.Result
	if sc != nil {
		unitResults := make([]exp.RunResult, 0, len(results))
		labels := make([]string, 0, len(results))
		for i, res := range results {
			if res.Err != nil {
				failed = append(failed, res)
				continue
			}
			r, err := harness.ValueAs[exp.RunResult](res)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pivot-exp: decoding the result of %s: %v\n", res.ID, err)
				os.Exit(1)
			}
			unitResults = append(unitResults, r)
			labels = append(labels, unitLabels[i])
		}
		tbl := exp.ScenarioTable(sc, labels, unitResults)
		fmt.Print(tbl.String() + "\n")
		if *csvOut != "" {
			if err := harness.WriteFileAtomic(*csvOut, []byte(tbl.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "pivot-exp: writing -csv-out: %v\n", err)
				os.Exit(1)
			}
		}
	} else {
		for _, res := range results {
			if res.Err != nil {
				failed = append(failed, res)
				continue
			}
			tables, err := harness.ValueAs[[]*metrics.Table](res)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pivot-exp: decoding the result of %s: %v\n", res.ID, err)
				os.Exit(1)
			}
			for _, t := range tables {
				if *csv {
					fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
				} else {
					fmt.Print(t.String() + "\n")
				}
			}
		}
	}

	if *statsOut != "" {
		if err := cliutil.WriteStats(ctx.LastStats(), *statsOut); err != nil {
			fmt.Fprintf(os.Stderr, "pivot-exp: %v\n", err)
			os.Exit(1)
		}
	}
	if *timelineOut != "" {
		if err := cliutil.WriteTimeline(ctx.LastTimeline(), *timelineOut); err != nil {
			fmt.Fprintf(os.Stderr, "pivot-exp: %v\n", err)
			os.Exit(1)
		}
	}
	if *flightOut != "" {
		if err := cliutil.WriteFlight(ctx.LastFlight(), *flightOut); err != nil {
			fmt.Fprintf(os.Stderr, "pivot-exp: %v\n", err)
			os.Exit(1)
		}
	}

	if runCtx.Err() != nil {
		fmt.Fprintf(os.Stderr, "\npivot-exp: interrupted; %d of %d experiment(s) incomplete", len(failed), len(results))
		if cache != nil {
			fmt.Fprintf(os.Stderr, " (rerun with the same -cache-dir to continue)")
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(130)
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "\npivot-exp: %d of %d experiment(s) failed:\n", len(failed), len(results))
		for _, res := range failed {
			fmt.Fprintf(os.Stderr, "  %-10s %v\n", res.ID, errors.Unwrap(res.Err))
			var re *harness.RunError
			if errors.As(res.Err, &re) {
				if d, ok := re.Diag(); ok {
					fmt.Fprintf(os.Stderr, "%s\n", indent(d.String(), "    "))
				}
			}
		}
		os.Exit(1)
	}
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, ln := range lines {
		lines[i] = prefix + ln
	}
	return strings.Join(lines, "\n")
}

func usage() { fmt.Fprint(os.Stderr, usageText()) }

// usageText is the help text; its experiment-id list comes from the registry.
func usageText() string {
	var ids, line string
	for _, id := range exp.IDs() {
		if line != "" && len(line)+1+len(id) > 72 {
			ids, line = ids+line+"\n", ""
		}
		if line != "" {
			line += " "
		}
		line += id
	}
	return `usage: pivot-exp [-quick] [-cores n] [-quiet] [-parallel n] [-timeout d]
                 [-cache-dir d] [-audit] [-watchdog n]
                 [-stats-out f] [-timeline-out f]
                 [-flight-out f [-flight-top n] [-flight-sample n]]
                 [-csv-out f] [-debug-addr a] [-log-format text|json] [-version]
                 <list | scenarios | all | experiment-id...> | -scenario file.json

Regenerates the paper's figures/tables as text tables. Experiment ids:
` + ids + line + `

"scenarios" lists the declarative builtin scenarios; -scenario runs a user
scenario file through the parallel harness. -cache-dir replays finished,
unchanged experiments and scenario units from a content-addressed result
cache, so rerunning an interrupted sweep with the same -cache-dir resumes it.
`
}
