// Command pivot-exp regenerates the paper's figures and tables.
//
// Usage:
//
//	pivot-exp [-quick] [-cores n] list
//	pivot-exp [-quick] [-cores n] scenarios
//	pivot-exp [-quick] [-cores n] <experiment-id>...
//	pivot-exp [-quick] [-cores n] all
//	pivot-exp [-quick] [-cores n] -scenario file.json
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
// progress, -audit enables the machine's per-epoch invariant auditor, and
// -journal/-resume let an interrupted sweep pick up where it stopped. A
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
// build fingerprint stamped into reports and journal entries.
//
// Result cache: with -scenario, -cache-dir keys every unit's result on
// (executable digest, unit scenario, scale, cores, dense) in a
// content-addressed cache, so re-running an edited sweep — or the same sweep
// after rebuilding with different code — recomputes only the changed units;
// a cache hit/miss summary goes to stderr. Cached tables are byte-identical
// to uncached runs. -csv-out also writes the unit table as CSV.
//
// Crash safety: -checkpoint-dir makes each co-location run periodically
// write its full machine state (every -checkpoint-interval cycles) so a
// killed sweep resumes mid-run, not just mid-sweep; combined with
// -journal/-resume no completed or partial work is lost. The first SIGINT or
// SIGTERM shuts down gracefully — in-flight runs flush a final checkpoint
// and the process exits 130; a second signal force-quits immediately.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"pivot/internal/cliutil"
	"pivot/internal/exp"
	"pivot/internal/harness"
	"pivot/internal/machine"
	"pivot/internal/metrics"
	"pivot/internal/scenario"
	"pivot/internal/sim"
	"pivot/internal/stats"
)

func main() {
	quick := flag.Bool("quick", false, "use the fast (coarser) simulation scale")
	cores := flag.Int("cores", 8, "simulated core count")
	quiet := flag.Bool("quiet", false, "suppress calibration progress notes")
	csv := flag.Bool("csv", false, "emit comma-separated values instead of text tables")
	parallel := flag.Int("parallel", 1, "experiments to run concurrently (same results as serial)")
	timeout := flag.Duration("timeout", 0, "wall-clock deadline per experiment (0 = none)")
	journalPath := flag.String("journal", "", "JSONL journal of completed experiments (enables -resume)")
	resume := flag.Bool("resume", false, "replay completed experiments from -journal instead of recomputing")
	audit := flag.Bool("audit", false, "audit simulator invariants (request conservation, queue bounds, bandwidth credit) every epoch")
	watchdog := flag.Uint64("watchdog", uint64(machine.DefaultWatchdogWindow), "abort a run if no instruction commits for this many cycles (0 = off)")
	statsOut := flag.String("stats-out", "", "write the last run's stats dump here (JSON; CSV with a .csv suffix)")
	statsEpoch := flag.Uint64("stats-epoch", uint64(machine.DefaultStatsEpoch), "stats sampling period in cycles")
	timelineOut := flag.String("timeline-out", "", "write the last run's Chrome trace-event timeline here (open in Perfetto)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof and /debug/metrics on this address (e.g. localhost:6060)")
	ckptDir := flag.String("checkpoint-dir", "", "checkpoint in-flight runs here; a rerun resumes them mid-simulation")
	ckptInterval := flag.Uint64("checkpoint-interval", uint64(machine.DefaultCheckpointInterval), "cycles between checkpoints")
	dense := flag.Bool("dense", false, "force the naive per-cycle tick loop instead of quiescence-aware skip-ahead (bit-identical results, slower)")
	scenarioPath := flag.String("scenario", "", "run a user scenario file (JSON) through the harness instead of experiment ids")
	cacheDir := flag.String("cache-dir", "", "with -scenario: content-addressed result cache; unchanged units replay instead of recomputing")
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
	if (*cacheDir != "" || *csvOut != "") && *scenarioPath == "" {
		fmt.Fprintln(os.Stderr, "pivot-exp: -cache-dir/-csv-out apply to -scenario sweeps")
		os.Exit(2)
	}

	// Live sweep telemetry: /progress on the debug server reports cycles/sec,
	// ETA and per-unit sweep progress while experiments run.
	var liveProgress *stats.Progress
	if *debugAddr != "" {
		liveProgress = stats.NewProgress()
		addr, err := stats.ServeDebugWith(*debugAddr, liveProgress)
		if err != nil {
			logger.Error("debug server failed", "err", err)
			os.Exit(1)
		}
		logger.Info("debug server up", "pprof", "http://"+addr+"/debug/pprof/", "progress", "http://"+addr+"/progress")
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
	ctx.CheckpointDir = *ckptDir
	ctx.CheckpointInterval = sim.Cycle(*ckptInterval)
	ctx.Progress = liveProgress
	if *flightOut != "" {
		ctx.FlightTop = *flightTop
		ctx.FlightSample = *flightSample
	}

	// Graceful shutdown: the first SIGINT/SIGTERM cancels the sweep — every
	// in-flight simulation aborts at its next check, flushing a final
	// checkpoint when -checkpoint-dir is set — then artifacts are written and
	// the process exits 130. A second signal hard-exits immediately.
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigCh
		fmt.Fprintf(os.Stderr, "\npivot-exp: %v: stopping (flushing checkpoints); signal again to force quit\n", s)
		cancelRun()
		<-sigCh
		os.Exit(130)
	}()

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
		Parallel:    *parallel,
		Timeout:     *timeout,
		JournalPath: *journalPath,
		Resume:      *resume,
		Progress:    liveProgress,
	}
	if !*quiet {
		hcfg.Logger = logger
	}
	runner, err := harness.New(hcfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pivot-exp: %v\n", err)
		os.Exit(1)
	}

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
		jobs = harness.CachedJobs(cache, jobs)
	} else {
		ids := args
		if args[0] == "all" {
			ids = exp.IDs()
		}
		render := func(t *metrics.Table) string { return t.String() + "\n" }
		if *csv {
			render = func(t *metrics.Table) string { return fmt.Sprintf("# %s\n%s\n", t.Title, t.CSV()) }
		}
		jobs, err = harness.ExperimentJobs(ctx, ids, render)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pivot-exp: %v (try 'list')\n", err)
			os.Exit(2)
		}
	}
	results := runner.RunContext(runCtx, jobs)
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
				fmt.Fprintf(os.Stderr, "pivot-exp: decoding journaled %s: %v\n", res.ID, err)
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
			text, err := harness.ValueAs[string](res)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pivot-exp: decoding journaled %s: %v\n", res.ID, err)
				os.Exit(1)
			}
			fmt.Print(text)
		}
	}

	if *statsOut != "" {
		if err := writeStats(ctx, *statsOut); err != nil {
			fmt.Fprintf(os.Stderr, "pivot-exp: %v\n", err)
			os.Exit(1)
		}
	}
	if *timelineOut != "" {
		if err := writeTimeline(ctx, *timelineOut); err != nil {
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
		if *journalPath != "" {
			fmt.Fprintf(os.Stderr, " (rerun with -resume to continue)")
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

func writeStats(ctx *exp.Context, path string) error {
	d := ctx.LastStats()
	if d == nil {
		return fmt.Errorf("no instrumented run produced a stats dump (experiment ran no co-location simulation)")
	}
	var buf bytes.Buffer
	var err error
	if strings.HasSuffix(path, ".csv") {
		err = d.WriteCSV(&buf)
	} else {
		err = d.WriteJSON(&buf)
	}
	if err != nil {
		return err
	}
	return harness.WriteFileAtomic(path, buf.Bytes(), 0o644)
}

func writeTimeline(ctx *exp.Context, path string) error {
	tl := ctx.LastTimeline()
	if tl == nil {
		return fmt.Errorf("no instrumented run produced a timeline (experiment ran no co-location simulation)")
	}
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		return err
	}
	return harness.WriteFileAtomic(path, buf.Bytes(), 0o644)
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
                 [-journal f [-resume]] [-audit] [-watchdog n]
                 [-checkpoint-dir d] [-checkpoint-interval n]
                 [-stats-out f] [-timeline-out f]
                 [-flight-out f [-flight-top n] [-flight-sample n]]
                 [-cache-dir d] [-csv-out f]
                 [-debug-addr a] [-log-format text|json] [-version]
                 <list | scenarios | all | experiment-id...> | -scenario file.json

Regenerates the paper's figures/tables as text tables. Experiment ids:
` + ids + line + `

"scenarios" lists the declarative builtin scenarios; -scenario runs a user
scenario file through the parallel harness; -cache-dir replays its
unchanged units from a content-addressed result cache.
`
}
