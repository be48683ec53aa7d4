// Command pivotsim runs a single co-location simulation and reports the
// metrics the paper uses: per-LC p95 latency, BE throughput, and memory
// bandwidth utilisation.
//
// Example: one Masstree LC task at a 4000-cycle mean inter-arrival,
// co-located with 7 iBench threads under PIVOT:
//
//	pivotsim -lc masstree -ia 4000 -be ibench -threads 7 -policy pivot
//
// Declarative scenario files (see README "Scenarios" and
// examples/scenarios/) run through `pivot-exp -scenario file.json`.
//
// Crash safety: with -checkpoint-dir the run periodically snapshots its full
// machine state; rerunning the identical command resumes from the newest
// good checkpoint with bit-identical final results. The first SIGINT or
// SIGTERM stops the run gracefully (flushing a final checkpoint, exit 130);
// a second signal force-quits.
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
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"pivot"
	"pivot/internal/checkpoint"
	"pivot/internal/cliutil"
	"pivot/internal/flight"
	"pivot/internal/load"
	"pivot/internal/machine"
	"pivot/internal/mem"
	"pivot/internal/metrics"
	"pivot/internal/sim"
	"pivot/internal/stats"
)

var policies = map[string]pivot.Policy{
	"default":      pivot.PolicyDefault,
	"mba":          pivot.PolicyMBA,
	"mpam":         pivot.PolicyMPAM,
	"fullpath":     pivot.PolicyFullPath,
	"pivot":        pivot.PolicyPIVOT,
	"cbp":          pivot.PolicyCBP,
	"cbp-fullpath": pivot.PolicyCBPFullPath,
}

func main() {
	lcName := flag.String("lc", pivot.Masstree, "LC application (img-dnn|moses|xapian|silo|masstree)")
	ia := flag.Float64("ia", 4000, "mean request inter-arrival in cycles (0 = closed loop)")
	zipf := flag.Float64("zipf", 0, "Zipf skew theta of the LC task's reference popularity, in [0, 1) (0 = uniform; richer load shapes need a scenario file, run by pivot-exp -scenario)")
	beName := flag.String("be", pivot.IBench, "BE application")
	threads := flag.Int("threads", 7, "BE thread count")
	policyName := flag.String("policy", "pivot", "partitioning policy: "+policyNames())
	cores := flag.Int("cores", 8, "core count")
	warmup := flag.Uint64("warmup", 400_000, "warm-up cycles")
	measure := flag.Uint64("measure", 600_000, "measured cycles")
	neoverse := flag.Bool("neoverse", false, "use the ARM Neoverse-like configuration (Table III)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	asJSON := flag.Bool("json", false, "emit a machine-readable snapshot instead of text")
	sample := flag.Int("sample", 0, "print the memory-path cycle split of the first N LC requests")
	statsOut := flag.String("stats-out", "", "write the run's stats dump here (JSON; CSV with a .csv suffix)")
	statsEpoch := flag.Uint64("stats-epoch", 0, "stats sampling period in cycles (0 = default)")
	statsTable := flag.Bool("stats-table", false, "print the stats registry as an aligned table after the run")
	timelineOut := flag.String("timeline-out", "", "write a Chrome trace-event timeline here (open in Perfetto)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof and /debug/metrics on this address")
	ckptDir := flag.String("checkpoint-dir", "", "checkpoint the run here; an identical rerun resumes mid-simulation")
	ckptInterval := flag.Uint64("checkpoint-interval", uint64(machine.DefaultCheckpointInterval), "cycles between checkpoints")
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
		fmt.Fprintf(os.Stderr, "pivotsim: %v\n", err)
		os.Exit(2)
	}

	// Live run telemetry: /progress on the debug server reports the current
	// cycle, cycles/sec and ETA while the simulation runs.
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

	pol, ok := policies[*policyName]
	if !ok {
		fmt.Fprintf(os.Stderr, "pivotsim: unknown policy %q\n", *policyName)
		os.Exit(2)
	}
	if *zipf < 0 || *zipf >= 1 {
		fmt.Fprintf(os.Stderr, "pivotsim: -zipf %v must be in [0, 1)\n", *zipf)
		os.Exit(2)
	}
	lcApp, ok := pivot.LCApps()[*lcName]
	if !ok {
		fmt.Fprintf(os.Stderr, "pivotsim: unknown LC app %q\n", *lcName)
		os.Exit(2)
	}
	beApp, ok := pivot.BEApps()[*beName]
	if !ok {
		fmt.Fprintf(os.Stderr, "pivotsim: unknown BE app %q\n", *beName)
		os.Exit(2)
	}

	cfg := pivot.KunpengConfig(*cores)
	if *neoverse {
		cfg = pivot.NeoverseConfig(*cores)
	}

	var potential pivot.CriticalSet
	if pol == pivot.PolicyPIVOT {
		logger.Info("running offline profiling", "lc", *lcName)
		potential = pivot.ProfileLC(cfg, lcApp, *threads, *seed)
		logger.Info("offline profiling done", "potentialCriticalLoads", len(potential))
	}

	tasks := []pivot.TaskSpec{{
		Kind: pivot.TaskLC, LC: lcApp,
		MeanInterarrival: *ia, Potential: potential, Seed: *seed,
		Load: load.Spec{ZipfTheta: *zipf},
	}}
	for i := 0; i < *threads && len(tasks) < *cores; i++ {
		tasks = append(tasks, pivot.TaskSpec{Kind: pivot.TaskBE, BE: beApp,
			Seed: *seed + uint64(10+i)})
	}

	wantStats := *statsOut != "" || *timelineOut != "" || *statsTable || *statsEpoch > 0
	if *timelineOut != "" && *sample == 0 {
		*sample = 64 // lifecycle events come from the request sampler
	}

	m := pivot.MustNewMachine(cfg, pivot.Options{Policy: pol, SampleRequests: *sample, Dense: *dense}, tasks)
	if wantStats {
		m.EnableStats(pivot.Cycle(*statsEpoch), 0)
	}
	if *flightOut != "" {
		m.EnableFlight(flight.Config{TopK: *flightTop, SampleCap: *flightSample})
	}
	if liveProgress != nil {
		liveProgress.SetLabel(fmt.Sprintf("%s %s + %s x%d", pol, *lcName, *beName, *threads))
		liveProgress.SetGoal(*warmup + *measure)
		m.SetProgress(liveProgress)
	}

	// Graceful shutdown: first signal cancels the run (flushing a final
	// checkpoint when -checkpoint-dir is set), second force-quits.
	runCtx, cancelRun := context.WithCancel(context.Background())
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigCh
		fmt.Fprintf(os.Stderr, "\npivotsim: %v: stopping (flushing checkpoint); signal again to force quit\n", s)
		cancelRun()
		<-sigCh
		os.Exit(130)
	}()

	resumed, err := m.RunCheckpointed(runCtx, pivot.Cycle(*warmup), pivot.Cycle(*measure),
		machine.CheckpointConfig{Dir: *ckptDir, Interval: sim.Cycle(*ckptInterval)})
	interrupted := runCtx.Err() != nil
	cancelRun()
	if resumed > 0 {
		logger.Info("resumed from checkpoint", "cycle", uint64(resumed))
	}
	if err != nil {
		if interrupted {
			if *ckptDir != "" {
				logger.Info("interrupted; state saved — rerun the same command to resume")
			} else {
				logger.Info("interrupted")
			}
			os.Exit(130)
		}
		logger.Error("run failed", "err", err)
		os.Exit(1)
	}
	if *ckptDir != "" {
		_ = checkpoint.Remove(*ckptDir) // run complete; nothing left to protect
	}

	if wantStats {
		if err := exportStats(m, *statsOut, *timelineOut, *statsTable, *policyName); err != nil {
			logger.Error("stats export failed", "err", err)
			os.Exit(1)
		}
	}
	if *flightOut != "" {
		if err := cliutil.WriteFlight(flightReport(m, *policyName, *lcName), *flightOut); err != nil {
			logger.Error("flight export failed", "err", err)
			os.Exit(1)
		}
	}

	if *asJSON {
		if err := m.Snapshot().WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "pivotsim: %v\n", err)
			os.Exit(1)
		}
		return
	}
	src := m.LCTasks()[0].Source
	fmt.Printf("policy            %s\n", pol)
	fmt.Printf("lc app            %s (inter-arrival %.0f cycles)\n", *lcName, *ia)
	fmt.Printf("be app            %s x%d\n", *beName, *threads)
	fmt.Printf("requests done     %d\n", src.Completed())
	if n := src.DroppedLatencies(); n > 0 {
		fmt.Printf("latency records   %d DROPPED past the 1Mi cap — percentiles cover a truncated prefix\n", n)
	}
	fmt.Printf("lc p95 latency    %d cycles\n", m.LCp95(0))
	fmt.Printf("be throughput     %.4f instructions/cycle\n",
		float64(m.BECommitted())/float64(m.MeasuredCycles()))
	fmt.Printf("bandwidth util    %.3f of peak (%.2f GB/s)\n", m.BWUtil(), m.AvgBandwidthGBs())
	fmt.Printf("\nrequest latency distribution (cycles):\n%s",
		metrics.Histogram(src.Latencies(), 12, 40))

	if recs := m.SampledRequests(); len(recs) > 0 {
		fmt.Printf("\nsampled LC memory requests (cycles per component):\n")
		fmt.Printf("%-12s %-8s %-6s %-6s %-6s %-6s %-8s %-6s %-6s\n",
			"pc", "critical", "L2", "IC", "Bus", "BWC", "MemCtrl", "DRAM", "total")
		for _, r := range recs {
			fmt.Printf("%#-12x %-8v %-6d %-6d %-6d %-6d %-8d %-6d %-6d\n",
				r.PC, r.Critical,
				r.Split[mem.CompL2], r.Split[mem.CompInterconnect],
				r.Split[mem.CompBus], r.Split[mem.CompBWCtrl],
				r.Split[mem.CompMemCtrl], r.Split[mem.CompDRAM],
				r.TotalCycles())
		}
	}
}

// exportStats writes the run's stats dump / timeline artifacts and
// (optionally) prints the aligned-text summary table.
func exportStats(m *pivot.Machine, statsOut, timelineOut string, table bool, policy string) error {
	d := m.StatsDump()
	if statsOut != "" {
		f, err := os.Create(statsOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if strings.HasSuffix(statsOut, ".csv") {
			err = d.WriteCSV(f)
		} else {
			err = d.WriteJSON(f)
		}
		if err != nil {
			return err
		}
	}
	if timelineOut != "" {
		f, err := os.Create(timelineOut)
		if err != nil {
			return err
		}
		defer f.Close()
		tl := m.BuildTimeline(1, "pivotsim "+policy)
		// With a flight recorder attached, the slowest requests' span chains
		// land in the same trace as the epoch counters, under their own pid.
		if rec := m.FlightRecorder(); rec != nil {
			rec.AppendTimeline(tl, 2)
		}
		if err := tl.WriteJSON(f); err != nil {
			return err
		}
	}
	if table {
		fmt.Println(d.Table("stats registry (measured region)").String())
	}
	return nil
}

// flightReport builds the flag-built run's tail-attribution report with a
// human-readable source label.
func flightReport(m *pivot.Machine, policy, lc string) *flight.Report {
	rep := m.FlightReport()
	if rep != nil {
		rep.Source = fmt.Sprintf("pivotsim %s %s", policy, lc)
	}
	return rep
}

// policyNames lists the -policy values, sorted so the help text is stable.
func policyNames() string {
	out := make([]string, 0, len(policies))
	for k := range policies {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, "|")
}
