// Command pivot-profile runs PIVOT's offline profiling phase (§IV-B) for an
// LC application and prints the selected potential-critical set together
// with the per-load statistics it was derived from.
package main

import (
	"flag"
	"fmt"
	"os"

	"pivot"
	"pivot/internal/machine"
	"pivot/internal/profile"
	"pivot/internal/sim"
)

func main() {
	// The selection starts from the harness's parameters, RRBP cap included,
	// so the printed set is the one PIVOT runs with.
	params := profile.DefaultParams()
	lcName := flag.String("lc", pivot.Masstree, "LC application to profile")
	threads := flag.Int("stress-threads", 7, "stress-copy BE thread count")
	cores := flag.Int("cores", 8, "core count")
	cycles := flag.Uint64("cycles", uint64(machine.ProfileCycles), "profiling duration in cycles")
	flag.Float64Var(&params.MinExecFreq, "min-exec-freq", params.MinExecFreq, "minimal execution frequency")
	flag.Float64Var(&params.MinLLCMissRate, "min-miss-rate", params.MinLLCMissRate, "minimal LLC miss rate")
	flag.Float64Var(&params.TopStallFrac, "top-stall", params.TopStallFrac, "top stall-cycle ranking fraction")
	seed := flag.Uint64("seed", 1, "simulation seed")
	top := flag.Int("top", 20, "per-load statistics rows to print")
	flag.Parse()

	app, ok := pivot.LCApps()[*lcName]
	if !ok {
		fmt.Fprintf(os.Stderr, "pivot-profile: unknown LC app %q\n", *lcName)
		os.Exit(2)
	}

	prof := machine.RunProfiler(machine.KunpengConfig(*cores), app, *threads, *seed, sim.Cycle(*cycles))
	set := prof.Select(params)

	fmt.Printf("app                 %s\n", *lcName)
	fmt.Printf("loads observed      %d (static: %d)\n", prof.TotalLoads(), len(prof.Stats()))
	fmt.Printf("potential-critical  %d static loads\n\n", len(set))

	fmt.Printf("%-12s %10s %9s %12s %9s\n", "pc", "execs", "missRate", "stallCycles", "critical")
	for i, s := range prof.Stats() {
		if i >= *top {
			break
		}
		fmt.Printf("%#-12x %10d %9.3f %12d %9v\n",
			s.PC, s.Execs, s.MissRate(), s.StallCycles, set.Contains(s.PC))
	}
}
