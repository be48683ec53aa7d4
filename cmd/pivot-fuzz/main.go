// Command pivot-fuzz runs scenario-fuzzing campaigns against the simulator's
// differential oracles and replays recorded findings.
//
// Campaign mode generates -n random valid scenarios from -seed and checks
// each against the five-oracle bank (codec round-trip, skip-ahead vs dense
// equivalence, flight-recorder purity, stationary-load neutrality,
// invariant audit). Failures are shrunk to
// minimal reproductions and recorded under -corpus as replayable
// directories:
//
//	pivot-fuzz -seed 1 -n 200 -corpus corpus/
//
// Replay mode re-runs every entry of a recorded corpus through its oracle —
// a checked-in corpus doubles as a regression suite:
//
//	pivot-fuzz -replay internal/scenfuzz/testdata/corpus
//
// -duration bounds a campaign's wall clock (scenarios not started in time
// are skipped, not failed); -oracles narrows the bank to a comma-separated
// subset; -defect arms a deliberate, test-only bug in one oracle leg to
// prove end-to-end that the machine catches and minimises real defects.
//
// Exit status: 0 all green, 1 oracle findings, 2 usage or infrastructure
// error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pivot/internal/cliutil"
	"pivot/internal/scenfuzz"
)

func main() {
	os.Exit(run())
}

func run() int {
	seed := flag.Uint64("seed", 1, "campaign seed; the same (seed, n, oracles) campaign reproduces exactly")
	n := flag.Int("n", 100, "number of scenarios to generate and check")
	duration := flag.Duration("duration", 0, "wall-clock bound for the campaign (0 = unbounded)")
	oracles := flag.String("oracles", "", "comma-separated oracle subset: "+strings.Join(scenfuzz.OracleNames(), ",")+" (empty = all)")
	corpus := flag.String("corpus", "", "directory receiving one replayable entry per finding")
	replay := flag.String("replay", "", "replay the corpus at this directory instead of fuzzing")
	parallel := flag.Int("parallel", 0, "worker count (0 = GOMAXPROCS)")
	defect := flag.String("defect", "", "arm a deliberate test-only defect: "+strings.Join(scenfuzz.Defects(), ",")+" (empty = none)")
	logFormat := flag.String("log-format", "text", "diagnostics format: text or json")
	version := flag.Bool("version", false, "print the build fingerprint and exit")
	flag.Parse()

	if *version {
		fmt.Println(cliutil.Version("pivot-fuzz"))
		return 0
	}
	logger, err := cliutil.Logger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pivot-fuzz:", err)
		return 2
	}
	if *defect != "" {
		ok := false
		for _, d := range scenfuzz.Defects() {
			ok = ok || d == *defect
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "pivot-fuzz: unknown -defect %q (want one of %s)\n", *defect, strings.Join(scenfuzz.Defects(), ", "))
			return 2
		}
		logger.Warn("deliberate defect armed; findings below are expected", "defect", *defect)
	}
	env := scenfuzz.Env{Defect: *defect}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *replay != "" {
		failed, err := scenfuzz.Replay(ctx, *replay, env, os.Stdout)
		if err != nil {
			logger.Error("replay failed", "err", err)
			return 2
		}
		if len(failed) > 0 {
			fmt.Printf("replay: %d corpus entr%s failing\n", len(failed), plural(len(failed), "y", "ies"))
			return 1
		}
		fmt.Println("replay: all corpus entries pass")
		return 0
	}

	var names []string
	if *oracles != "" {
		names = strings.Split(*oracles, ",")
	}
	start := time.Now()
	sum, err := scenfuzz.Run(ctx, scenfuzz.Config{
		Seed:     *seed,
		N:        *n,
		Duration: *duration,
		Oracles:  names,
		Corpus:   *corpus,
		Parallel: *parallel,
		Env:      env,
		Out:      os.Stderr,
	})
	if err != nil {
		logger.Error("campaign failed", "err", err)
		return 2
	}
	for _, f := range sum.Findings {
		fmt.Printf("FINDING %s (scenario %d): %s\n", f.Oracle, f.Index, f.Detail)
		if f.Dir != "" {
			fmt.Printf("  recorded: %s\n", f.Dir)
		}
	}
	fmt.Printf("fuzz: seed %d: %d checked, %d skipped, %d finding%s in %s\n",
		*seed, sum.Checked, sum.Skipped, len(sum.Findings), plural(len(sum.Findings), "", "s"),
		time.Since(start).Round(time.Millisecond))
	if len(sum.Findings) > 0 {
		return 1
	}
	return 0
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
