// Scenario mode: -scenario file.json runs a declarative scenario
// (internal/scenario) end to end — validation, sweep expansion, calibration
// and profiling as needed — and prints the per-unit summary table.
package main

import (
	"fmt"
	"io"

	"pivot/internal/cliutil"
	"pivot/internal/exp"
	"pivot/internal/harness"
	"pivot/internal/machine"
	"pivot/internal/scenario"
	"pivot/internal/stats"
)

// scenarioOpts carries the flag-derived knobs into scenario mode.
type scenarioOpts struct {
	cores int
	scale exp.Scale
	// dense forces the per-cycle tick loop on every run unit
	// (bit-identical results either way).
	dense bool
	// flightOut enables the per-request flight recorder on every run unit and
	// exports the last unit's tail-attribution report there.
	flightOut    string
	flightTop    int
	flightSample int
	// progress, when non-nil, feeds the /progress live-telemetry endpoint.
	progress *stats.Progress
	// csvOut, when set, also writes the unit summary table there as CSV.
	csvOut string
}

// runScenario loads, validates and executes one scenario file. opts.cores
// picks the machine when the scenario's machine stanza leaves cores unset;
// opts.scale sets the run windows and calibration grid any unswept knobs
// default to. Calibration progress notes go to progress (nil silences them).
func runScenario(out, progress io.Writer, path string, opts scenarioOpts) error {
	sc, err := scenario.Load(path)
	if err != nil {
		return err
	}
	ctx := exp.NewContext(machine.KunpengConfig(opts.cores), opts.scale)
	ctx.Out = progress
	ctx.Progress = opts.progress
	ctx.Dense = opts.dense
	if opts.flightOut != "" {
		ctx.FlightTop = opts.flightTop
		ctx.FlightSample = opts.flightSample
	}
	t, err := ctx.RunScenario(sc)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, t.String())
	if opts.csvOut != "" {
		if err := harness.WriteFileAtomic(opts.csvOut, []byte(t.CSV()), 0o644); err != nil {
			return fmt.Errorf("writing -csv-out: %w", err)
		}
	}
	if opts.flightOut != "" {
		if err := cliutil.WriteFlight(ctx.LastFlight(), opts.flightOut); err != nil {
			return err
		}
	}
	return nil
}
