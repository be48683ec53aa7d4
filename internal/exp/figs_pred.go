package exp

import (
	"fmt"

	"pivot/internal/machine"
	"pivot/internal/metrics"
	"pivot/internal/profile"
	"pivot/internal/rrbp"
	"pivot/internal/scenario"
	"pivot/internal/sim"
)

// Fig20 — load-criticality prediction methods (§VI-B): max BE throughput
// when the LC task meets QoS, comparing CBP (memory controller only),
// Binary-CBP + full path, and PIVOT.
func (ctx *Context) Fig20() (*metrics.Table, error) {
	return ctx.grid(ctx.builtin("fig20"), "Figure 20: criticality predictors — max iBench throughput (%)",
		byAppLoad, byPolicy, maxBE(true))
}

// Fig21 — IPC and p95 of each LC task at 70% max load, running alone.
func (ctx *Context) Fig21() (*metrics.Table, error) {
	return ctx.list(ctx.builtin("fig21"), "Figure 21: run-alone IPC and p95 at 70% max load",
		[]string{"app", "IPC", "p95 (cycles)", "QoS target"},
		func(ctx *Context, _ *scenario.Scenario, spec RunSpec) ([][]string, error) {
			app := spec.LCs[0].App
			r, err := ctx.Run(spec)
			if err != nil {
				return nil, err
			}
			cal, err := ctx.Calib(app)
			if err != nil {
				return nil, err
			}
			return [][]string{{app, fmt.Sprintf("%.3f", r.LCIPC[0]), fmt.Sprint(r.P95[0]),
				fmt.Sprint(cal.QoSTarget)}}, nil
		})
}

// Fig22 — RRBP table-size sensitivity: BE throughput under PIVOT with 16,
// 32, 64 and 128 entries, normalised to an unlimited (fully associative)
// table, each LC at 70% load with the 7-thread iBench stressor. Each app's
// row opens with its rrbp_entries = -1 unit, the unlimited baseline, and
// closes with whether every table size met QoS.
func (ctx *Context) Fig22() (*metrics.Table, error) {
	sc := ctx.builtin("fig22")
	width := len(sc.MustAxis("options.rrbp_entries").Values)
	t := &metrics.Table{
		Title:   "Figure 22: BE throughput vs unlimited RRBP (1.00 = unlimited)",
		Headers: []string{"app"},
	}
	var unl RunResult
	var row []string
	err := ctx.eachUnit(sc, func(ctx *Context, u *scenario.Scenario, spec RunSpec) error {
		r, err := ctx.Run(spec)
		if err != nil {
			return err
		}
		if u.Options.RRBPEntries < 0 {
			unl, row = r, []string{u.Tasks[0].App}
			return nil
		}
		if len(t.Rows) == 0 {
			t.Headers = append(t.Headers, fmt.Sprint(u.Options.RRBPEntries))
		}
		ratio := 0.0
		if unl.BEIPC > 0 {
			ratio = r.BEIPC / unl.BEIPC
		}
		row = append(row, fmt.Sprintf("%.3f", ratio))
		unl.AllQoS = unl.AllQoS && r.AllQoS
		if len(row) == width { // the app label, then one ratio per sized table
			if len(t.Rows) == 0 {
				t.Headers = append(t.Headers, "QoS all")
			}
			t.AddRow(append(row, fmt.Sprint(unl.AllQoS))...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Sensitivity — the §VI-C text numbers: RRBP refresh interval, offline LLC
// miss-rate threshold and offline stall-ranking threshold, reported as the
// average EMU over the five 1-LC@70% + iBench training scenarios.
func (ctx *Context) Sensitivity() ([]*metrics.Table, error) {
	var out []*metrics.Table

	// Refresh interval. The paper's 500K/1M/2M are scaled to the shorter
	// measured regions (EXPERIMENTS.md records the mapping).
	reft := &metrics.Table{
		Title:   "Sensitivity: RRBP refresh interval (avg EMU %, 5 scenarios)",
		Headers: []string{"0.5x (500K)", "1x (1M)", "2x (2M)"},
	}
	var refCells []string
	for _, mult := range []float64{0.5, 1, 2} {
		cfg := rrbp.DefaultConfig()
		cfg.RefreshCycles = sim.Cycle(float64(machine.ScaledRRBPRefresh) * mult)
		v, err := ctx.avgEMU(machine.Options{RRBP: cfg}, variant{})
		if err != nil {
			return nil, err
		}
		refCells = append(refCells, fmt.Sprintf("%.1f", v))
	}
	reft.AddRow(refCells...)
	out = append(out, reft)

	// Offline profiling parameters.
	pt := &metrics.Table{
		Title:   "Sensitivity: offline profiling parameters (avg EMU %)",
		Headers: []string{"variant", "avg EMU"},
	}
	for _, v := range []struct {
		name   string
		params profile.Params
	}{
		{"default (miss 10%, rank 5%)", profile.DefaultParams()},
		{"miss 5%", profile.Params{MinExecFreq: 0.005, MinLLCMissRate: 0.05, TopStallFrac: 0.05}},
		{"miss 15%", profile.Params{MinExecFreq: 0.005, MinLLCMissRate: 0.15, TopStallFrac: 0.05}},
		{"rank 10%", profile.Params{MinExecFreq: 0.005, MinLLCMissRate: 0.10, TopStallFrac: 0.10}},
		{"rank 15%", profile.Params{MinExecFreq: 0.005, MinLLCMissRate: 0.10, TopStallFrac: 0.15}},
	} {
		emu, err := ctx.avgEMU(machine.Options{}, variant{potential: func(app string) profile.CriticalSet {
			return machine.ProfileLCWith(ctx.Cfg, ctx.lcParams(app), ctx.Scale.MaxBEThreads,
				ctx.Scale.Seed, v.params, machine.ProfileCycles)
		}})
		if err != nil {
			return nil, err
		}
		pt.AddRow(v.name, fmt.Sprintf("%.1f", emu))
	}
	out = append(out, pt)
	return out, nil
}

// avgEMU runs the training scenarios (the sens builtin) with the given
// options as a variant run and averages their EMU.
func (ctx *Context) avgEMU(opt machine.Options, v variant) (float64, error) {
	var sum float64
	units := 0
	err := ctx.eachUnit(ctx.builtin("sens"), func(ctx *Context, _ *scenario.Scenario, spec RunSpec) error {
		spec.Opt = opt
		r, err := ctx.run(spec, v)
		if err != nil {
			return err
		}
		be := spec.BEs[0]
		emu, err := ctx.EMU(spec.LCs, be.App, be.Threads, be.Threads, r)
		sum += emu
		units++
		return err
	})
	if err != nil {
		return 0, err
	}
	return sum / float64(units), nil
}
