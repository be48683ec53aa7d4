package exp

import (
	"fmt"
	"strings"

	"pivot/internal/metrics"
	"pivot/internal/scenario"
)

// Fig13 — co-location of 1 LC task and iBench: max BE throughput (% of
// 7-thread-alone) at each LC load, per method, with QoS met.
func (ctx *Context) Fig13() (*metrics.Table, error) {
	return ctx.grid(ctx.builtin("fig13"), "Figure 13: max iBench throughput (%) vs LC load, QoS met",
		byAppLoad, byPolicy, maxBE(true))
}

// Fig13EMU — the EMU summary quoted in §VI-A1 (Default 86.1%, PARTIES
// 116.0%, CLITE 116.3%, PIVOT 133.2% in the paper).
func (ctx *Context) Fig13EMU() (*metrics.Table, error) {
	sc := ctx.builtin("fig13emu")
	policies := sc.MustAxis("policy").Strings()
	t := &metrics.Table{
		Title:   "Figure 13 summary: average EMU (%) across apps and loads",
		Headers: policies,
	}
	// Policy is the innermost axis, so units cycle through the columns.
	sums := make([]float64, len(policies))
	units := 0
	err := ctx.eachUnit(sc, func(ctx *Context, _ *scenario.Scenario, spec RunSpec) error {
		be := spec.BEs[0]
		v, err := ctx.MaxBEThroughput(spec.Method, spec.LCs, be.App, be.Threads)
		if err != nil {
			return err
		}
		if v > 0 {
			sums[units%len(sums)] += float64(spec.LCs[0].LoadPct) + v*100
		}
		units++
		return nil
	})
	if err != nil {
		return nil, err
	}
	cells := make([]string, len(sums))
	for i := range sums {
		cells[i] = fmt.Sprintf("%.1f", sums[i]/float64(units/len(sums)))
	}
	t.AddRow(cells...)
	return t, nil
}

// Fig14 — the LC tail latency behind Figure 13: normalized p95 at each load
// with the full 7-thread iBench stressor.
func (ctx *Context) Fig14() (*metrics.Table, error) {
	return ctx.grid(ctx.builtin("fig14"), "Figure 14: normalized p95 with 7-thread iBench (<=1.00 meets QoS)",
		byAppLoad, byPolicy, normP95)
}

// Fig15 — 2 LC tasks + iBench: max BE throughput (% of 6-thread alone) per
// (load1, load2) cell and method, both LC tasks meeting QoS; one table per
// LC pair.
func (ctx *Context) Fig15() ([]*metrics.Table, error) {
	return ctx.tables(ctx.builtin("fig15", 0, 1),
		func(u *scenario.Scenario) string {
			return fmt.Sprintf("Figure 15: %s + %s + iBench — max BE throughput (%%)",
				u.Tasks[0].App, u.Tasks[1].App)
		},
		func(u *scenario.Scenario) ([]string, []string) {
			return []string{u.Tasks[0].App, u.Tasks[1].App},
				[]string{pct(u.Tasks[0].LoadPct), pct(u.Tasks[1].LoadPct)}
		},
		byPolicy, maxBE(true))
}

// Fig16 — throughput of a single CloudSuite BE task (normalised to running
// alone on the same thread count) and average memory bandwidth, co-located
// with 2 LC tasks at 40% load.
func (ctx *Context) Fig16() (*metrics.Table, error) {
	return ctx.cloudSuite(ctx.builtin("fig16"),
		"Figure 16: CloudSuite BE throughput (norm) + avg bandwidth, 2 LC @40%")
}

// Fig17 — 2 LC + 2 BE CloudSuite tasks: normalised throughput of the two BE
// tasks and average bandwidth.
func (ctx *Context) Fig17() (*metrics.Table, error) {
	return ctx.cloudSuite(ctx.builtin("fig17"),
		"Figure 17: 2 LC + 2 BE (CloudSuite) — BE throughput (norm) + bandwidth")
}

// cloudSuite renders a CloudSuite co-location (fig16/17 and their Neoverse
// runs fig24/25) with one row per unit. Whatever thread counts the scenario
// declares, the BE tasks split the cores the LC tasks leave free evenly, and
// BE throughput is normalised to those same threads running alone.
func (ctx *Context) cloudSuite(sc *scenario.Scenario, title string) (*metrics.Table, error) {
	return ctx.list(sc, title, []string{"scenario", "method", "BE tput", "BW util", "QoS"},
		func(ctx *Context, _ *scenario.Scenario, spec RunSpec) ([][]string, error) {
			per := (ctx.Cfg.Cores - len(spec.LCs)) / len(spec.BEs)
			lcs := make([]string, len(spec.LCs))
			for i, lc := range spec.LCs {
				lcs[i] = lc.App
			}
			bes := make([]string, len(spec.BEs))
			var base float64
			for i := range spec.BEs {
				spec.BEs[i].Threads = per
				alone, err := ctx.BEAloneIPC(spec.BEs[i].App, per)
				if err != nil {
					return nil, err
				}
				base += alone
				bes[i] = spec.BEs[i].App
			}
			r, err := ctx.Run(spec)
			if err != nil {
				return nil, err
			}
			return [][]string{{strings.Join(lcs, "+") + "/" + strings.Join(bes, "+"), spec.Method.Name,
				fmt.Sprintf("%.2f", r.BEIPC/base), fmt.Sprintf("%.3f", r.BWUtil), qosMark(r)}}, nil
		})
}

func qosMark(r RunResult) string {
	if r.AllQoS {
		return "met"
	}
	return "VIOLATED"
}

// Fig18 — 2-LC co-location frontier: with the first task at a given load,
// the maximum load (% of max) the second task can run at with both meeting
// QoS; one table per LC pair.
func (ctx *Context) Fig18() ([]*metrics.Table, error) {
	return ctx.tables(ctx.builtin("fig18", 0),
		func(u *scenario.Scenario) string {
			return fmt.Sprintf("Figure 18: max %s load (%%) vs %s load", u.Tasks[1].App, u.Tasks[0].App)
		},
		func(u *scenario.Scenario) ([]string, []string) {
			return []string{u.Tasks[0].App + " load"}, []string{pct(u.Tasks[0].LoadPct)}
		},
		byPolicy, frontier)
}

// Fig19 — 3-LC co-location: the (Xapian, Masstree) frontier with Img-DNN at
// low (10%) and high (70%) load.
func (ctx *Context) Fig19() (*metrics.Table, error) {
	return ctx.grid(ctx.builtin("fig19", 0), "Figure 19: max Masstree load (%) vs Xapian load, with Img-DNN",
		func(u *scenario.Scenario) ([]string, []string) {
			return []string{"imgdnn", "xapian"}, []string{pct(u.Tasks[2].LoadPct), pct(u.Tasks[0].LoadPct)}
		},
		byPolicy, frontier)
}
