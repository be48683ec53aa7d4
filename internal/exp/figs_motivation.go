package exp

import (
	"fmt"

	"pivot/internal/mem"
	"pivot/internal/metrics"
	"pivot/internal/scenario"
	"pivot/internal/workload"
)

// Fig01 — normalized 95th-percentile latency of the LC tasks under Default,
// MBA and MPAM (a value above 1.0 on the QoS-normalised scale is a
// violation). Shows MPAM failing to enforce QoS and MBA succeeding.
func (ctx *Context) Fig01() (*metrics.Table, error) {
	return ctx.grid(ctx.builtin("fig1"), "Figure 1: normalized p95 latency vs QoS (>1.00 violates)",
		byApp, byPolicy, normP95)
}

// Fig02 — memory bandwidth utilisation of MBA, MPAM, FullPath and PIVOT in
// the same scenario. Shows the utilisation ordering MBA < FullPath < PIVOT.
func (ctx *Context) Fig02() (*metrics.Table, error) {
	return ctx.grid(ctx.builtin("fig2"), "Figure 2: memory bandwidth utilisation (fraction of peak)",
		byApp, byPolicy, bwUtil)
}

// Fig03 — maximum normalised iBench throughput with no QoS violation
// (normalised to 7-thread iBench running alone).
func (ctx *Context) Fig03() (*metrics.Table, error) {
	return ctx.grid(ctx.builtin("fig3"), "Figure 3: max iBench throughput under QoS (vs 7-thread alone)",
		byApp, byPolicy, maxBE(false))
}

// Fig05 — where do Masstree's critical loads spend their cycles? Average
// per-component cycles of chase-load memory requests under Run Alone,
// Co-location (Default) and Full Path.
func (ctx *Context) Fig05() (*metrics.Table, error) {
	return ctx.list(ctx.builtin("fig5"), "Figure 5: cycle split of Masstree critical loads per component",
		[]string{"scenario", "L2", "Interconnect", "LLC", "Bus", "BWCtrl", "MemCtrl", "DRAM", "Resp", "total"},
		func(ctx *Context, _ *scenario.Scenario, colo RunSpec) ([][]string, error) {
			// Only the chase loads count toward the split.
			split := variant{splitFilter: chasePCs(ctx.lcParams(colo.LCs[0].App))}
			alone, full := colo, colo
			alone.BEs = nil
			full.Method = MethodFullPath()
			var rows [][]string
			for _, row := range []struct {
				name string
				spec RunSpec
			}{{"Run Alone", alone}, {"Co-location", colo}, {"Full Path", full}} {
				r, err := ctx.run(row.spec, split)
				if err != nil {
					return nil, err
				}
				cells := []string{row.name}
				var total float64
				for _, c := range []mem.Component{mem.CompL2, mem.CompInterconnect, mem.CompLLC,
					mem.CompBus, mem.CompBWCtrl, mem.CompMemCtrl, mem.CompDRAM, mem.CompResp} {
					cells = append(cells, fmt.Sprintf("%.0f", r.Split[c]))
					total += r.Split[c]
				}
				rows = append(rows, append(cells, fmt.Sprintf("%.0f", total)))
			}
			return rows, nil
		})
}

// chasePCs returns the chase-load PCs of an LC app's request generator. The
// PC layout depends only on the parameter counts, so a throwaway generator
// reproduces the machine's.
func chasePCs(app workload.LCParams) map[uint64]bool {
	set := make(map[uint64]bool)
	for _, pc := range workload.NewReqGen(app, 0, nil).ChasePCs() {
		set[pc] = true
	}
	return set
}

// Fig06 — normalized p95 under FullPath with increasing BE thread counts:
// full-path prioritisation keeps every LC task within QoS even at the
// highest contention.
func (ctx *Context) Fig06() (*metrics.Table, error) {
	return ctx.grid(ctx.builtin("fig6"), "Figure 6: normalized p95 under FullPath vs #iBench threads",
		byApp, func(u *scenario.Scenario) string { return fmt.Sprintf("%d thr", u.Tasks[1].Threads) },
		normP95)
}

// Fig07 — leave-one-out: normalized p95 when one MSC does not enforce
// priority. QoS violations appear whenever any single component opts out.
func (ctx *Context) Fig07() (*metrics.Table, error) {
	return ctx.grid(ctx.builtin("fig7"), "Figure 7: normalized p95 with one MSC not enforcing priority",
		byApp, func(u *scenario.Scenario) string {
			if u.Options.DisableMSC == "" {
				return "all MSCs"
			}
			return "-" + u.Options.DisableMSC
		}, normP95)
}

// Fig08 — cumulative distribution of static loads vs ROB stall cycles for
// Silo and Moses: a small fraction of loads causes nearly all stall cycles.
func (ctx *Context) Fig08() (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Figure 8: CDF — top static loads vs share of ROB stall cycles",
		Headers: []string{"app", "loads", "top 5%", "top 10%", "top 20%", "top 50%"},
	}
	for _, app := range scenario.MustBuiltin("fig8").MustAxis("tasks[0].app").Strings() {
		loadFrac, stallFrac := ctx.profile(app).CDF()
		share := func(frac float64) string {
			for i, lf := range loadFrac {
				if lf >= frac {
					return fmt.Sprintf("%.3f", stallFrac[i])
				}
			}
			return "1.000"
		}
		t.AddRow(app, fmt.Sprint(len(loadFrac)),
			share(0.05), share(0.10), share(0.20), share(0.50))
	}
	return t, nil
}

// Fig12 — run-alone load-latency curves with the knee-derived QoS target
// and max load per application.
func (ctx *Context) Fig12() (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Figure 12: load-latency curves (run alone), knee and max load",
		Headers: []string{"app", "load", "RPMC", "p95", "mean", "QoS", "maxLoad"},
	}
	for _, app := range scenario.MustBuiltin("fig12").MustAxis("tasks[0].app").Strings() {
		cal, err := ctx.Calib(app)
		if err != nil {
			return nil, err
		}
		for _, pt := range cal.Curve {
			t.AddRow(app,
				fmt.Sprintf("%.0f%%", pt.LoadFrac*100),
				fmt.Sprintf("%.1f", pt.RPMC),
				fmt.Sprint(pt.P95),
				fmt.Sprintf("%.0f", pt.Mean),
				fmt.Sprint(cal.QoSTarget),
				fmt.Sprintf("%.1f", cal.MaxLoad))
		}
	}
	return t, nil
}
