package exp

import (
	"fmt"

	"pivot/internal/manager"
	"pivot/internal/metrics"
	"pivot/internal/profile"
	"pivot/internal/scenario"
)

// The experiments in this file go beyond the paper's evaluation: they
// implement and measure the directions §VII sketches as future work, plus an
// ablation of the prefetcher substitution documented in DESIGN.md §6.1.

// AloneMeanAt interpolates the run-alone mean latency at a percentage of max
// load (the hybrid controller's average-latency baseline).
func (c *AppCalib) AloneMeanAt(pct int) float64 {
	target := c.MaxLoad * float64(pct) / 100
	if len(c.Curve) == 0 {
		return 0
	}
	if target <= c.Curve[0].RPMC {
		return c.Curve[0].Mean
	}
	for i := 1; i < len(c.Curve); i++ {
		a, b := c.Curve[i-1], c.Curve[i]
		if target <= b.RPMC {
			f := (target - a.RPMC) / (b.RPMC - a.RPMC)
			return a.Mean + f*(b.Mean-a.Mean)
		}
	}
	return c.Curve[len(c.Curve)-1].Mean
}

// Hybrid — §VII: PIVOT's weak isolation can raise LC *average* latency in
// some co-locations; the hybrid controller trades strong isolation back in
// when a mean-latency target is at risk. Reports mean and p95 latency and BE
// throughput for PIVOT alone vs PIVOT+Hybrid.
func (ctx *Context) Hybrid() (*metrics.Table, error) {
	return ctx.list(ctx.builtin("hybrid"), "Extension (§VII): hybrid strong isolation — mean/p95/BE throughput",
		[]string{"app", "method", "mean", "mean target", "p95", "BE ipc", "MBA lvl"},
		func(ctx *Context, _ *scenario.Scenario, spec RunSpec) ([][]string, error) {
			lc := spec.LCs[0]
			cal, err := ctx.Calib(lc.App)
			if err != nil {
				return nil, err
			}
			meanTarget := 1.5 * cal.AloneMeanAt(lc.LoadPct)
			r, err := ctx.Run(spec)
			if err != nil {
				return nil, err
			}
			// PIVOT + hybrid strong isolation, reporting the MBA level it ends at.
			h := manager.NewHybrid([]float64{meanTarget})
			hr, err := ctx.run(spec, variant{manager: h})
			if err != nil {
				return nil, err
			}
			var rows [][]string
			for _, row := range []struct {
				method string
				r      RunResult
				lvl    int
			}{{"PIVOT", r, 100}, {"PIVOT+Hybrid", hr, h.Level()}} {
				rows = append(rows, []string{lc.App, row.method,
					fmt.Sprintf("%.0f", row.r.MeanLat[0]), fmt.Sprintf("%.0f", meanTarget),
					fmt.Sprint(row.r.P95[0]), fmt.Sprintf("%.4f", row.r.BEIPC), fmt.Sprint(row.lvl)})
			}
			return rows, nil
		})
}

// NoProfile — §VII: multi-tenant clouds cannot offline-profile unknown LC
// tasks. Running PIVOT with no potential set (every load measured online)
// works for small-instruction-footprint microservices but degrades for
// data-center-size footprints, where unfiltered loads alias destructively in
// the 64-entry RRBP.
func (ctx *Context) NoProfile() (*metrics.Table, error) {
	return ctx.list(ctx.builtin("noprofile"), "Extension (§VII): PIVOT without offline profiling",
		[]string{"app", "footprint", "variant", "p95/QoS", "QoS", "BE ipc"},
		func(ctx *Context, _ *scenario.Scenario, spec RunSpec) ([][]string, error) {
			app := spec.LCs[0].App
			cal, err := ctx.Calib(app)
			if err != nil {
				return nil, err
			}
			footprint := fmt.Sprint(len(chasePCs(cal.App))+cal.App.PayloadPCs) + " loads"
			var rows [][]string
			for _, row := range []struct {
				name string
				v    variant
			}{
				{"two-phase (profiled)", variant{}},
				{"online-only", variant{potential: func(string) profile.CriticalSet { return nil }}},
			} {
				r, err := ctx.run(spec, row.v)
				if err != nil {
					return nil, err
				}
				rows = append(rows, []string{app, footprint, row.name,
					fmt.Sprintf("%.2f", float64(r.P95[0])/float64(cal.QoSTarget)),
					qosMark(r), fmt.Sprintf("%.4f", r.BEIPC)})
			}
			return rows, nil
		})
}

// PrefetchAblation — DESIGN.md §6.1 folds hardware-prefetch concurrency into
// the L1 miss buffers; this ablation turns the explicit stride prefetcher on
// and reports what it changes for a streaming-payload LC task under PIVOT.
func (ctx *Context) PrefetchAblation() (*metrics.Table, error) {
	return ctx.list(ctx.builtin("prefetch"), "Ablation: explicit stride prefetcher (DESIGN.md §6.1)",
		[]string{"app", "prefetch", "p95/QoS", "BE ipc", "BW util"},
		func(ctx *Context, _ *scenario.Scenario, spec RunSpec) ([][]string, error) {
			app := spec.LCs[0].App
			cal, err := ctx.Calib(app)
			if err != nil {
				return nil, err
			}
			r, err := ctx.Run(spec)
			if err != nil {
				return nil, err
			}
			return [][]string{{app, fmt.Sprint(spec.Opt.Prefetch),
				fmt.Sprintf("%.2f", float64(r.P95[0])/float64(cal.QoSTarget)),
				fmt.Sprintf("%.4f", r.BEIPC),
				fmt.Sprintf("%.3f", r.BWUtil)}}, nil
		})
}
