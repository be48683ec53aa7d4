package exp

import (
	"encoding/json"
	"fmt"
	"strconv"

	"pivot/internal/machine"
	"pivot/internal/metrics"
	"pivot/internal/scenario"
)

// Every figure that runs co-locations is a projection of its builtin
// scenario: expand it, run each unit, and lay the results out as tables.
// This file holds the walk over a builtin's run units, the two projections
// (grid: one cell per unit; list: rows per unit), and the cell kernels the
// figures share.

// gridLoads is the load grid of the heatmap and frontier figures: the values
// each of their load-swept LC tasks walks. Coarser scales use fewer points.
func (ctx *Context) gridLoads() []int {
	if len(ctx.Scale.LoadFracs) <= 5 {
		return []int{30, 70}
	}
	return []int{30, 60, 90}
}

// builtin returns a builtin scenario ready to walk. Its declared BE thread
// counts are capped at the scale's bound, so a swept count (fig6) overrides
// the cap. Each LC task index in loads also sweeps that task's load over
// gridLoads, as axes inserted in the given order just before the last axis.
func (ctx *Context) builtin(id string, loads ...int) *scenario.Scenario {
	sc := scenario.MustBuiltin(id)
	for i := range sc.Tasks {
		if t := &sc.Tasks[i]; t.Kind == scenario.KindBE {
			t.Threads = ctx.beThreads(t.ThreadCount())
		}
	}
	if len(loads) > 0 {
		last := len(sc.Sweep) - 1
		sweep := append([]scenario.Axis(nil), sc.Sweep[:last]...)
		for _, task := range loads {
			a := scenario.Axis{Param: fmt.Sprintf("tasks[%d].load_pct", task)}
			for _, l := range ctx.gridLoads() {
				a.Values = append(a.Values, json.RawMessage(strconv.Itoa(l)))
			}
			sweep = append(sweep, a)
		}
		sc.Sweep = append(sweep, sc.Sweep[last])
	}
	return sc
}

// eachUnit calls f with every run unit of a scenario in Expand order (first
// axis outermost), each on the context its machine resolves to and converted
// by SpecForUnit — the same path `pivot-exp -scenario` runs. The first error
// stops the walk.
func (ctx *Context) eachUnit(sc *scenario.Scenario, f func(ctx *Context, u *scenario.Scenario, spec RunSpec) error) error {
	resolve := ctx.UnitResolver()
	for _, u := range sc.MustExpand() {
		uctx := resolve(u)
		spec, err := uctx.SpecForUnit(u)
		if err != nil {
			return err
		}
		if err := f(uctx, u.Scenario, spec); err != nil {
			return err
		}
	}
	return nil
}

// rowKey labels a grid row from its first unit: the header cells of the
// label columns and the row's label cells.
type rowKey func(u *scenario.Scenario) (headers, cells []string)

// byApp labels rows by the first task's app; byAppLoad adds its load.
func byApp(u *scenario.Scenario) ([]string, []string) {
	return []string{"app"}, []string{u.Tasks[0].App}
}

func byAppLoad(u *scenario.Scenario) ([]string, []string) {
	return []string{"app", "load"}, []string{u.Tasks[0].App, pct(u.Tasks[0].LoadPct)}
}

// pct renders a load percentage label.
func pct(load int) string { return fmt.Sprintf("%d%%", load) }

// byPolicy heads a column with its unit's policy.
func byPolicy(u *scenario.Scenario) string { return u.Policy }

// kernel renders one grid cell from one unit's run.
type kernel func(ctx *Context, spec RunSpec) (string, error)

// tables renders a scenario as grids with one cell per unit: one row per
// combination of the non-last sweep axes, labelled by rows, and one column
// per value of the last axis, headed by col. Expand's row-major order fills
// a table a row at a time. Each row lands in the table its first unit's
// title names; consecutive rows with one title share a table, so a title
// naming an outer axis value (fig15, fig18) yields one table per value.
func (ctx *Context) tables(sc *scenario.Scenario, title func(*scenario.Scenario) string, rows rowKey, col func(*scenario.Scenario) string, cell kernel) ([]*metrics.Table, error) {
	cols := len(sc.Sweep[len(sc.Sweep)-1].Values)
	var out []*metrics.Table
	var row []string
	width := 0
	err := ctx.eachUnit(sc, func(ctx *Context, u *scenario.Scenario, spec RunSpec) error {
		if row == nil {
			headers, labels := rows(u)
			if name := title(u); len(out) == 0 || out[len(out)-1].Title != name {
				out = append(out, &metrics.Table{Title: name, Headers: headers})
			}
			row, width = labels, len(labels)+cols
		}
		t := out[len(out)-1]
		if len(t.Rows) == 0 {
			t.Headers = append(t.Headers, col(u))
		}
		c, err := cell(ctx, spec)
		if err != nil {
			return err
		}
		if row = append(row, c); len(row) == width {
			t.AddRow(row...)
			row = nil
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// grid is tables for a figure with a single table.
func (ctx *Context) grid(sc *scenario.Scenario, title string, rows rowKey, col func(*scenario.Scenario) string, cell kernel) (*metrics.Table, error) {
	ts, err := ctx.tables(sc, func(*scenario.Scenario) string { return title }, rows, col, cell)
	if err != nil {
		return nil, err
	}
	return ts[0], nil
}

// list renders a scenario as one table holding the rows each unit yields, in
// Expand order.
func (ctx *Context) list(sc *scenario.Scenario, title string, headers []string, rows func(ctx *Context, u *scenario.Scenario, spec RunSpec) ([][]string, error)) (*metrics.Table, error) {
	t := &metrics.Table{Title: title, Headers: headers}
	err := ctx.eachUnit(sc, func(ctx *Context, u *scenario.Scenario, spec RunSpec) error {
		rs, err := rows(ctx, u, spec)
		for _, r := range rs {
			t.AddRow(r...)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// normP95 is the LC task's p95 over its calibrated QoS target (>1.00
// violates). An MBA column searches its throttle ladder.
func normP95(ctx *Context, spec RunSpec) (string, error) {
	cal, err := ctx.Calib(spec.LCs[0].App)
	if err != nil {
		return "", err
	}
	r, _, err := ctx.RunBestMBA(spec)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%.2f", float64(r.P95[0])/float64(cal.QoSTarget)), nil
}

// bwUtil is the run's bandwidth utilisation; an MBA column searches its
// throttle ladder and names the level it settled on.
func bwUtil(ctx *Context, spec RunSpec) (string, error) {
	r, lvl, err := ctx.RunBestMBA(spec)
	if err != nil {
		return "", err
	}
	if spec.Method.Policy == machine.PolicyMBA {
		return fmt.Sprintf("%.3f (lvl %d)", r.BWUtil, lvl), nil
	}
	return fmt.Sprintf("%.3f", r.BWUtil), nil
}

// maxBE is the best BE throughput meeting QoS, normalised to the unit's BE
// thread count running alone: a fraction ("%.3f") or, with percent, a whole
// percentage.
func maxBE(percent bool) kernel {
	return func(ctx *Context, spec RunSpec) (string, error) {
		be := spec.BEs[0]
		v, err := ctx.MaxBEThroughput(spec.Method, spec.LCs, be.App, be.Threads)
		if err != nil {
			return "", err
		}
		if percent {
			return fmt.Sprintf("%.0f", v*100), nil
		}
		return fmt.Sprintf("%.3f", v), nil
	}
}

// frontier is the co-location frontier of fig18/19: the highest load (100%
// down to 10% in 15-point steps) at which the second LC task still meets QoS
// alongside the others, or 0 when none does. It overwrites that task's load
// in spec.
func frontier(ctx *Context, spec RunSpec) (string, error) {
	for l := 100; l >= 10; l -= 15 {
		spec.LCs[1].LoadPct = l
		r, err := ctx.Run(spec)
		if err != nil {
			return "", err
		}
		if r.AllQoS {
			return fmt.Sprint(l), nil
		}
	}
	return "0", nil
}
