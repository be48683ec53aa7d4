package exp

import (
	"fmt"

	"pivot/internal/machine"
	"pivot/internal/metrics"
	"pivot/internal/scenario"
)

// Most figures are projections of their builtin scenario: expand it, run
// each unit, and lay one metric per unit out as a table. This file holds the
// shared walk over a builtin's run units, the grid projection, and the cell
// kernels the grid figures use.

// eachUnit calls f with every run unit of a builtin scenario in Expand order
// (first axis outermost), each on the context its machine resolves to and
// converted by SpecForUnit — the same path `pivot-exp -scenario` runs. The
// declared BE thread counts are capped at the scale's bound first, so a
// swept thread count (fig6) overrides the cap. The first error stops the
// walk.
func (ctx *Context) eachUnit(id string, f func(ctx *Context, u *scenario.Scenario, spec RunSpec) error) error {
	sc := scenario.MustBuiltin(id)
	for i := range sc.Tasks {
		if t := &sc.Tasks[i]; t.Kind == scenario.KindBE {
			t.Threads = ctx.beThreads(t.ThreadCount())
		}
	}
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

// rowKey labels a grid's rows: the header cells of the label columns and
// the label cells of a unit's row.
type rowKey struct {
	headers []string
	cells   func(u *scenario.Scenario) []string
}

// byApp labels rows by the first task's app; byAppLoad adds its load.
var (
	byApp = rowKey{[]string{"app"}, func(u *scenario.Scenario) []string {
		return []string{u.Tasks[0].App}
	}}
	byAppLoad = rowKey{[]string{"app", "load"}, func(u *scenario.Scenario) []string {
		return []string{u.Tasks[0].App, fmt.Sprintf("%d%%", u.Tasks[0].LoadPct)}
	}}
)

// byPolicy heads a column with its unit's policy.
func byPolicy(u *scenario.Scenario) string { return u.Policy }

// kernel renders one grid cell from one unit's run.
type kernel func(ctx *Context, spec RunSpec) (string, error)

// grid renders a builtin scenario as a table: one row per combination of
// the non-last sweep axes, labelled by rows, and one column per value of the
// last axis, headed by col. Expand's row-major order fills the table a row
// at a time.
func (ctx *Context) grid(id, title string, rows rowKey, col func(*scenario.Scenario) string, cell kernel) (*metrics.Table, error) {
	sc := scenario.MustBuiltin(id)
	width := len(rows.headers) + len(sc.Sweep[len(sc.Sweep)-1].Values)
	t := &metrics.Table{Title: title, Headers: append([]string(nil), rows.headers...)}
	var cells []string
	err := ctx.eachUnit(id, func(ctx *Context, u *scenario.Scenario, spec RunSpec) error {
		if len(t.Headers) < width {
			t.Headers = append(t.Headers, col(u))
		}
		if cells == nil {
			cells = rows.cells(u)
		}
		c, err := cell(ctx, spec)
		if err != nil {
			return err
		}
		if cells = append(cells, c); len(cells) == width {
			t.AddRow(cells...)
			cells = nil
		}
		return nil
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
// thread count running alone: a fraction ("%.3f") or, with pct, a whole
// percentage.
func maxBE(pct bool) kernel {
	return func(ctx *Context, spec RunSpec) (string, error) {
		be := spec.BEs[0]
		v, err := ctx.MaxBEThroughput(spec.Method, spec.LCs, be.App, be.Threads)
		if err != nil {
			return "", err
		}
		if pct {
			return fmt.Sprintf("%.0f", v*100), nil
		}
		return fmt.Sprintf("%.3f", v), nil
	}
}
