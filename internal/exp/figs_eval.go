package exp

import (
	"fmt"

	"pivot/internal/metrics"
	"pivot/internal/scenario"
)

// Fig13 — co-location of 1 LC task and iBench: max BE throughput (% of
// 7-thread-alone) at each LC load, per method, with QoS met.
func (ctx *Context) Fig13() (*metrics.Table, error) {
	return ctx.grid("fig13", "Figure 13: max iBench throughput (%) vs LC load, QoS met",
		byAppLoad, byPolicy, maxBE(true))
}

// Fig13EMU — the EMU summary quoted in §VI-A1 (Default 86.1%, PARTIES
// 116.0%, CLITE 116.3%, PIVOT 133.2% in the paper).
func (ctx *Context) Fig13EMU() (*metrics.Table, error) {
	policies := scenario.MustBuiltin("fig13emu").MustAxis("policy").Strings()
	t := &metrics.Table{
		Title:   "Figure 13 summary: average EMU (%) across apps and loads",
		Headers: policies,
	}
	// Policy is the innermost axis, so units cycle through the columns.
	sums := make([]float64, len(policies))
	units := 0
	err := ctx.eachUnit("fig13emu", func(ctx *Context, _ *scenario.Scenario, spec RunSpec) error {
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
	return ctx.grid("fig14", "Figure 14: normalized p95 with 7-thread iBench (<=1.00 meets QoS)",
		byAppLoad, byPolicy, normP95)
}

// gridLoads is the 2-D load grid used for the heatmap figures.
func (ctx *Context) gridLoads() []int {
	if len(ctx.Scale.LoadFracs) <= 5 {
		return []int{30, 70}
	}
	return []int{30, 60, 90}
}

// Fig15 — 2 LC tasks + iBench: max BE throughput (% of 6-thread alone) per
// (load1, load2) cell and method, both LC tasks meeting QoS.
func (ctx *Context) Fig15() ([]*metrics.Table, error) {
	sc := scenario.MustBuiltin("fig15")
	policies := sc.MustAxis("policy").Strings()
	beApp := sc.Tasks[2].App
	beThreads := sc.Tasks[2].ThreadCount()
	var out []*metrics.Table
	rn := ctx.runner()
	grid := ctx.gridLoads()
	for _, pair := range sc.MustTupleAxis().Tuples() {
		t := &metrics.Table{
			Title: fmt.Sprintf("Figure 15: %s + %s + iBench — max BE throughput (%%)",
				pair[0], pair[1]),
			Headers: append([]string{pair[0], pair[1]}, policies...),
		}
		for _, l1 := range grid {
			for _, l2 := range grid {
				lcs := []LCSpec{{App: pair[0], LoadPct: l1}, {App: pair[1], LoadPct: l2}}
				cells := []string{fmt.Sprintf("%d%%", l1), fmt.Sprintf("%d%%", l2)}
				for _, pol := range policies {
					v := rn.maxBE(mustMethod(pol), lcs, beApp, beThreads)
					cells = append(cells, fmt.Sprintf("%.0f", v*100))
				}
				t.AddRow(cells...)
			}
		}
		out = append(out, t)
	}
	return out, rn.err
}

// Fig16 — throughput of a single CloudSuite BE task (normalised to running
// alone on the same thread count) and average memory bandwidth, co-located
// with 2 LC tasks at 50% load.
func (ctx *Context) Fig16() (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Figure 16: CloudSuite BE throughput (norm) + avg bandwidth, 2 LC @40%",
		Headers: []string{"scenario", "method", "BE tput", "BW util", "QoS"},
	}
	if err := ctx.fig16Body(t, scenario.MustBuiltin("fig16")); err != nil {
		return nil, err
	}
	return t, nil
}

// fig16Body renders a fig16-shaped scenario (2 LC + 1 CloudSuite BE triples
// on a tuple axis). The BE task fills the cores the two LC tasks leave free,
// whatever the scenario declares.
func (ctx *Context) fig16Body(t *metrics.Table, sc *scenario.Scenario) error {
	rn := ctx.runner()
	policies := sc.MustAxis("policy").Strings()
	loads := [2]int{sc.Tasks[0].LoadPct, sc.Tasks[1].LoadPct}
	beThreads := ctx.Cfg.Cores - 2
	for _, tr := range sc.MustTupleAxis().Tuples() {
		lc1, lc2, be := tr[0], tr[1], tr[2]
		base := rn.beAlone(be, beThreads)
		for _, pol := range policies {
			mth := mustMethod(pol)
			r := rn.run(RunSpec{Method: mth,
				LCs: []LCSpec{{App: lc1, LoadPct: loads[0]}, {App: lc2, LoadPct: loads[1]}},
				BEs: []BESpec{{App: be, Threads: beThreads}}})
			t.AddRow(fmt.Sprintf("%s+%s/%s", lc1, lc2, be), mth.Name,
				fmt.Sprintf("%.2f", r.BEIPC/base),
				fmt.Sprintf("%.3f", r.BWUtil),
				qosMark(r))
		}
	}
	return rn.err
}

// Fig17 — 2 LC + 2 BE CloudSuite tasks: normalised throughput of the two BE
// tasks and average bandwidth.
func (ctx *Context) Fig17() (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Figure 17: 2 LC + 2 BE (CloudSuite) — BE throughput (norm) + bandwidth",
		Headers: []string{"scenario", "method", "BE tput", "BW util", "QoS"},
	}
	if err := ctx.fig17Body(t, scenario.MustBuiltin("fig17")); err != nil {
		return nil, err
	}
	return t, nil
}

// fig17Body renders a fig17-shaped scenario (2 LC + 2 CloudSuite BE quads on
// a tuple axis), splitting the free cores evenly between the two BE tasks.
func (ctx *Context) fig17Body(t *metrics.Table, sc *scenario.Scenario) error {
	rn := ctx.runner()
	policies := sc.MustAxis("policy").Strings()
	loads := [2]int{sc.Tasks[0].LoadPct, sc.Tasks[1].LoadPct}
	per := (ctx.Cfg.Cores - 2) / 2
	for _, qd := range sc.MustTupleAxis().Tuples() {
		lc1, lc2, be1, be2 := qd[0], qd[1], qd[2], qd[3]
		base := rn.beAlone(be1, per) + rn.beAlone(be2, per)
		for _, pol := range policies {
			mth := mustMethod(pol)
			r := rn.run(RunSpec{Method: mth,
				LCs: []LCSpec{{App: lc1, LoadPct: loads[0]}, {App: lc2, LoadPct: loads[1]}},
				BEs: []BESpec{{App: be1, Threads: per}, {App: be2, Threads: per}}})
			t.AddRow(fmt.Sprintf("%s+%s/%s+%s", lc1, lc2, be1, be2), mth.Name,
				fmt.Sprintf("%.2f", r.BEIPC/base),
				fmt.Sprintf("%.3f", r.BWUtil),
				qosMark(r))
		}
	}
	return rn.err
}

func qosMark(r RunResult) string {
	if r.AllQoS {
		return "met"
	}
	return "VIOLATED"
}

// Fig18 — 2-LC co-location frontier: with the first task at a given load,
// the maximum load (% of max) the second task can run at with both meeting
// QoS.
func (ctx *Context) Fig18() ([]*metrics.Table, error) {
	sc := scenario.MustBuiltin("fig18")
	policies := sc.MustAxis("policy").Strings()
	var out []*metrics.Table
	rn := ctx.runner()
	for _, pair := range sc.MustTupleAxis().Tuples() {
		t := &metrics.Table{
			Title:   fmt.Sprintf("Figure 18: max %s load (%%) vs %s load", pair[1], pair[0]),
			Headers: append([]string{pair[0] + " load"}, policies...),
		}
		for _, l1 := range ctx.gridLoads() {
			cells := []string{fmt.Sprintf("%d%%", l1)}
			for _, pol := range policies {
				cells = append(cells, fmt.Sprintf("%d", rn.maxSecondLoad(mustMethod(pol), pair[0], l1, pair[1])))
			}
			t.AddRow(cells...)
		}
		out = append(out, t)
	}
	return out, rn.err
}

// maxSecondLoad sweeps the second LC task's load downward (100%..10%) and
// returns the highest percentage at which both tasks meet QoS (0 if none).
func (rn *runner) maxSecondLoad(mth Method, app1 string, load1 int, app2 string) int {
	for l2 := 100; l2 >= 10; l2 -= 15 {
		if rn.err != nil {
			return 0
		}
		r := rn.run(RunSpec{Method: mth,
			LCs: []LCSpec{{App: app1, LoadPct: load1}, {App: app2, LoadPct: l2}}})
		if r.AllQoS {
			return l2
		}
	}
	return 0
}

// Fig19 — 3-LC co-location: the (Xapian, Masstree) frontier with Img-DNN at
// low (10%) and high (70%) load.
func (ctx *Context) Fig19() (*metrics.Table, error) {
	sc := scenario.MustBuiltin("fig19")
	policies := sc.MustAxis("policy").Strings()
	xapian, masstree, imgdnn := sc.Tasks[0].App, sc.Tasks[1].App, sc.Tasks[2].App
	t := &metrics.Table{
		Title:   "Figure 19: max Masstree load (%) vs Xapian load, with Img-DNN",
		Headers: append([]string{"imgdnn", "xapian"}, policies...),
	}
	rn := ctx.runner()
	for _, imgLoad := range sc.MustAxis("tasks[2].load_pct").Ints() {
		for _, xpLoad := range ctx.gridLoads() {
			cells := []string{fmt.Sprintf("%d%%", imgLoad), fmt.Sprintf("%d%%", xpLoad)}
			for _, pol := range policies {
				best := 0
				for l := 100; l >= 10 && rn.err == nil; l -= 15 {
					r := rn.run(RunSpec{Method: mustMethod(pol), LCs: []LCSpec{
						{App: xapian, LoadPct: xpLoad},
						{App: masstree, LoadPct: l},
						{App: imgdnn, LoadPct: imgLoad},
					}})
					if r.AllQoS {
						best = l
						break
					}
				}
				cells = append(cells, fmt.Sprint(best))
			}
			t.AddRow(cells...)
		}
	}
	return t, rn.err
}
