// Package pivot holds the repository's whole-simulator benchmarks and no
// code: runs are described by the builtin scenarios and the two CLIs,
// cmd/pivotsim and cmd/pivot-exp.
//
// BenchmarkBuiltinScenarios runs the first run unit of every builtin figure
// scenario the way its figure does (SpecForUnit, then RunBestMBA) at a
// reduced scale, so `go test -bench=.` exercises each figure's machinery in
// minutes and reports its headline quantities via b.ReportMetric; run
// `cmd/pivot-exp` for the full tables. The remaining benchmarks cover the
// static tables and the simulator's hot paths.
package pivot

import (
	"sync"
	"testing"

	"pivot/internal/exp"
	"pivot/internal/machine"
	"pivot/internal/metrics"
	"pivot/internal/scenario"
	"pivot/internal/workload"
)

func mustTable(t *metrics.Table, err error) *metrics.Table {
	if err != nil {
		panic(err)
	}
	return t
}

var (
	benchOnce sync.Once
	benchCtx  *exp.Context
)

// benchContext returns the shared harness context at bench scale (4 cores,
// short runs); calibrations and potential sets stay cached across benchmarks.
func benchContext(b *testing.B) *exp.Context {
	b.Helper()
	benchOnce.Do(func() {
		s := exp.Quick()
		s.Warmup = 150_000
		s.Measure = 200_000
		s.CalMeasure = 120_000
		s.LoadFracs = []float64{0.2, 0.6}
		s.MaxBEThreads = 3
		benchCtx = exp.NewContext(machine.KunpengConfig(4), s)
	})
	return benchCtx
}

func BenchmarkBuiltinScenarios(b *testing.B) {
	ctx := benchContext(b)
	resolve := ctx.UnitResolver()
	for _, id := range scenario.BuiltinIDs() {
		if id == "fig8" || id == "fig12" {
			continue // these profile and calibrate; they run no co-location
		}
		b.Run(id, func(b *testing.B) {
			u := scenario.MustBuiltin(id).MustExpand()[0]
			uctx := resolve(u)
			spec, err := uctx.SpecForUnit(u)
			if err != nil {
				b.Fatal(err)
			}
			// One untimed run fills the calibration and potential-set caches.
			r, _, err := uctx.RunBestMBA(spec)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r, _, err = uctx.RunBestMBA(spec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.P95[0]), "p95-cycles")
			b.ReportMetric(r.BEIPC, "be-ipc")
			b.ReportMetric(r.BWUtil, "bw-util")
		})
	}
}

// --- Tables ------------------------------------------------------------------

func BenchmarkTable1Workloads(b *testing.B) {
	ctx := benchContext(b)
	for i := 0; i < b.N; i++ {
		_ = mustTable(ctx.Table1()).String()
	}
}

func BenchmarkTable2KunpengConfig(b *testing.B) {
	ctx := benchContext(b)
	for i := 0; i < b.N; i++ {
		_ = mustTable(ctx.Table2()).String()
	}
}

// --- Micro-benchmarks of the hot simulation paths ---------------------------

func BenchmarkSimulatorCyclesPerSecond(b *testing.B) {
	benchCyclesPerSecond(b, machine.KunpengConfig(4), machine.PolicyDefault, fig1Mix())
}

// BenchmarkSimulatorCyclesPerSecondPIVOT runs the same mix under PIVOT, so
// the MPAM-ranked scheduling at every MSC (and its memos) is on the clock.
func BenchmarkSimulatorCyclesPerSecondPIVOT(b *testing.B) {
	benchCyclesPerSecond(b, machine.KunpengConfig(4), machine.PolicyPIVOT, fig1Mix())
}

// BenchmarkSimulatorCyclesPerSecondIdle runs Masstree alone on the 8-core
// config at one request per 20k cycles: most cycles are idle, so the
// engine's cached forecasts and clock jumps, not the components, set the
// rate.
func BenchmarkSimulatorCyclesPerSecondIdle(b *testing.B) {
	benchCyclesPerSecond(b, machine.KunpengConfig(8), machine.PolicyDefault, []machine.TaskSpec{
		{Kind: machine.TaskLC, LC: workload.LCApps()[workload.Masstree], MeanInterarrival: 20_000, Seed: 1},
	})
}

// fig1Mix is the Fig-1 co-location: 1 LC Silo + 3 BE iBench.
func fig1Mix() []machine.TaskSpec {
	return []machine.TaskSpec{
		{Kind: machine.TaskLC, LC: workload.LCApps()[workload.Silo], MeanInterarrival: 5000, Seed: 1},
		{Kind: machine.TaskBE, BE: workload.BEApps()[workload.IBench], Seed: 11},
		{Kind: machine.TaskBE, BE: workload.BEApps()[workload.IBench], Seed: 12},
		{Kind: machine.TaskBE, BE: workload.BEApps()[workload.IBench], Seed: 13},
	}
}

// benchCyclesPerSecond steps tasks on cfg under policy in 10,000-cycle
// granules.
func benchCyclesPerSecond(b *testing.B, cfg machine.Config, policy machine.Policy, tasks []machine.TaskSpec) {
	m := machine.MustNew(cfg, machine.Options{Policy: policy}, tasks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Engine.Step(10_000)
	}
	b.ReportMetric(10_000*float64(b.N)/b.Elapsed().Seconds(), "sim-cycles/s")
}

func BenchmarkOfflineProfiling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		machine.ProfileLC(machine.KunpengConfig(4), workload.LCApps()[workload.Silo], 3, 1)
	}
}
