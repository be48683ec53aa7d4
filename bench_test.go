package pivot

// BenchmarkBuiltinScenarios runs the first run unit of every builtin figure
// scenario the way its figure does (SpecForUnit, then RunBestMBA) at a
// reduced scale, so `go test -bench=.` exercises each figure's machinery in
// minutes and reports its headline quantities via b.ReportMetric; run
// `cmd/pivot-exp` for the full tables. The remaining benchmarks cover the
// static tables and the simulator's hot paths.

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

func BenchmarkStorageBudget(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		total = DefaultStorageBudget().Total()
	}
	b.ReportMetric(float64(total), "bits")
}

// --- Micro-benchmarks of the hot simulation paths ---------------------------

func BenchmarkSimulatorCyclesPerSecond(b *testing.B) {
	benchCyclesPerSecond(b, machine.PolicyDefault)
}

// BenchmarkSimulatorCyclesPerSecondPIVOT runs the same mix under PIVOT, so
// the MPAM-ranked scheduling at every MSC (and its memos) is on the clock.
func BenchmarkSimulatorCyclesPerSecondPIVOT(b *testing.B) {
	benchCyclesPerSecond(b, machine.PolicyPIVOT)
}

// benchCyclesPerSecond steps the Fig-1 mix (1 LC Silo + 3 BE iBench on the
// 4-core Kunpeng config) under policy in 10,000-cycle granules.
func benchCyclesPerSecond(b *testing.B, policy machine.Policy) {
	tasks := []machine.TaskSpec{
		{Kind: machine.TaskLC, LC: workload.LCApps()[workload.Silo], MeanInterarrival: 5000, Seed: 1},
		{Kind: machine.TaskBE, BE: workload.BEApps()[workload.IBench], Seed: 11},
		{Kind: machine.TaskBE, BE: workload.BEApps()[workload.IBench], Seed: 12},
		{Kind: machine.TaskBE, BE: workload.BEApps()[workload.IBench], Seed: 13},
	}
	m := machine.MustNew(machine.KunpengConfig(4), machine.Options{Policy: policy}, tasks)
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
