package machine

import (
	"testing"

	"pivot/internal/sim"
	"pivot/internal/workload"
)

// TestRetirePathDoesNotAllocate is the regression test for the per-retire
// closure chain this PR removed: the retire observer is one struct allocated
// at machine construction, and invoking the hook — for the full PIVOT fan-out
// (profiler + potential-filtered RRBP) and for the CBP path — must not
// allocate per call.
func TestRetirePathDoesNotAllocate(t *testing.T) {
	for _, tc := range mixCases()[1:] { // pivot-masstree, cbp-xapian
		t.Run(tc.name, func(t *testing.T) {
			m := tc.build(t)
			lc := m.lcs[0]
			hook := m.retireHook(lc)
			if hook == nil {
				t.Fatal("no retire hook for an LC task with predictors attached")
			}
			pcs := []uint64{0x400, 0x408, 0x410, 0x418}
			long := m.Cfg.Core.LongStall
			// Warm one-time map growth inside the consumers, then demand a
			// zero-allocation steady state.
			for _, pc := range pcs {
				hook(pc, long+10, true)
				hook(pc, 1, false)
			}
			i := 0
			allocs := testing.AllocsPerRun(1000, func() {
				pc := pcs[i&3]
				i++
				hook(pc, long+sim.Cycle(i&7), i&1 == 0)
				hook(pc, 1, false)
			})
			if allocs != 0 {
				t.Fatalf("retire path allocates %.2f objects/op, want 0", allocs)
			}
		})
	}
}

// TestDisabledStatsHaveNoHotPathFootprint: without EnableStats, the machine
// must register no sampler ticker, keep the cached statsOn gate false, and
// build no instruments — so per-cycle and per-request paths pay only a single
// predictable-false branch.
func TestDisabledStatsHaveNoHotPathFootprint(t *testing.T) {
	tasks := append([]TaskSpec{lcTask(workload.Silo, 5000)}, beTasks(workload.IBench, 3)...)
	m := MustNew(KunpengConfig(4), Options{Policy: PolicyDefault}, tasks)
	if m.statsOn || m.StatsEnabled() || m.latDist != nil || m.sampler != nil {
		t.Fatal("stats machinery present before EnableStats")
	}
	m.Run(10_000, 20_000)
	if m.statsOn || m.latDist != nil {
		t.Fatal("running the machine materialised stats machinery")
	}

	on := MustNew(KunpengConfig(4), Options{Policy: PolicyDefault}, tasks)
	on.EnableStats(5_000, 0)
	if !on.statsOn || on.latDist == nil || on.sampler == nil {
		t.Fatal("EnableStats did not arm the cached gate")
	}
}

// benchStep measures steady-state machine stepping (the benchmark mix of
// BenchmarkSimulatorCyclesPerSecond) with or without the stats framework, so
// `go test -bench 'MachineStep' internal/machine` quantifies the
// instrumented-run overhead and shows disabled-stats runs pay none.
func benchStep(b *testing.B, stats bool) {
	tasks := append([]TaskSpec{lcTask(workload.Silo, 5000)}, beTasks(workload.IBench, 3)...)
	m := MustNew(KunpengConfig(4), Options{Policy: PolicyDefault}, tasks)
	if stats {
		m.EnableStats(DefaultStatsEpoch, 0)
	}
	m.Run(50_000, 0) // warm caches and queues
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Engine.Step(10_000)
	}
	b.StopTimer()
	cycles := float64(b.N) * 10_000
	b.ReportMetric(cycles/b.Elapsed().Seconds(), "sim-cycles/s")
}

func BenchmarkMachineStepStatsOff(b *testing.B) { benchStep(b, false) }
func BenchmarkMachineStepStatsOn(b *testing.B)  { benchStep(b, true) }
