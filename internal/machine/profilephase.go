package machine

import (
	"pivot/internal/profile"
	"pivot/internal/sim"
	"pivot/internal/workload"
)

// ProfileCycles is the default length of the offline-profiling simulation.
// The paper profiles a 20-second workload at a 75× slowdown (~30 minutes);
// here the profiler is free, so the length only needs to cover the LC task's
// static loads with stable statistics.
const ProfileCycles sim.Cycle = 600_000

// ProfileLC runs PIVOT's offline profiling phase (§IV-B) for one LC
// application: the task runs closed-loop against stressThreads copies of the
// memory-copy stress workload while every load's execution count, LLC miss
// rate and ROB stall cycles are recorded; the potential-critical set is
// selected with the paper's default parameters.
func ProfileLC(cfg Config, app workload.LCParams, stressThreads int, seed uint64) profile.CriticalSet {
	return RunProfilerOpt(cfg, app, stressThreads, seed, ProfileCycles, Options{}).
		Select(profile.DefaultParams())
}

// RunProfilerOpt runs the offline phase for cycles under opt and returns the
// raw profiler, from which callers draw both the potential set and the
// Figure 8 CDF. opt carries the caller's engine settings (Dense); Policy
// and Profile are forced to the profiling configuration.
func RunProfilerOpt(cfg Config, app workload.LCParams, stressThreads int, seed uint64,
	cycles sim.Cycle, opt Options) *profile.Profiler {
	stress := workload.BEApps()[workload.StressCopy]
	tasks := []TaskSpec{{Kind: TaskLC, LC: app, MeanInterarrival: 0, Seed: seed}}
	for i := 0; i < stressThreads && len(tasks) < cfg.Cores; i++ {
		tasks = append(tasks, TaskSpec{Kind: TaskBE, BE: stress, Seed: seed + uint64(100+i)})
	}
	opt.Policy = PolicyDefault
	opt.Profile = true
	m := MustNew(cfg, opt, tasks)
	m.Run(cycles/6, cycles)
	return m.LCTasks()[0].Profiler
}
