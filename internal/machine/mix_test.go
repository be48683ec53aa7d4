package machine

import (
	"testing"

	"pivot/internal/profile"
	"pivot/internal/sim"
	"pivot/internal/workload"
)

// mixCase is one workload mix for the differential tests. The three cases
// cover disjoint state surfaces: the plain machine, the PIVOT path (RRBP
// table + MSC priority stations), and the CBP path with the profiler, the
// prefetcher and the stats framework all enabled.
type mixCase struct {
	name  string
	opt   Options
	tasks []TaskSpec
	stats bool // EnableStats before running
}

func mixCases() []mixCase {
	masstree := workload.LCApps()[workload.Masstree]
	potential := profile.CriticalSet{}
	for _, pc := range workload.NewReqGen(masstree, 0, nil).ChasePCs() {
		potential[pc] = true
	}
	pivotLC := lcTask(workload.Masstree, 4000)
	pivotLC.Potential = potential

	return []mixCase{
		{
			name:  "default-silo-ibench",
			opt:   Options{Policy: PolicyDefault},
			tasks: append([]TaskSpec{lcTask(workload.Silo, 5000)}, beTasks(workload.IBench, 3)...),
		},
		{
			name:  "pivot-masstree-graph",
			opt:   Options{Policy: PolicyPIVOT},
			tasks: append([]TaskSpec{pivotLC}, beTasks(workload.GraphAn, 3)...),
		},
		{
			name:  "cbp-xapian-data-instrumented",
			opt:   Options{Policy: PolicyCBP, Profile: true, Prefetch: true},
			tasks: append([]TaskSpec{lcTask(workload.Xapian, 3000)}, beTasks(workload.DataAn, 3)...),
			stats: true,
		},
	}
}

// build builds the mix's machine on the skip-ahead engine.
func (tc mixCase) build(t *testing.T) *Machine { return tc.buildMode(t, false) }

// buildMode builds the mix's machine forced into the given stepping mode.
func (tc mixCase) buildMode(t *testing.T, dense bool) *Machine {
	t.Helper()
	opt := tc.opt
	opt.Dense = dense
	m, err := New(KunpengConfig(4), opt, tc.tasks)
	if err != nil {
		t.Fatalf("%s: New: %v", tc.name, err)
	}
	if tc.stats {
		m.EnableStats(5_000, 0)
	}
	return m
}

// stateBytes is StateBytes, failing the test on an encoding error.
func stateBytes(t *testing.T, m *Machine) []byte {
	t.Helper()
	b, err := m.StateBytes()
	if err != nil {
		t.Fatalf("StateBytes: %v", err)
	}
	return b
}

const (
	mixWarmup  sim.Cycle = 40_000
	mixMeasure sim.Cycle = 60_000
)
