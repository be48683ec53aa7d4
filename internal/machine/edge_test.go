package machine

import (
	"testing"

	"pivot/internal/profile"
	"pivot/internal/workload"
)

// Edge and failure-injection cases: degenerate task mixes and configuration
// corners the experiment harness never produces but a library user can.

func TestSingleCoreMachine(t *testing.T) {
	m := MustNew(KunpengConfig(1), Options{Policy: PolicyPIVOT},
		[]TaskSpec{lcTask(workload.Silo, 4000)})
	m.Run(100_000, 200_000)
	if m.LCTasks()[0].Source.Completed() == 0 {
		t.Fatal("single-core machine completed nothing")
	}
}

func TestBEOnlyMachine(t *testing.T) {
	m := MustNew(KunpengConfig(4), Options{Policy: PolicyPIVOT}, beTasks(workload.IBench, 4))
	m.Run(50_000, 100_000)
	if len(m.LCTasks()) != 0 {
		t.Fatal("phantom LC tasks")
	}
	if m.BECommitted() == 0 {
		t.Fatal("BE-only machine made no progress")
	}
	if m.BWUtil() <= 0 {
		t.Fatal("no bandwidth measured")
	}
}

func TestEmptyMachineRuns(t *testing.T) {
	m := MustNew(KunpengConfig(2), Options{Policy: PolicyDefault}, nil)
	m.Run(10_000, 10_000) // must simply not panic or hang
	if m.BECommitted() != 0 {
		t.Fatal("empty machine committed instructions")
	}
}

func TestPIVOTWithEmptyPotentialSet(t *testing.T) {
	// An empty (non-nil) potential set means no load ever carries the
	// potential bit: PIVOT degenerates to MPAM-with-queues but must still
	// run and complete requests.
	tasks := []TaskSpec{{
		Kind: TaskLC, LC: workload.LCApps()[workload.Masstree],
		MeanInterarrival: 5000, Seed: 1,
		Potential: profile.CriticalSet{},
	}}
	tasks = append(tasks, beTasks(workload.IBench, 3)...)
	m := MustNew(KunpengConfig(4), Options{Policy: PolicyPIVOT}, tasks)
	m.Run(100_000, 200_000)
	if m.LCTasks()[0].Source.Completed() == 0 {
		t.Fatal("no progress with empty potential set")
	}
	if m.DRAMStats().CritServed != 0 {
		t.Fatal("critical serves despite an empty potential set")
	}
}

func TestClosedLoopLCUnderPIVOT(t *testing.T) {
	tasks := []TaskSpec{{
		Kind: TaskLC, LC: workload.LCApps()[workload.Xapian],
		MeanInterarrival: 0, Seed: 1, // closed loop
	}}
	tasks = append(tasks, beTasks(workload.IBench, 3)...)
	m := MustNew(KunpengConfig(4), Options{Policy: PolicyPIVOT}, tasks)
	m.Run(100_000, 200_000)
	if m.LCTasks()[0].Source.Completed() == 0 {
		t.Fatal("closed-loop LC made no progress under contention")
	}
}

func TestCBPPolicies(t *testing.T) {
	for _, pol := range []Policy{PolicyCBP, PolicyCBPFullPath} {
		tasks := append([]TaskSpec{lcTask(workload.Moses, 5000)}, beTasks(workload.IBench, 3)...)
		m := MustNew(KunpengConfig(4), Options{Policy: pol}, tasks)
		m.Run(100_000, 200_000)
		lc := m.LCTasks()[0]
		if lc.CBP == nil {
			t.Fatalf("%v: no CBP predictor attached", pol)
		}
		if lc.RRBP != nil {
			t.Fatalf("%v: RRBP attached to a CBP policy", pol)
		}
		if lc.CBP.Lookups == 0 {
			t.Fatalf("%v: CBP never consulted", pol)
		}
		if lc.Source.Completed() == 0 {
			t.Fatalf("%v: no requests completed", pol)
		}
	}
}

func TestProfileModeAttachesProfiler(t *testing.T) {
	tasks := []TaskSpec{lcTask(workload.Silo, 0)}
	m := MustNew(KunpengConfig(2), Options{Policy: PolicyDefault, Profile: true}, tasks)
	m.Run(20_000, 100_000)
	prof := m.LCTasks()[0].Profiler
	if prof == nil || prof.SnapshotState().TotalLoads == 0 {
		t.Fatal("profiler not attached or saw no loads")
	}
}

func TestManagedPolicyKnobsLive(t *testing.T) {
	tasks := append([]TaskSpec{lcTask(workload.Silo, 5000)}, beTasks(workload.IBench, 2)...)
	m := MustNew(KunpengConfig(4), Options{Policy: PolicyManaged}, tasks)
	// Knobs must be adjustable mid-run without disturbing correctness.
	m.Engine.Step(50_000)
	m.MBA().SetLevel(1, 10)
	m.LLC().SetWayMask(1, 0b1)
	m.Engine.Step(50_000)
	if m.MBA().Level(1) != 10 {
		t.Fatal("MBA knob lost")
	}
	if m.LLC().WayMask(1) != 1 {
		t.Fatal("way mask knob lost")
	}
}

func TestRequestSampling(t *testing.T) {
	tasks := append([]TaskSpec{lcTask(workload.Masstree, 4000)}, beTasks(workload.IBench, 2)...)
	m := MustNew(KunpengConfig(4), Options{Policy: PolicyDefault, SampleRequests: 10}, tasks)
	m.Run(50_000, 150_000)
	recs := m.SampledRequests()
	if len(recs) == 0 || len(recs) > 10 {
		t.Fatalf("sampled %d records, want 1..10", len(recs))
	}
	for _, r := range recs {
		if r.TotalCycles() == 0 {
			t.Fatal("sampled record with no cycles")
		}
		if r.PC == 0 {
			t.Fatal("sampled record without a PC")
		}
	}
	// Sampling off by default.
	m2 := MustNew(KunpengConfig(4), Options{Policy: PolicyDefault}, tasks)
	m2.Run(50_000, 100_000)
	if len(m2.SampledRequests()) != 0 {
		t.Fatal("sampling active without being requested")
	}
}
