package machine

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"pivot/internal/load"
	"pivot/internal/workload"
)

// shapedLCTask is an LC task exercising every load-model feature at once:
// Zipf skew, a repeating flat/spike/ramp/sine/off program, MMPP-2 bursts,
// and two activity windows with a mid-run gap (the tenant departs and
// returns).
func shapedLCTask() TaskSpec {
	t := lcTask(workload.Masstree, 3_000)
	t.Load = load.Spec{
		ZipfTheta: 0.8,
		Phases: []load.Phase{
			{Shape: load.ShapeFlat, Cycles: 10_000, Scale: 1},
			{Shape: load.ShapeFlat, Cycles: 3_000, Scale: 2.5},
			{Shape: load.ShapeRamp, Cycles: 6_000, Scale: 2.5, To: 0.8},
			{Shape: load.ShapeSine, Cycles: 12_000, Scale: 1, Amp: 0.4, Period: 6_000},
			{Shape: load.ShapeOff, Cycles: 2_000},
		},
		Repeat:  true,
		OnOff:   load.OnOff{OnMean: 7_000, OffMean: 3_000, OnScale: 1.2, OffScale: 0.5},
		Windows: []load.Window{{Until: 55_000}, {From: 62_000, Until: 1 << 40}},
	}
	return t
}

// statsJSON renders the machine's full stats dump (instruments + epoch
// series) as canonical JSON for byte comparison.
func statsJSON(t *testing.T, m *Machine) []byte {
	t.Helper()
	b, err := json.Marshal(m.StatsDump())
	if err != nil {
		t.Fatalf("marshal stats dump: %v", err)
	}
	return b
}

// TestStationaryShorthandEqualsNeutralLoadSpec pins the refactor's anchor
// property end to end at the machine level: a task declared with the
// historical MeanInterarrival shorthand and the same task carrying an
// explicit neutral load program (flat 1.0×, repeating — a shaped model that
// accepts every thinning candidate without an acceptance draw) produce
// byte-identical serialised state and byte-identical stats, because the
// neutral shaped path consumes the stationary model's exact RNG stream.
func TestStationaryShorthandEqualsNeutralLoadSpec(t *testing.T) {
	ctx := context.Background()
	build := func(neutral bool) *Machine {
		lc := lcTask(workload.Masstree, 3_000)
		if neutral {
			lc.Load = load.Spec{
				Phases: []load.Phase{{Shape: load.ShapeFlat, Cycles: 50_000, Scale: 1}},
				Repeat: true,
			}
		}
		tasks := append([]TaskSpec{lc}, beTasks(workload.IBench, 3)...)
		m, err := New(KunpengConfig(4), Options{Policy: PolicyPIVOT}, tasks)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		m.EnableStats(5_000, 0)
		return m
	}

	bare, neutral := build(false), build(true)
	if err := bare.RunChecked(ctx, 20_000, 40_000); err != nil {
		t.Fatalf("bare run: %v", err)
	}
	if err := neutral.RunChecked(ctx, 20_000, 40_000); err != nil {
		t.Fatalf("neutral run: %v", err)
	}
	if got, want := stateBytes(t, neutral), stateBytes(t, bare); string(got) != string(want) {
		t.Errorf("neutral-program state differs from stationary shorthand (%d vs %d bytes)", len(got), len(want))
	}
	if got, want := statsJSON(t, neutral), statsJSON(t, bare); string(got) != string(want) {
		t.Errorf("neutral-program stats differ from stationary shorthand")
	}
	if bare.LCp95(0) != neutral.LCp95(0) {
		t.Errorf("p95 differs: %d vs %d", neutral.LCp95(0), bare.LCp95(0))
	}
}

// TestShapedLoadEngineTriangle: a fully-shaped task must run byte-identically
// under the dense per-cycle loop and quiescence-aware skip-ahead — the
// contract that makes load shapes usable with either tick loop. Serialised
// state and the sampled stats series must both match.
func TestShapedLoadEngineTriangle(t *testing.T) {
	ctx := context.Background()
	tasks := append([]TaskSpec{shapedLCTask()}, beTasks(workload.IBench, 3)...)
	run := func(opt Options) *Machine {
		opt.Policy = PolicyPIVOT
		m, err := New(KunpengConfig(4), opt, tasks)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		m.EnableStats(5_000, 0)
		if err := m.RunChecked(ctx, 20_000, 50_000); err != nil {
			t.Fatalf("run (%+v): %v", opt, err)
		}
		return m
	}

	dense := run(Options{Dense: true})
	skip := run(Options{})
	if got, want := stateBytes(t, skip), stateBytes(t, dense); string(got) != string(want) {
		t.Errorf("skip-ahead state differs from dense (%d vs %d bytes)", len(got), len(want))
	}
	if string(statsJSON(t, skip)) != string(statsJSON(t, dense)) {
		t.Error("skip-ahead stats differ from dense")
	}

	// The run crossed the first window's close and the second's open, so the
	// churn path genuinely executed: some requests completed, and fewer than
	// a churn-free run would have seen.
	if done := dense.LCTasks()[0].Source.Completed(); done == 0 {
		t.Fatalf("shaped task completed no requests; windows swallowed the run")
	}
}

// TestChurnKillAndResume: a tenant that departs and returns mid-run must
// survive an abort-and-resume across its churn boundary bit-identically —
// the model's modulator cursor and window position are part of the
// checkpoint.
func TestChurnKillAndResume(t *testing.T) {
	ctx := context.Background()
	tasks := append([]TaskSpec{shapedLCTask()}, beTasks(workload.IBench, 3)...)
	build := func() *Machine {
		m, err := New(KunpengConfig(4), Options{Policy: PolicyPIVOT}, tasks)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return m
	}

	ref := build()
	if err := ref.RunChecked(ctx, 20_000, 50_000); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	dir := t.TempDir()
	cc := CheckpointConfig{Dir: dir, Interval: 16_000, Keep: 3}
	interrupted := build()
	// Abort inside the window gap (the tenant is departed at 58k), so the
	// resume leg re-enters through the second window's open.
	interrupted.Opt.MaxCycles = 58_000
	if _, err := interrupted.RunCheckpointed(ctx, 20_000, 50_000, cc); !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("interrupted run: err = %v, want cycle-budget abort", err)
	}

	resumedM := build()
	resumed, err := resumedM.RunCheckpointed(ctx, 20_000, 50_000, cc)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if resumed < 58_000 {
		t.Fatalf("resumed from cycle %d, want the abort flush at >= 58000", resumed)
	}
	if got, want := stateBytes(t, resumedM), stateBytes(t, ref); string(got) != string(want) {
		t.Error("resumed final state differs from uninterrupted run")
	}
	if resumedM.LCp95(0) != ref.LCp95(0) || resumedM.BECommitted() != ref.BECommitted() {
		t.Errorf("whole-run stats differ: p95 %d vs %d, BE %d vs %d",
			resumedM.LCp95(0), ref.LCp95(0), resumedM.BECommitted(), ref.BECommitted())
	}
}
