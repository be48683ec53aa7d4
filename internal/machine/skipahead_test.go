package machine

import (
	"bytes"
	"context"
	"errors"
	"os"
	"testing"

	"pivot/internal/mem"
	"pivot/internal/sim"
	"pivot/internal/workload"
)

// buildMode builds a ckptCase machine forced into the given stepping mode.
func (tc ckptCase) buildMode(t *testing.T, dense bool) *Machine {
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

// TestSkipAheadEquivalence is the tentpole's central proof obligation: for
// every workload mix, a skip-ahead run and a -dense run finish with
// byte-identical serialised machine state, byte-identical result-snapshot
// JSON, byte-identical stats-framework dumps (where enabled), and the same
// checkpoint fingerprint. The dense loop is the trusted oracle.
func TestSkipAheadEquivalence(t *testing.T) {
	for _, tc := range ckptCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dense := tc.buildMode(t, true)
			skip := tc.buildMode(t, false)
			if dense.Engine.Dense() == skip.Engine.Dense() {
				t.Fatal("modes not actually distinct")
			}
			if err := dense.RunChecked(ctx, ckptWarmup, ckptMeasure); err != nil {
				t.Fatalf("dense run: %v", err)
			}
			if err := skip.RunChecked(ctx, ckptWarmup, ckptMeasure); err != nil {
				t.Fatalf("skip run: %v", err)
			}

			if got, ref := stateBytes(t, skip), stateBytes(t, dense); !bytes.Equal(got, ref) {
				t.Errorf("skip: serialised machine state differs (%d vs %d bytes)", len(got), len(ref))
			}
			if skip.Fingerprint() != dense.Fingerprint() {
				t.Errorf("checkpoint fingerprints differ: skip %#x, dense %#x",
					skip.Fingerprint(), dense.Fingerprint())
			}
			if !bytes.Equal(snapshotJSON(t, skip), snapshotJSON(t, dense)) {
				t.Error("skip: result-snapshot JSON differs from dense")
			}
			if tc.stats && !bytes.Equal(statsJSON(t, skip), statsJSON(t, dense)) {
				t.Error("skip: stats-framework dump differs from dense")
			}
			if skip.MeasuredCycles() != dense.MeasuredCycles() {
				t.Errorf("measured cycles: skip %d, dense %d",
					skip.MeasuredCycles(), dense.MeasuredCycles())
			}
		})
	}
}

// snapshotJSON renders a machine's result snapshot.
func snapshotJSON(t *testing.T, m *Machine) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := m.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestSkipAheadEquivalenceIdleHeavy covers the regime skip-ahead exists for:
// a lightly loaded LC with no BE neighbours spends most cycles with every
// component quiescent, so the engine takes large global jumps — and must
// still be byte-identical to the dense reference.
func TestSkipAheadEquivalenceIdleHeavy(t *testing.T) {
	mk := func(opt Options) *Machine {
		opt.Policy = PolicyDefault
		return MustNew(KunpengConfig(4), opt,
			[]TaskSpec{lcTask(workload.Silo, 60_000)})
	}
	d, s := mk(Options{Dense: true}), mk(Options{})
	d.Run(50_000, 150_000)
	s.Run(50_000, 150_000)
	if got, ref := stateBytes(t, s), stateBytes(t, d); !bytes.Equal(got, ref) {
		t.Errorf("idle-heavy skip state differs (%d vs %d bytes)", len(got), len(ref))
	}
	if s.LCp95(0) != d.LCp95(0) || s.Cores[0].Stats.IdleCycles != d.Cores[0].Stats.IdleCycles {
		t.Errorf("idle-heavy stats differ: p95 %d vs %d, idle %d vs %d",
			s.LCp95(0), d.LCp95(0), s.Cores[0].Stats.IdleCycles, d.Cores[0].Stats.IdleCycles)
	}
}

// TestThrottleIdleEquivalence targets the MBA quiescence fix: ports whose
// heads are held by the bandwidth throttle used to pin the machine dense
// (the aux ticker reported "work now" the whole time); the throttle now
// reports its real next-release cycle so skip-ahead elides throttled
// intervals — and must still match dense byte-for-byte, including the
// Delayed compensation counter.
func TestThrottleIdleEquivalence(t *testing.T) {
	mk := func(opt Options) *Machine {
		opt.Policy = PolicyDefault
		m := MustNew(KunpengConfig(4), opt,
			append([]TaskSpec{lcTask(workload.Silo, 2000)}, beTasks(workload.IBench, 3)...))
		for core := 1; core < 4; core++ {
			m.MBA().SetLevel(mem.PartID(core), 2) // floor: ~50x TBurst between grants
		}
		return m
	}
	d, s := mk(Options{Dense: true}), mk(Options{})
	d.Run(10_000, 90_000)
	s.Run(10_000, 90_000)
	if d.MBA().Delayed == 0 {
		t.Fatal("throttle never held a request; test exercises nothing")
	}
	if got, ref := stateBytes(t, s), stateBytes(t, d); !bytes.Equal(got, ref) {
		t.Errorf("throttled skip state differs (%d vs %d bytes)", len(got), len(ref))
	}
	if s.MBA().Delayed != d.MBA().Delayed {
		t.Errorf("throttle Delayed counters differ: dense %d, skip %d", d.MBA().Delayed, s.MBA().Delayed)
	}
	if s.BECommitted() != d.BECommitted() {
		t.Errorf("BE committed differ: dense %d, skip %d", d.BECommitted(), s.BECommitted())
	}
}

// flaky is a deterministic counter-driven mem.Fault: its decisions depend
// only on how many times each hook ran, and faulted stations pin themselves
// dense, so dense and skip-ahead runs present it the identical call sequence.
type flaky struct{ drops, spikes, holds uint64 }

func (f *flaky) DropAccept(sim.Cycle) bool { f.drops++; return f.drops%97 == 0 }
func (f *flaky) ExtraLatency(sim.Cycle) sim.Cycle {
	f.spikes++
	if f.spikes%41 == 0 {
		return 7
	}
	return 0
}
func (f *flaky) HoldGrant(sim.Cycle) bool { f.holds++; return f.holds%61 == 0 }

// TestFaultInjectedEquivalence: fault injection perturbs admission, latency
// and arbitration on all four MSC stations, and a skip-ahead run must still
// match dense byte-for-byte: the faulted stations stay dense while the cores
// and plumbing around them keep skipping. Faults are detached before
// snapshotting (fault state lives outside the snapshot surface, which is why
// faulted runs refuse checkpointing).
func TestFaultInjectedEquivalence(t *testing.T) {
	tc := ckptCases()[0]
	ctx := context.Background()
	run := func(m *Machine) *Machine {
		t.Helper()
		for _, comp := range mem.MSCs {
			if err := m.SetFault(comp, &flaky{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.RunChecked(ctx, ckptWarmup, ckptMeasure); err != nil {
			t.Fatalf("faulted run: %v", err)
		}
		for _, comp := range mem.MSCs {
			if err := m.SetFault(comp, nil); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	dense := run(tc.buildMode(t, true))
	skip := run(tc.buildMode(t, false))
	if got, want := stateBytes(t, skip), stateBytes(t, dense); !bytes.Equal(got, want) {
		t.Error("fault-injected skip-ahead state differs from dense")
	}
	if !bytes.Equal(snapshotJSON(t, skip), snapshotJSON(t, dense)) {
		t.Error("fault-injected result snapshots differ")
	}
}

// TestSkipAheadEquivalenceKillResume proves crash-safety under skip-ahead: a
// skip-ahead run killed mid-measure (cycle budget standing in for SIGKILL)
// and resumed by a second skip-ahead process finishes byte-identical to a
// dense run that was never interrupted.
func TestSkipAheadEquivalenceKillResume(t *testing.T) {
	tc := ckptCases()[0]
	ctx := context.Background()

	ref := tc.buildMode(t, true)
	if err := ref.RunChecked(ctx, ckptWarmup, ckptMeasure); err != nil {
		t.Fatalf("dense reference: %v", err)
	}

	dir := t.TempDir()
	cc := CheckpointConfig{Dir: dir, Interval: ckptInterval, Keep: 3}

	killed := tc.buildMode(t, false)
	killed.Opt.MaxCycles = 72_000 // mid-measure, off any interval boundary
	if _, err := killed.RunCheckpointed(ctx, ckptWarmup, ckptMeasure, cc); !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("killed run: err = %v, want cycle-budget abort", err)
	}

	resumed := tc.buildMode(t, false)
	from, err := resumed.RunCheckpointed(ctx, ckptWarmup, ckptMeasure, cc)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if from < 72_000 {
		t.Fatalf("resumed from cycle %d, want the abort flush at >= 72000", from)
	}
	if got, want := stateBytes(t, resumed), stateBytes(t, ref); !bytes.Equal(got, want) {
		t.Error("skip-ahead kill-and-resume final state differs from uninterrupted dense run")
	}
	if resumed.LCp95(0) != ref.LCp95(0) || resumed.BECommitted() != ref.BECommitted() {
		t.Errorf("whole-run stats differ: p95 %d vs %d, BE %d vs %d",
			resumed.LCp95(0), ref.LCp95(0), resumed.BECommitted(), ref.BECommitted())
	}
}

// TestSkipAheadCheckpointBoundaries: skip-ahead must pause at exactly the
// same absolute checkpoint boundaries as dense stepping, even in an
// idle-heavy run whose engine jumps would otherwise sail past them. The two
// modes must write the same set of checkpoint files, cycle-stamped at exact
// interval multiples, with identical payload bytes.
func TestSkipAheadCheckpointBoundaries(t *testing.T) {
	ctx := context.Background()
	// One lightly loaded LC: long quiescent stretches around each boundary.
	mk := func(dense bool) *Machine {
		return MustNew(KunpengConfig(4),
			Options{Policy: PolicyDefault, Dense: dense},
			[]TaskSpec{lcTask(workload.Silo, 60_000)})
	}
	const interval sim.Cycle = 16_000

	runDir := func(m *Machine) string {
		dir := t.TempDir()
		if err := m.stepCheckpointed(ctx, 100_000, CheckpointConfig{Dir: dir, Interval: interval, Keep: 100}); err != nil {
			t.Fatalf("stepCheckpointed: %v", err)
		}
		return dir
	}
	dDir, sDir := runDir(mk(true)), runDir(mk(false))

	list := func(dir string) []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	dNames, sNames := list(dDir), list(sDir)
	if len(sNames) != len(dNames) || len(sNames) != int(100_000/interval) {
		t.Fatalf("checkpoint counts differ: skip %d, dense %d, want %d",
			len(sNames), len(dNames), 100_000/interval)
	}
	for i := range dNames {
		if sNames[i] != dNames[i] {
			t.Fatalf("checkpoint file %d differs: %s vs %s", i, sNames[i], dNames[i])
		}
		got, want := payloadAt(t, sDir+"/"+sNames[i]), payloadAt(t, dDir+"/"+dNames[i])
		if !bytes.Equal(got, want) {
			t.Errorf("checkpoint %s payload differs between modes", sNames[i])
		}
	}
}
