package machine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pivot/internal/bwctrl"
	"pivot/internal/checkpoint"
	"pivot/internal/mem"
	"pivot/internal/profile"
	"pivot/internal/sim"
	"pivot/internal/workload"
)

// ckptCase is one workload mix for the checkpoint determinism proof. The
// three cases cover disjoint state surfaces: the plain machine, the PIVOT
// path (RRBP table + MSC priority stations), and the CBP path with the
// profiler, the prefetcher and the stats framework all enabled.
type ckptCase struct {
	name  string
	opt   Options
	tasks []TaskSpec
	stats bool // EnableStats before running
}

func ckptCases() []ckptCase {
	masstree := workload.LCApps()[workload.Masstree]
	potential := profile.CriticalSet{}
	for _, pc := range workload.NewReqGen(masstree, 0, nil).ChasePCs() {
		potential[pc] = true
	}
	pivotLC := lcTask(workload.Masstree, 4000)
	pivotLC.Potential = potential

	return []ckptCase{
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

func (tc ckptCase) build(t *testing.T) *Machine {
	t.Helper()
	m, err := New(KunpengConfig(4), tc.opt, tc.tasks)
	if err != nil {
		t.Fatalf("%s: New: %v", tc.name, err)
	}
	if tc.stats {
		m.EnableStats(5_000, 0)
	}
	return m
}

// stateBytes serialises the machine's full state exactly as a checkpoint
// payload would, so byte equality here is byte equality on disk.
func stateBytes(t *testing.T, m *Machine) []byte {
	t.Helper()
	s, err := m.SnapshotState()
	if err != nil {
		t.Fatalf("SnapshotState: %v", err)
	}
	b, err := encodeState(s)
	if err != nil {
		t.Fatalf("encodeState: %v", err)
	}
	return b
}

const (
	ckptWarmup   sim.Cycle = 40_000
	ckptMeasure  sim.Cycle = 60_000
	ckptInterval sim.Cycle = 16_000 // deliberately not dividing warmup or the end
)

// TestCheckpointingDoesNotPerturbResults is the tentpole's first proof
// obligation: a run that periodically writes checkpoints finishes in a state
// byte-identical to an uninterrupted run, for every workload mix.
func TestCheckpointingDoesNotPerturbResults(t *testing.T) {
	for _, tc := range ckptCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			ref := tc.build(t)
			if err := ref.RunChecked(ctx, ckptWarmup, ckptMeasure); err != nil {
				t.Fatalf("reference run: %v", err)
			}

			dir := t.TempDir()
			ck := tc.build(t)
			resumed, err := ck.RunCheckpointed(ctx, ckptWarmup, ckptMeasure,
				CheckpointConfig{Dir: dir, Interval: ckptInterval, Keep: 3})
			if err != nil {
				t.Fatalf("checkpointed run: %v", err)
			}
			if resumed != 0 {
				t.Fatalf("fresh run claims to have resumed from cycle %d", resumed)
			}

			if got, want := stateBytes(t, ck), stateBytes(t, ref); string(got) != string(want) {
				t.Errorf("final machine state differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
			}
			if ck.LCp95(0) != ref.LCp95(0) || ck.BECommitted() != ref.BECommitted() {
				t.Errorf("stats differ: p95 %d vs %d, BE %d vs %d",
					ck.LCp95(0), ref.LCp95(0), ck.BECommitted(), ref.BECommitted())
			}
			if ck.MeasuredCycles() != ref.MeasuredCycles() {
				t.Errorf("measured cycles differ: %d vs %d", ck.MeasuredCycles(), ref.MeasuredCycles())
			}
			entries, _ := os.ReadDir(dir)
			if len(entries) == 0 {
				t.Error("checkpointed run wrote no checkpoint files")
			}
		})
	}
}

// TestResumeAtWarmupBoundaryResetsStats pins the boundary case behind
// checkpoint migration: a periodic checkpoint whose interval divides the
// warm-up length lands exactly on the warm-up boundary, holding PRE-reset
// state (the write happens inside the warm-up stepping, before ResetStats).
// A resume from that frame must still reset statistics at the boundary, or
// the warm-up silently counts as measured.
func TestResumeAtWarmupBoundaryResetsStats(t *testing.T) {
	tc := ckptCases()[0]
	ctx := context.Background()

	ref := tc.build(t)
	if err := ref.RunChecked(ctx, ckptWarmup, ckptMeasure); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// Reproduce the on-disk situation: a frame at exactly the warm-up
	// boundary with statistics not yet reset.
	dir := t.TempDir()
	pre := tc.build(t)
	if err := pre.StepChecked(ctx, ckptWarmup); err != nil {
		t.Fatalf("warm-up step: %v", err)
	}
	if _, err := pre.WriteCheckpoint(dir, 2); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}

	res := tc.build(t)
	resumed, err := res.RunCheckpointed(ctx, ckptWarmup, ckptMeasure,
		CheckpointConfig{Dir: dir, Interval: ckptInterval})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if resumed != ckptWarmup {
		t.Fatalf("resumed from cycle %d, want the warm-up boundary %d", resumed, ckptWarmup)
	}
	if res.MeasuredCycles() != ref.MeasuredCycles() {
		t.Errorf("measured cycles = %d, want %d (warm-up leaked into the measured region)",
			res.MeasuredCycles(), ref.MeasuredCycles())
	}
	if got, want := stateBytes(t, res), stateBytes(t, ref); string(got) != string(want) {
		t.Error("final state differs from an uninterrupted run")
	}
}

// TestRestoreThenStepIsBitIdentical is the core restore contract:
// restore(snapshot(M)) into a fresh machine, then stepping both N cycles,
// yields byte-identical states — for every workload mix.
func TestRestoreThenStepIsBitIdentical(t *testing.T) {
	for _, tc := range ckptCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			a := tc.build(t)
			// An odd cycle count so the snapshot lands mid-flight, with loads
			// in the ROBs, misses in the MSHRs and requests in the stations.
			if err := a.StepChecked(ctx, 70_000); err != nil {
				t.Fatalf("step: %v", err)
			}
			s, err := a.SnapshotState()
			if err != nil {
				t.Fatalf("SnapshotState: %v", err)
			}
			payload, err := encodeState(s)
			if err != nil {
				t.Fatalf("encodeState: %v", err)
			}

			b := tc.build(t)
			restoredState, err := decodeState(payload)
			if err != nil {
				t.Fatalf("decodeState: %v", err)
			}
			if err := b.RestoreState(restoredState); err != nil {
				t.Fatalf("RestoreState: %v", err)
			}
			if got, want := stateBytes(t, b), stateBytes(t, a); string(got) != string(want) {
				t.Fatal("restored state differs before stepping")
			}

			if err := a.StepChecked(ctx, 45_000); err != nil {
				t.Fatalf("step original: %v", err)
			}
			if err := b.StepChecked(ctx, 45_000); err != nil {
				t.Fatalf("step restored: %v", err)
			}
			if got, want := stateBytes(t, b), stateBytes(t, a); string(got) != string(want) {
				t.Error("states diverged after stepping the restored machine")
			}
		})
	}
}

// TestResumeAcrossMPAMClassFlips checkpoints the PIVOT case mid-window and
// resumes it across bwctrl monitor-window rolls (every 100k cycles) that
// change BE classes, so restored ranked schedulers must re-rank against the
// restored classes and then follow a later flip exactly. The BE partitions
// fall from medium to low at the 100k roll; a resource-manager style
// reprogramming at 150k lifts one BE partition back to medium at the 200k
// roll. The run hops through a fresh machine at every checkpoint — all
// mid-window, on both sides of each flip — and must finish byte-identical
// to an uninterrupted run.
func TestResumeAcrossMPAMClassFlips(t *testing.T) {
	tc := ckptCases()[1]
	ctx := context.Background()
	const (
		reprogramAt sim.Cycle = 150_000
		end         sim.Cycle = 330_000
	)
	lifted := mem.PartID(len(tc.tasks) - 1) // a BE partition
	// stepTo runs m to cycle `to`, reprogramming the lifted partition's
	// allocation when it passes reprogramAt.
	stepTo := func(m *Machine, to sim.Cycle) {
		t.Helper()
		for _, stop := range []sim.Cycle{reprogramAt, to} {
			if now := m.Engine.Now(); now < stop && stop <= to {
				if err := m.StepChecked(ctx, stop-now); err != nil {
					t.Fatalf("step to %d: %v", stop, err)
				}
			}
			if m.Engine.Now() == reprogramAt {
				m.bw.SetAllocation(lifted, bwctrl.Allocation{Min: 0, Max: 1.0})
			}
		}
	}

	ref := tc.build(t)
	stepTo(ref, end)
	if got := ref.bw.WindowsDone(); got != 3 {
		t.Fatalf("reference crossed %d monitor windows, want 3", got)
	}
	if got := ref.bw.ClassOf(lifted); got != bwctrl.ClassMedium {
		t.Fatalf("lifted BE partition ends in class %v, want medium", got)
	}
	if got := ref.bw.ClassOf(lifted - 1); got != bwctrl.ClassLow {
		t.Fatalf("other BE partition ends in class %v, want low", got)
	}
	if got := ref.bw.RankGen(); got != 2 {
		t.Fatalf("reference saw %d class changes, want 2 (the 100k and 200k rolls)", got)
	}

	dir := t.TempDir()
	m := tc.build(t)
	for at := sim.Cycle(60_001); at < end; at += 3_001 {
		stepTo(m, at)
		if _, err := m.WriteCheckpoint(dir, 2); err != nil {
			t.Fatalf("WriteCheckpoint at %d: %v", at, err)
		}
		m = tc.build(t)
		if restored, from, err := m.TryRestore(dir); err != nil || !restored || from != at {
			t.Fatalf("TryRestore = (%v, %d, %v), want a restore at %d", restored, from, err, at)
		}
	}
	stepTo(m, end)
	if got, want := stateBytes(t, m), stateBytes(t, ref); string(got) != string(want) {
		t.Error("resumed final state differs from an uninterrupted run")
	}
}

// TestAbortFlushesAndResumeMatchesUninterrupted covers graceful shutdown:
// a run aborted mid-measure (cycle budget, standing in for SIGINT) flushes a
// final checkpoint; a fresh machine resuming from that directory finishes
// with state and whole-run statistics byte-identical to a run that was never
// interrupted.
func TestAbortFlushesAndResumeMatchesUninterrupted(t *testing.T) {
	tc := ckptCases()[0]
	ctx := context.Background()

	ref := tc.build(t)
	if err := ref.RunChecked(ctx, ckptWarmup, ckptMeasure); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	dir := t.TempDir()
	cc := CheckpointConfig{Dir: dir, Interval: ckptInterval, Keep: 3}

	interrupted := tc.build(t)
	interrupted.Opt.MaxCycles = 72_000 // mid-measure, off any interval boundary
	if _, err := interrupted.RunCheckpointed(ctx, ckptWarmup, ckptMeasure, cc); !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("interrupted run: err = %v, want cycle-budget abort", err)
	}

	resumedM := tc.build(t)
	resumed, err := resumedM.RunCheckpointed(ctx, ckptWarmup, ckptMeasure, cc)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if resumed < 72_000 {
		t.Fatalf("resumed from cycle %d, want the abort flush at >= 72000", resumed)
	}
	if got, want := stateBytes(t, resumedM), stateBytes(t, ref); string(got) != string(want) {
		t.Error("resumed final state differs from uninterrupted run")
	}
	// The restored run must report whole-run counters, not post-restore ones.
	if resumedM.MeasuredCycles() != ref.MeasuredCycles() {
		t.Errorf("measured cycles: %d vs %d", resumedM.MeasuredCycles(), ref.MeasuredCycles())
	}
	if resumedM.LCp95(0) != ref.LCp95(0) || resumedM.BECommitted() != ref.BECommitted() {
		t.Errorf("whole-run stats differ: p95 %d vs %d, BE %d vs %d",
			resumedM.LCp95(0), ref.LCp95(0), resumedM.BECommitted(), ref.BECommitted())
	}
}

// TestTryRestoreFallsBackPastCorruptAndUnusableFrames drives the recovery
// chain: a bit-flipped newest file (CRC) and a CRC-valid frame with garbage
// payload are both skipped in favour of the newest good checkpoint; with
// every frame corrupt, restore degrades to from-scratch.
func TestTryRestoreFallsBackPastCorruptAndUnusableFrames(t *testing.T) {
	tc := ckptCases()[0]
	ctx := context.Background()

	a := tc.build(t)
	dir := t.TempDir()
	// Step past several interval boundaries so multiple checkpoints exist.
	if err := a.stepCheckpointed(ctx, 50_000, CheckpointConfig{Dir: dir, Interval: 16_000, Keep: 10}); err != nil {
		t.Fatalf("stepCheckpointed: %v", err)
	}
	names, err := os.ReadDir(dir)
	if err != nil || len(names) < 3 {
		t.Fatalf("want >= 3 checkpoints, got %d (%v)", len(names), err)
	}

	// A CRC-valid frame with an undecodable payload, newer than everything:
	// TryRestore must discard it (removing the file) and fall back.
	junk := filepath.Join(dir, checkpoint.FileName(999_999))
	if _, err := checkpoint.Write(dir, checkpoint.Checkpoint{
		Cycle: 999_999, Fingerprint: a.Fingerprint(), Payload: []byte("not a gob stream"),
	}); err != nil {
		t.Fatal(err)
	}
	// And a bit-flipped (CRC-failing) frame between the junk and the good ones.
	goodAt48k := filepath.Join(dir, checkpoint.FileName(48_000))
	data, err := os.ReadFile(goodAt48k)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x01
	if err := os.WriteFile(filepath.Join(dir, checkpoint.FileName(500_000)), flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	b := tc.build(t)
	restored, from, err := b.TryRestore(dir)
	if err != nil || !restored {
		t.Fatalf("TryRestore = (%v, %d, %v), want restore from the newest good frame", restored, from, err)
	}
	if from != 48_000 {
		t.Errorf("restored from cycle %d, want 48000", from)
	}
	if _, err := os.Stat(junk); !os.IsNotExist(err) {
		t.Errorf("undecodable frame not removed: %v", err)
	}
	if got, want := stateBytes(t, b), payloadAt(t, goodAt48k); string(got) != string(want) {
		t.Error("restored state does not match the 48k checkpoint payload")
	}

	// Corrupt every remaining frame: from-scratch floor, machine untouched.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		p := filepath.Join(dir, e.Name())
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/3] ^= 0x40
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c := tc.build(t)
	before := stateBytes(t, c)
	restored, _, err = c.TryRestore(dir)
	if err != nil || restored {
		t.Fatalf("all-corrupt dir: TryRestore = (%v, %v), want clean from-scratch fallback", restored, err)
	}
	if string(stateBytes(t, c)) != string(before) {
		t.Error("failed restore mutated the machine")
	}
}

// payloadAt re-encodes the state stored in a checkpoint file, for comparing
// against a live machine's serialised state.
func payloadAt(t *testing.T, path string) []byte {
	t.Helper()
	ck, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return ck.Payload
}

// TestRestoreRejectsForeignGeometry: restoring a 4-core snapshot into an
// 8-core machine must fail cleanly, leaving the target machine untouched.
func TestRestoreRejectsForeignGeometry(t *testing.T) {
	tc := ckptCases()[0]
	a := tc.build(t)
	if err := a.StepChecked(context.Background(), 10_000); err != nil {
		t.Fatal(err)
	}
	s, err := a.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}

	tasks := append([]TaskSpec{lcTask(workload.Silo, 5000)}, beTasks(workload.IBench, 3)...)
	b := MustNew(KunpengConfig(8), Options{Policy: PolicyDefault}, tasks)
	before := stateBytes(t, b)
	if err := b.RestoreState(s); err == nil {
		t.Fatal("8-core machine accepted a 4-core snapshot")
	}
	if string(stateBytes(t, b)) != string(before) {
		t.Error("rejected restore still mutated the machine")
	}
}
