package machine

import (
	"bytes"
	"context"
	"errors"
	"os"
	"testing"

	"pivot/internal/bwctrl"
	"pivot/internal/mem"
	"pivot/internal/rrbp"
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
//
// Beyond the checkpoint mixes, a PIVOT case samples stats every 5,000 cycles
// — not a multiple of the 1,024-cycle predictor refresh — so the sampler's
// settles of sleeping cores and the refresh's settles land on different
// cycles.
func TestSkipAheadEquivalence(t *testing.T) {
	pivotStats := ckptCases()[1]
	pivotStats.name += "-stats"
	pivotStats.stats = true
	for _, tc := range append(ckptCases(), pivotStats) {
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

// TestSkipAheadSettleBeforeMutate: a component that wakes a sleeping slot
// must do so before it mutates state the sleeper's deferred compensation
// touches, because the two do not commute.
//
//   - fill: a core parked on a refused load retry owes its elided retries'
//     L1 miss probes, which advance the L1's LRU stamp; a fill must wake
//     (settle) the core before its Insert reads the stamp, or the filled
//     line's recency and every later eviction diverge. Two L1 MSHRs keep
//     the random-gather core parked on a full miss file almost every time a
//     fill lands.
//   - refresh: a parked PIVOT core's elided retries owe RRBP lookups, whose
//     flag updates depend on the counters and threshold that the aux
//     ticker's predictor refresh and bandwidth adaptation rewrite every
//     1,024 cycles; the refresh must settle the sleepers first. A
//     3,000-cycle RRBP refresh and an expected bandwidth the LC task never
//     reaches make both rewrites frequent.
//
// L1 state is compared after every 1,000 cycles, the whole machine at the
// end.
func TestSkipAheadSettleBeforeMutate(t *testing.T) {
	pivotLC := ckptCases()[1].tasks[0] // Masstree with its potential set
	refresh := rrbp.DefaultConfig()
	refresh.RefreshCycles = 3_000

	cases := []struct {
		name   string
		opt    Options
		tasks  []TaskSpec
		cycles int
	}{
		{"fill", Options{Policy: PolicyDefault}, beTasks(workload.GraphAn, 1), 40_000},
		{"refresh", Options{Policy: PolicyPIVOT, RRBP: refresh, ExpectedLCBW: 0.2},
			append([]TaskSpec{pivotLC}, beTasks(workload.GraphAn, 1)...), 200_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := KunpengConfig(2)
			cfg.L1.MSHRs = 2
			mk := func(dense bool) *Machine {
				opt := tc.opt
				opt.Dense = dense
				return MustNew(cfg, opt, tc.tasks)
			}
			dense, skip := mk(true), mk(false)
			for c := 0; c < tc.cycles; c += 1_000 {
				dense.Engine.Step(1_000)
				skip.Engine.Step(1_000)
				for core := range tc.tasks {
					got, ref := skip.ports[core].l1.SnapshotState(), dense.ports[core].l1.SnapshotState()
					if got.Stamp != ref.Stamp || got.Stats != ref.Stats {
						t.Fatalf("cycle %d core %d: L1 stamp/stats skip %d/%+v, dense %d/%+v",
							skip.Engine.Now(), core, got.Stamp, got.Stats, ref.Stamp, ref.Stats)
					}
					for i := range ref.Lines {
						if got.Lines[i] != ref.Lines[i] {
							t.Fatalf("cycle %d core %d: L1 line %d skip %+v, dense %+v",
								skip.Engine.Now(), core, i, got.Lines[i], ref.Lines[i])
						}
					}
				}
			}
			// Every refused retry is an L1 miss probe, so misses beyond one
			// per committed load prove the cores spent time parked on
			// retries.
			for core := range tc.tasks {
				if l1, loads := dense.ports[core].l1.Stats.Misses, dense.Cores[core].Stats.Loads; l1 <= loads {
					t.Fatalf("core %d: L1 misses %d <= loads %d: no refused retries; test exercises nothing",
						core, l1, loads)
				}
			}
			if got, ref := stateBytes(t, skip), stateBytes(t, dense); !bytes.Equal(got, ref) {
				t.Error("serialised machine state differs from dense")
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
// still be byte-identical to the dense reference. Between misses the DRAM
// controller sleeps through bank timing with requests queued; the refresh
// case adds all-bank refreshes to those sleeps (every preset has refresh
// off). The PIVOT case runs two LC tasks, shrinks the MPAM window and
// narrows the first partition's range so its class flips between busy and
// idle windows while the second's stays high: each flip bumps the rank
// generation, which must wake a sleeping controller, and the case checks
// that some flips land while requests are queued at DRAM.
func TestSkipAheadEquivalenceIdleHeavy(t *testing.T) {
	cases := []struct {
		name   string
		policy Policy
		tasks  []TaskSpec // nil: one Silo at a request per 60k cycles
		cfg    func(*Config)
		wire   func(*Machine)
	}{
		{name: "default", policy: PolicyDefault},
		{name: "refresh", policy: PolicyDefault, cfg: func(c *Config) {
			c.DRAM.RefreshInterval, c.DRAM.RefreshLatency = 18_720, 840
		}},
		{name: "pivot-class-flips", policy: PolicyPIVOT,
			tasks: []TaskSpec{lcTask(workload.Silo, 20_000), lcTask(workload.Masstree, 20_000)},
			cfg:   func(c *Config) { c.BW.WindowCycles = 1_000 },
			wire: func(m *Machine) {
				m.bw.SetAllocation(0, bwctrl.Allocation{Min: 0.0005, Max: 0.001})
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(opt Options) *Machine {
				opt.Policy = tc.policy
				cfg := KunpengConfig(4)
				if tc.cfg != nil {
					tc.cfg(&cfg)
				}
				tasks := tc.tasks
				if tasks == nil {
					tasks = []TaskSpec{lcTask(workload.Silo, 60_000)}
				}
				m := MustNew(cfg, opt, tasks)
				if tc.wire != nil {
					tc.wire(m)
				}
				return m
			}
			d, s := mk(Options{Dense: true}), mk(Options{})
			queuedBumps := 0
			if wake := s.bw.OnRankGen; wake != nil {
				s.bw.OnRankGen = func() {
					if n, p := s.mc.QueueLen(); n+p > 0 {
						queuedBumps++
					}
					wake()
				}
			}
			d.Run(50_000, 150_000)
			s.Run(50_000, 150_000)
			if got, ref := stateBytes(t, s), stateBytes(t, d); !bytes.Equal(got, ref) {
				t.Errorf("idle-heavy skip state differs (%d vs %d bytes)", len(got), len(ref))
			}
			if s.LCp95(0) != d.LCp95(0) || s.Cores[0].Stats.IdleCycles != d.Cores[0].Stats.IdleCycles {
				t.Errorf("idle-heavy stats differ: p95 %d vs %d, idle %d vs %d",
					s.LCp95(0), d.LCp95(0), s.Cores[0].Stats.IdleCycles, d.Cores[0].Stats.IdleCycles)
			}
			switch tc.name {
			case "refresh":
				if s.mc.Stats.Refreshes == 0 {
					t.Error("no refresh ran; the case exercises nothing")
				}
			case "pivot-class-flips":
				if queuedBumps == 0 {
					t.Errorf("no class flip with requests queued at DRAM (rank generation %d); the case exercises nothing", s.bw.RankGen())
				}
			}
		})
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
