package machine

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"pivot/internal/bwctrl"
	"pivot/internal/mem"
	"pivot/internal/rrbp"
	"pivot/internal/sim"
	"pivot/internal/workload"
)

// TestSkipAheadEquivalence is the tentpole's central proof obligation: for
// every workload mix, a skip-ahead run and a -dense run finish with
// byte-identical serialised machine state, byte-identical result-snapshot
// JSON, byte-identical stats-framework dumps (where enabled), and the same
// machine fingerprint. The dense loop is the trusted oracle.
//
// Beyond the shared mixes, a PIVOT case samples stats every 5,000 cycles
// — not a multiple of the 1,024-cycle predictor refresh — so the sampler's
// settles of sleeping cores and the refresh's settles land on different
// cycles.
func TestSkipAheadEquivalence(t *testing.T) {
	pivotStats := mixCases()[1]
	pivotStats.name += "-stats"
	pivotStats.stats = true
	for _, tc := range append(mixCases(), pivotStats) {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dense := tc.buildMode(t, true)
			skip := tc.buildMode(t, false)
			if dense.Engine.Dense() == skip.Engine.Dense() {
				t.Fatal("modes not actually distinct")
			}
			if err := dense.RunChecked(ctx, mixWarmup, mixMeasure); err != nil {
				t.Fatalf("dense run: %v", err)
			}
			if err := skip.RunChecked(ctx, mixWarmup, mixMeasure); err != nil {
				t.Fatalf("skip run: %v", err)
			}

			if got, ref := stateBytes(t, skip), stateBytes(t, dense); !bytes.Equal(got, ref) {
				t.Errorf("skip: serialised machine state differs (%d vs %d bytes)", len(got), len(ref))
			}
			if skip.Fingerprint() != dense.Fingerprint() {
				t.Errorf("machine fingerprints differ: skip %#x, dense %#x",
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
// touches, where the two do not commute.
//
//   - fill: a core parked on a refused load retry owes its elided retries'
//     L1 miss probes while fills land in its L1. The compensation is
//     counters only, so it commutes with the fills; the case checks that the
//     parked core's L1 counters, lines and recency track the dense run's.
//     Two L1 MSHRs keep the random-gather core parked on a full miss file
//     almost every time a fill lands.
//   - prefetch-fill: a fill must still wake the core before it lands, as
//     the freed MSHR or the filled line may unblock the refused load. A
//     demand fill wakes its waiters anyway; a prefetch fill has none, so
//     only the fill's own wake ends the park. Two iBench copies with
//     prefetching on and eight L1 MSHRs (four of them open to prefetches)
//     park on a full miss file that waiter-less prefetch fills free; a
//     skip-ahead core that slept through such a fill retries late and
//     charges extra miss probes. Such fills land on a full miss file only
//     through cycles 109-197 of its warm-up, so the case alone would not
//     notice a model change that blunts that transient.
//   - prefetch-fill-steady: the same wake, in steady state. Both machines
//     run densely through a 20,000-cycle warm-up before the skip-ahead one
//     starts skipping, so only steady-state fills can tell the two apart.
//     With sixteen L1 MSHRs, two in-memory-analytics copies' random
//     gathers fill the miss file while prefetches run ahead of their
//     streams, and waiter-less prefetch fills free it.
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
	pivotLC := mixCases()[1].tasks[0] // Masstree with its potential set
	refresh := rrbp.DefaultConfig()
	refresh.RefreshCycles = 3_000

	cases := []struct {
		name   string
		opt    Options
		tasks  []TaskSpec
		mshrs  int
		cycles int
		warmup int // cycles both machines run densely before the skip one skips
	}{
		{"fill", Options{Policy: PolicyDefault}, beTasks(workload.GraphAn, 1), 2, 40_000, 0},
		{"prefetch-fill", Options{Policy: PolicyDefault, Prefetch: true}, beTasks(workload.IBench, 2), 8, 40_000, 0},
		{"prefetch-fill-steady", Options{Policy: PolicyDefault, Prefetch: true}, beTasks(workload.InMemAn, 2), 16, 60_000, 20_000},
		{"refresh", Options{Policy: PolicyPIVOT, RRBP: refresh, ExpectedLCBW: 0.2},
			append([]TaskSpec{pivotLC}, beTasks(workload.GraphAn, 1)...), 2, 200_000, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := KunpengConfig(2)
			cfg.L1.MSHRs = tc.mshrs
			mk := func(dense bool) *Machine {
				opt := tc.opt
				opt.Dense = dense
				return MustNew(cfg, opt, tc.tasks)
			}
			dense, skip := mk(true), mk(tc.warmup > 0)
			if tc.warmup > 0 {
				dense.Engine.Step(sim.Cycle(tc.warmup))
				skip.Engine.Step(sim.Cycle(tc.warmup))
				skip.Engine.SetDense(false)
			}
			for c := tc.warmup; c < tc.cycles; c += 1_000 {
				dense.Engine.Step(1_000)
				skip.Engine.Step(1_000)
				for core := range tc.tasks {
					got, ref := skip.ports[core].l1.SnapshotState(), dense.ports[core].l1.SnapshotState()
					if !slices.Equal(got.Order, ref.Order) || got.Stats != ref.Stats {
						t.Fatalf("cycle %d core %d: L1 recency or stats differ: skip %+v, dense %+v",
							skip.Engine.Now(), core, got.Stats, ref.Stats)
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
				if pf := dense.ports[core].pf; pf != nil && pf.Issued == 0 {
					t.Fatalf("core %d issued no prefetches; test exercises nothing", core)
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
