package scenfuzz

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"strings"

	"pivot/internal/machine"
	"pivot/internal/scenario"
	"pivot/internal/sim"
)

// Transcript accumulates an oracle's observations — what was run, what was
// compared, why something was skipped — so a corpus entry documents the
// failing check, not just its verdict.
type Transcript struct {
	Lines []string
}

// Logf appends one formatted line.
func (t *Transcript) Logf(format string, args ...any) {
	t.Lines = append(t.Lines, fmt.Sprintf(format, args...))
}

// Oracle is one differential check. A non-nil error from check is a finding:
// the scenario violated the oracle's contract.
type Oracle struct {
	Name  string
	Brief string
	check func(ctx context.Context, sc *scenario.Scenario, env Env, tr *Transcript) error
}

// Oracles lists the full bank in execution order: the free checks first, the
// multi-run differential checks after.
func Oracles() []Oracle {
	return []Oracle{
		{"codec", "encode→decode→re-encode is byte-identical and strict-decode accepts its own output", codecCheck},
		{"equiv", "skip-ahead and -dense runs end in byte-identical state, snapshot and stats", equivCheck},
		{"checkpoint", "a run killed at a derived cycle and resumed equals an uninterrupted run", checkpointCheck},
		{"flight", "the flight recorder changes nothing observable", flightCheck},
		{"stationary", "a task without a load stanza equals one shaped by the neutral flat program", stationaryCheck},
		{"audit", "the run completes cleanly under auditor, watchdog and cycle budget", auditCheck},
	}
}

// OracleNames lists the bank's names in order.
func OracleNames() []string {
	all := Oracles()
	out := make([]string, len(all))
	for i, o := range all {
		out[i] = o.Name
	}
	return out
}

// OraclesByName resolves a selection; empty selects the whole bank.
func OraclesByName(names []string) ([]Oracle, error) {
	if len(names) == 0 {
		return Oracles(), nil
	}
	out := make([]Oracle, 0, len(names))
	for _, n := range names {
		o, ok := oracleByName(n)
		if !ok {
			return nil, fmt.Errorf("scenfuzz: unknown oracle %q (one of %s)",
				n, strings.Join(OracleNames(), ", "))
		}
		out = append(out, o)
	}
	return out, nil
}

func oracleByName(name string) (Oracle, bool) {
	for _, o := range Oracles() {
		if o.Name == name {
			return o, true
		}
	}
	return Oracle{}, false
}

// codecCheck: the canonical encoding must be a fixed point of the strict
// codec. Parse re-validates, so this also proves every generated scenario
// survives its own serialisation.
func codecCheck(_ context.Context, sc *scenario.Scenario, _ Env, tr *Transcript) error {
	enc, err := sc.Encode()
	if err != nil {
		return fmt.Errorf("encode failed: %w", err)
	}
	tr.Logf("encoded %d bytes", len(enc))
	parsed, err := scenario.Parse(enc)
	if err != nil {
		return fmt.Errorf("strict decode rejects own encoding: %w", err)
	}
	re, err := parsed.Encode()
	if err != nil {
		return fmt.Errorf("re-encode failed: %w", err)
	}
	if !bytes.Equal(enc, re) {
		return fmt.Errorf("round-trip not byte-identical (%d vs %d bytes): %s",
			len(enc), len(re), firstDiff(enc, re))
	}
	tr.Logf("round-trip byte-identical")
	return nil
}

// eachUnit expands the scenario and applies fn to every executable run unit,
// wrapping failures with the unit label.
func eachUnit(sc *scenario.Scenario, fn func(u *scenario.Scenario, label string) error) error {
	if err := Executable(sc); err != nil {
		return err
	}
	units, err := sc.Expand()
	if err != nil {
		return err
	}
	for _, u := range units {
		label := u.Label
		if label == "" {
			label = sc.Name
		}
		if err := fn(u.Scenario, label); err != nil {
			return fmt.Errorf("unit %q: %w", label, err)
		}
	}
	return nil
}

// equivCheck: for every run unit, a skip-ahead machine and a dense machine
// must finish with byte-identical serialised state, result snapshot and
// stats dump. The DefectSkipExtraCycle hook perturbs the skip leg only.
func equivCheck(ctx context.Context, sc *scenario.Scenario, env Env, tr *Transcript) error {
	return eachUnit(sc, func(u *scenario.Scenario, label string) error {
		warmup, measure := windows(u)
		skip, err := build(u, mode{stats: true})
		if err != nil {
			return fmt.Errorf("building skip machine: %w", err)
		}
		dense, err := build(u, mode{dense: true, stats: true})
		if err != nil {
			return fmt.Errorf("building dense machine: %w", err)
		}
		tr.Logf("%s: warmup=%d measure=%d", label, warmup, measure)
		skipMeasure := measure
		if env.Defect == DefectSkipExtraCycle {
			// Seeded bug: the skip leg measures one cycle too many.
			skipMeasure++
			tr.Logf("%s: defect %q armed on skip leg", label, env.Defect)
		}
		if err := skip.RunChecked(ctx, warmup, skipMeasure); err != nil {
			return fmt.Errorf("skip-ahead run: %w", err)
		}
		if err := dense.RunChecked(ctx, warmup, measure); err != nil {
			return fmt.Errorf("dense run: %w", err)
		}
		return compareMachines(tr, label, skip, dense, "skip-ahead", "dense", false, true)
	})
}

// checkpointCheck: kill a skip-ahead run at a scenario-derived cycle
// mid-run, resume it in a fresh machine, and demand the final state equal an
// uninterrupted run's.
func checkpointCheck(ctx context.Context, sc *scenario.Scenario, env Env, tr *Transcript) error {
	return eachUnit(sc, func(u *scenario.Scenario, label string) error {
		warmup, measure := windows(u)
		ref, err := build(u, mode{})
		if err != nil {
			return fmt.Errorf("building reference machine: %w", err)
		}
		if err := ref.RunChecked(ctx, warmup, measure); err != nil {
			return fmt.Errorf("reference run: %w", err)
		}

		dir, err := os.MkdirTemp("", "pivot-fuzz-ckpt-")
		if err != nil {
			return fmt.Errorf("checkpoint dir: %w", err)
		}
		defer os.RemoveAll(dir)
		interval := measure / 3
		if interval < 1_000 {
			interval = 1_000
		}
		cc := machine.CheckpointConfig{Dir: dir, Interval: interval, Keep: 3}

		kill := killCycle(u, warmup, measure)
		killed, err := build(u, mode{maxCycles: kill})
		if err != nil {
			return fmt.Errorf("building killed machine: %w", err)
		}
		tr.Logf("%s: killing at cycle %d of %d (interval %d)", label, kill, warmup+measure, interval)
		if _, err := killed.RunCheckpointed(ctx, warmup, measure, cc); !errors.Is(err, machine.ErrCycleBudget) {
			return fmt.Errorf("killed run: got %v, want cycle-budget abort", err)
		}

		resumed, err := build(u, mode{})
		if err != nil {
			return fmt.Errorf("building resumed machine: %w", err)
		}
		from, err := resumed.RunCheckpointed(ctx, warmup, measure, cc)
		if err != nil {
			return fmt.Errorf("resumed run: %w", err)
		}
		if from == 0 {
			return fmt.Errorf("resume started from scratch: no checkpoint survived the kill at cycle %d", kill)
		}
		tr.Logf("%s: resumed from cycle %d", label, from)
		return compareMachines(tr, label, resumed, ref, "resumed", "uninterrupted", false, false)
	})
}

// killCycle derives the kill point deterministically from the unit's
// canonical encoding: somewhere strictly inside the run, varying per
// scenario so campaigns cover warmup, boundary and mid-measure kills. The
// top of the range stays two guard granules clear of the end — StepChecked
// only tests the cycle budget at granule boundaries, so a budget inside the
// final granule would let the run complete instead of aborting.
func killCycle(u *scenario.Scenario, warmup, measure sim.Cycle) sim.Cycle {
	total := warmup + measure
	if total <= 2*2048+2 {
		// Shrunk-down windows: kill immediately after warmup's first check.
		return 1
	}
	h := fnv.New64a()
	h.Write(u.MustEncode())
	return 1 + sim.Cycle(h.Sum64()%uint64(total-2*2048))
}

// flightCheck: a machine with the flight recorder attached must match a
// recorder-less machine bit-for-bit once the recorder's own state section is
// set aside — recording is observation, never participation.
func flightCheck(ctx context.Context, sc *scenario.Scenario, env Env, tr *Transcript) error {
	return eachUnit(sc, func(u *scenario.Scenario, label string) error {
		warmup, measure := windows(u)
		on, err := build(u, mode{flight: true})
		if err != nil {
			return fmt.Errorf("building recorder-on machine: %w", err)
		}
		off, err := build(u, mode{})
		if err != nil {
			return fmt.Errorf("building recorder-off machine: %w", err)
		}
		if err := on.RunChecked(ctx, warmup, measure); err != nil {
			return fmt.Errorf("recorder-on run: %w", err)
		}
		if err := off.RunChecked(ctx, warmup, measure); err != nil {
			return fmt.Errorf("recorder-off run: %w", err)
		}
		tr.Logf("%s: comparing recorder-on (flight section stripped) vs recorder-off", label)
		return compareMachines(tr, label, on, off, "recorder-on", "recorder-off", true, false)
	})
}

// stationaryCheck: the load-model refactor's anchor contract. For every run
// unit it derives two variants — one with all arrival shaping stripped from
// the LC tasks (pure stationary Poisson) and one shaping every LC task with
// the neutral flat program (one scale-1.0 phase, repeating) — and demands
// byte-identical machine state, result snapshot and stats dump. The neutral
// program's thinning loop accepts every candidate without consuming extra
// RNG draws, so any divergence means the shaped path corrupted the pinned
// stationary arrival law. Fingerprints are NOT compared: the load spec is
// deliberately part of the checkpoint key, so the two variants differ there
// by design. Reference skew (zipf_theta) is preserved on both legs.
func stationaryCheck(ctx context.Context, sc *scenario.Scenario, env Env, tr *Transcript) error {
	return eachUnit(sc, func(u *scenario.Scenario, label string) error {
		warmup, measure := windows(u)
		bare := u.Clone()
		neutral := u.Clone()
		shaped := 0
		for i := range u.Tasks {
			if u.Tasks[i].Kind != scenario.KindLC {
				continue
			}
			var theta float64
			if l := u.Tasks[i].Load; l != nil {
				theta = l.ZipfTheta
				if l.Shaped() {
					shaped++
				}
			}
			bare.Tasks[i].Load = nil
			if theta > 0 {
				bare.Tasks[i].Load = &scenario.LoadSpec{ZipfTheta: theta}
			}
			neutral.Tasks[i].Load = &scenario.LoadSpec{
				ZipfTheta: theta,
				Phases: []scenario.LoadPhase{{Shape: scenario.ShapeFlat,
					Cycles: uint64(warmup+measure) + 1, Scale: 1}},
				Repeat: true,
			}
		}
		a, err := build(bare, mode{stats: true})
		if err != nil {
			return fmt.Errorf("building stationary machine: %w", err)
		}
		b, err := build(neutral, mode{stats: true})
		if err != nil {
			return fmt.Errorf("building neutral-shaped machine: %w", err)
		}
		tr.Logf("%s: stationary vs neutral-shaped (%d task(s) had real shaping stripped)", label, shaped)
		if err := a.RunChecked(ctx, warmup, measure); err != nil {
			return fmt.Errorf("stationary run: %w", err)
		}
		if err := b.RunChecked(ctx, warmup, measure); err != nil {
			return fmt.Errorf("neutral-shaped run: %w", err)
		}
		ab, err := stateBytes(a, false)
		if err != nil {
			return fmt.Errorf("stationary state: %w", err)
		}
		bb, err := stateBytes(b, false)
		if err != nil {
			return fmt.Errorf("neutral-shaped state: %w", err)
		}
		if !bytes.Equal(ab, bb) {
			return fmt.Errorf("serialised machine state differs between stationary and neutral-shaped (%d vs %d bytes): %s",
				len(ab), len(bb), firstDiff(ab, bb))
		}
		aj, err := snapshotJSON(a)
		if err != nil {
			return err
		}
		bj, err := snapshotJSON(b)
		if err != nil {
			return err
		}
		if !bytes.Equal(aj, bj) {
			return fmt.Errorf("result snapshots differ between stationary and neutral-shaped: %s", firstDiff(aj, bj))
		}
		as, err := statsJSON(a)
		if err != nil {
			return err
		}
		bs, err := statsJSON(b)
		if err != nil {
			return err
		}
		if !bytes.Equal(as, bs) {
			return fmt.Errorf("stats dumps differ between stationary and neutral-shaped: %s", firstDiff(as, bs))
		}
		tr.Logf("%s: stationary == neutral-shaped (state %d bytes)", label, len(ab))
		return nil
	})
}

// auditCheck: the run must complete cleanly under the invariant auditor, a
// forward-progress watchdog (only when a BE task guarantees steady commits —
// an open-loop-only mix legitimately idles between arrivals) and a generous
// simulated-cycle budget, and must have measured exactly its measure window.
func auditCheck(ctx context.Context, sc *scenario.Scenario, env Env, tr *Transcript) error {
	return eachUnit(sc, func(u *scenario.Scenario, label string) error {
		warmup, measure := windows(u)
		md := mode{audit: true, maxCycles: 2 * (warmup + measure)}
		if hasBE(u) {
			md.watchdog = 25_000
		}
		m, err := build(u, md)
		if err != nil {
			return fmt.Errorf("building audited machine: %w", err)
		}
		tr.Logf("%s: audit run, watchdog=%d, budget=%d", label, md.watchdog, md.maxCycles)
		if err := m.RunChecked(ctx, warmup, measure); err != nil {
			return fmt.Errorf("audited run failed: %w", err)
		}
		if got := m.MeasuredCycles(); got != measure {
			return fmt.Errorf("measured %d cycles, want %d", got, measure)
		}
		if bw := m.BWUtil(); bw < 0 || bw > 1 {
			return fmt.Errorf("bandwidth utilisation %v outside [0,1]", bw)
		}
		return nil
	})
}

func hasBE(sc *scenario.Scenario) bool {
	for i := range sc.Tasks {
		if sc.Tasks[i].Kind == scenario.KindBE {
			return true
		}
	}
	return false
}

// compareMachines demands the two finished machines agree byte-for-byte:
// serialised state (optionally minus machine a's flight section), checkpoint
// fingerprint, result snapshot, and (withStats) the stats dump.
func compareMachines(tr *Transcript, label string, a, b *machine.Machine, an, bn string, stripFlightA, withStats bool) error {
	ab, err := stateBytes(a, stripFlightA)
	if err != nil {
		return fmt.Errorf("%s state: %w", an, err)
	}
	bb, err := stateBytes(b, false)
	if err != nil {
		return fmt.Errorf("%s state: %w", bn, err)
	}
	if !bytes.Equal(ab, bb) {
		return fmt.Errorf("serialised machine state differs between %s and %s (%d vs %d bytes)",
			an, bn, len(ab), len(bb))
	}
	if a.Fingerprint() != b.Fingerprint() {
		return fmt.Errorf("checkpoint fingerprints differ: %s %#x vs %s %#x",
			an, a.Fingerprint(), bn, b.Fingerprint())
	}
	aj, err := snapshotJSON(a)
	if err != nil {
		return err
	}
	bj, err := snapshotJSON(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(aj, bj) {
		return fmt.Errorf("result snapshots differ between %s and %s: %s", an, bn, firstDiff(aj, bj))
	}
	if withStats {
		as, err := statsJSON(a)
		if err != nil {
			return err
		}
		bs, err := statsJSON(b)
		if err != nil {
			return err
		}
		if !bytes.Equal(as, bs) {
			return fmt.Errorf("stats dumps differ between %s and %s: %s", an, bn, firstDiff(as, bs))
		}
	}
	tr.Logf("%s: %s == %s (state %d bytes, snapshot %d bytes)", label, an, bn, len(ab), len(aj))
	return nil
}

// firstDiff renders the first divergence between two byte strings with a
// little context, for failure messages a human can act on.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 20
			if lo < 0 {
				lo = 0
			}
			hiA, hiB := i+20, i+20
			if hiA > len(a) {
				hiA = len(a)
			}
			if hiB > len(b) {
				hiB = len(b)
			}
			return fmt.Sprintf("first difference at byte %d: %q vs %q", i, a[lo:hiA], b[lo:hiB])
		}
	}
	return fmt.Sprintf("one is a prefix of the other (lengths %d vs %d)", len(a), len(b))
}
