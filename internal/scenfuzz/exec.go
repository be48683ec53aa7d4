package scenfuzz

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"pivot/internal/exp"
	"pivot/internal/flight"
	"pivot/internal/machine"
	"pivot/internal/mem"
	"pivot/internal/scenario"
	"pivot/internal/sim"
	"pivot/internal/workload"
)

// Env carries campaign-level knobs into oracle checks. Defect, when set to
// one of Defects(), deliberately sabotages one leg of one oracle — the
// end-to-end proof that the machine actually catches bugs (see the README's
// "seeded defect" walkthrough).
type Env struct {
	Defect string
}

// DefectSkipExtraCycle runs the skip-ahead leg of the equivalence oracle one
// measured cycle longer than the dense leg, simulating a skip-ahead bug that
// overshoots a Step boundary. The equiv oracle must catch it on every
// scenario and shrink it to a minimal reproduction.
const DefectSkipExtraCycle = "skip-extra-cycle"

// Defects lists the valid Env.Defect values.
func Defects() []string { return []string{DefectSkipExtraCycle} }

// mode selects how a unit's machine is instrumented for one oracle leg.
type mode struct {
	dense     bool
	stats     bool
	flight    bool
	audit     bool
	watchdog  sim.Cycle
	maxCycles sim.Cycle
}

// Executable reports whether the oracle bank can run the scenario directly:
// manager-driven policies and calibrated load percentages need the full
// experiment harness (calibration sweeps, manager epochs) and are out of
// scope for differential execution.
func Executable(sc *scenario.Scenario) error {
	units, err := sc.Expand()
	if err != nil {
		return err
	}
	for _, u := range units {
		sc := u.Scenario
		mth, ok := exp.MethodByName(sc.Policy)
		if !ok {
			return fmt.Errorf("scenfuzz: unit %q: unknown policy %q", u.Label, sc.Policy)
		}
		if mth.Manager != "" {
			return fmt.Errorf("scenfuzz: unit %q: manager policy %q is not directly executable", u.Label, sc.Policy)
		}
		for i := range sc.Tasks {
			if sc.Tasks[i].LoadPct != 0 {
				return fmt.Errorf("scenfuzz: unit %q: tasks[%d] uses load_pct (needs calibration); the fuzzer executes explicit-interarrival tasks only", u.Label, i)
			}
		}
	}
	return nil
}

// windows resolves a scenario's run windows, defaulting unset ones to the
// generator's minimums so replayed hand-written specs still run.
func windows(sc *scenario.Scenario) (warmup, measure sim.Cycle) {
	warmup, measure = sim.Cycle(sc.Warmup), sim.Cycle(sc.Measure)
	if warmup == 0 {
		warmup = genMinWarmup
	}
	if measure == 0 {
		measure = genMinMeasure
	}
	return warmup, measure
}

// build constructs the machine for one sweep-free scenario unit under the
// given instrumentation mode. It mirrors exp.Run's task translation minus
// calibration: LC tasks pin their interarrival directly.
func build(sc *scenario.Scenario, md mode) (*machine.Machine, error) {
	mth, ok := exp.MethodByName(sc.Policy)
	if !ok {
		return nil, fmt.Errorf("scenfuzz: unknown policy %q", sc.Policy)
	}
	opt := exp.OptionsFor(sc.Options)
	opt.Policy = mth.Policy
	opt.Dense = md.dense
	opt.Audit = md.audit
	opt.WatchdogWindow = md.watchdog
	opt.MaxCycles = md.maxCycles

	seed := sc.Seed
	if seed == 0 {
		seed = 1
	}
	var tasks []machine.TaskSpec
	for i := range sc.Tasks {
		t := &sc.Tasks[i]
		if t.Kind == scenario.KindLC {
			tasks = append(tasks, machine.TaskSpec{
				Kind:             machine.TaskLC,
				LC:               lcParamsOf(t),
				MeanInterarrival: t.Interarrival,
				ExpectedBW:       t.ExpectedBW,
				Seed:             seed,
				Load:             t.Load.ToLoad(),
			})
			continue
		}
		be := beParamsOf(t)
		for n := 0; n < t.ThreadCount(); n++ {
			tasks = append(tasks, machine.TaskSpec{
				Kind: machine.TaskBE, BE: be,
				Seed: seed + uint64(10+len(tasks)),
			})
		}
	}

	cfg := exp.ConfigFor(sc.Machine, scenario.DefaultCores)
	m, err := machine.New(cfg, opt, tasks)
	if err != nil {
		return nil, err
	}
	if mth.Policy == machine.PolicyMBA && sc.Options.MBALevel > 0 {
		for i, t := range tasks {
			if t.Kind == machine.TaskBE {
				m.MBA().SetLevel(mem.PartID(i), sc.Options.MBALevel)
			}
		}
	}
	if md.stats {
		m.EnableStats(statsEpoch(sc), 0)
	}
	if md.flight {
		m.EnableFlight(flight.Config{TopK: 8, SampleCap: 64})
	}
	return m, nil
}

// statsEpoch sizes the stats sampling epoch to the run so every scenario
// gets a handful of epochs regardless of its windows.
func statsEpoch(sc *scenario.Scenario) sim.Cycle {
	_, measure := windows(sc)
	e := measure / 4
	if e < 1_000 {
		e = 1_000
	}
	return e
}

func lcParamsOf(t *scenario.Task) workload.LCParams {
	if t.LCParams != nil {
		return t.LCParams.ToWorkload()
	}
	return workload.LCApps()[t.App]
}

func beParamsOf(t *scenario.Task) workload.BEParams {
	if t.BEParams != nil {
		return t.BEParams.ToWorkload()
	}
	return workload.BEApps()[t.App]
}

// stateBytes serialises the machine's complete mutable state, optionally
// stripping the flight recorder's own section (the flight oracle compares a
// recorder-on machine against a recorder-less one; everything else must
// match bit-for-bit).
func stateBytes(m *machine.Machine, stripFlight bool) ([]byte, error) {
	if !stripFlight {
		return m.StateBytes()
	}
	s := m.SnapshotState()
	s.Flight = nil
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// snapshotJSON renders the machine's result snapshot for byte comparison.
func snapshotJSON(m *machine.Machine) ([]byte, error) {
	var buf bytes.Buffer
	if err := m.Snapshot().WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// statsJSON renders the stats-framework dump for byte comparison.
func statsJSON(m *machine.Machine) ([]byte, error) {
	var buf bytes.Buffer
	d := m.StatsDump()
	if err := d.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
