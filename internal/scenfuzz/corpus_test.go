package scenfuzz

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"pivot/internal/scenario"
)

// testdataCorpus is the checked-in seed corpus. CI replays it via pivot-fuzz
// -replay and TestSeedCorpusReplays keeps it green under plain `go test`.
const testdataCorpus = "testdata/corpus"

// TestSeedCorpusRegenerate rewrites the checked-in seed corpus; run it with
//
//	PIVOT_SEED_CORPUS=1 go test ./internal/scenfuzz -run TestSeedCorpusRegenerate
//
// after a schema or oracle change that invalidates the recorded entries. The
// corpus holds one defect-walkthrough entry (minimized under the
// skip-extra-cycle defect; replays clean, fails only when the same defect is
// armed again) and the corpusPins scenarios replayed through the whole
// oracle bank.
func TestSeedCorpusRegenerate(t *testing.T) {
	if os.Getenv("PIVOT_SEED_CORPUS") == "" {
		t.Skip("set PIVOT_SEED_CORPUS=1 to rewrite the seed corpus")
	}
	ctx := context.Background()
	if err := os.RemoveAll(testdataCorpus); err != nil {
		t.Fatal(err)
	}

	defect := Env{Defect: DefectSkipExtraCycle}
	f := CheckAll(ctx, defectScenario(), Oracles(), defect)
	if f == nil {
		t.Fatalf("defect scenario not caught; cannot record walkthrough entry")
	}
	f.Shrink(ctx, defect)
	if _, err := WriteEntry(testdataCorpus, f); err != nil {
		t.Fatal(err)
	}

	for _, pin := range corpusPins() {
		if err := pin.Scenario.Validate(); err != nil {
			t.Fatalf("pinned scenario %s invalid: %v", pin.Scenario.Name, err)
		}
		if got := CheckAll(ctx, pin.Scenario, Oracles(), Env{}); got != nil {
			t.Fatalf("pinned scenario %s not green: %s: %s", pin.Scenario.Name, got.Oracle, got.Detail)
		}
		if _, err := WriteEntry(testdataCorpus, pin); err != nil {
			t.Fatal(err)
		}
	}
}

// corpusPins are the all-green corpus entries. Each is a literal scenario,
// so the checked-in files do not move when Generate's RNG stream does; Seed
// and Index record the campaign scenario a pin was first generated as.
func corpusPins() []*Finding {
	const green = "pinned all-green regression scenario"

	// fuzz-1-0: an MBA mix whose inline LC app carries MMPP-2 bursts,
	// tenant windows and Zipf skew (its generated fault stanza stripped).
	fuzz0 := &scenario.Scenario{
		Version: scenario.Version,
		Name:    "fuzz-1-0",
		Machine: scenario.Machine{Preset: scenario.PresetKunpeng, Cores: 4},
		Policy:  "MBA",
		Options: scenario.Options{ExpectedLCBW: 0.5297954131788668, MBALevel: 60},
		Tasks: []scenario.Task{
			{
				Kind: scenario.KindLC,
				LCParams: &scenario.LCParams{Name: "fz-lc-0", ChaseDepth: 8, ChaseLines: 16384,
					ChasePCs: 7, ALUPerStep: 4, ALULat: 1},
				Interarrival: 2217,
				Load: &scenario.LoadSpec{
					ZipfTheta: 0.8662783108083376,
					OnOff: &scenario.LoadOnOff{OnMean: 3871, OffMean: 3510,
						OnScale: 1.4773137543702188, OffScale: 0.24668509624396018},
					Windows: []scenario.LoadWindow{{Until: 28449}, {From: 33449, Until: 80000}},
				},
			},
			{Kind: scenario.KindBE, App: "ibench", Threads: 3},
		},
		Warmup:  8_000,
		Measure: 32_000,
		Seed:    13865,
	}

	// fuzz-1-2: CBP+FullPath on the Neoverse preset with the bus left out
	// and the starvation guard off, swept over the core count.
	fuzz2 := &scenario.Scenario{
		Version: scenario.Version,
		Name:    "fuzz-1-2",
		Machine: scenario.Machine{Preset: scenario.PresetNeoverse, Cores: 2, BEWays: 3},
		Policy:  "CBP+FullPath",
		Options: scenario.Options{DisableMSC: "Bus", NoStarvationGuard: true},
		Tasks: []scenario.Task{
			{Kind: scenario.KindLC, App: "microservice", Interarrival: 7618},
			{Kind: scenario.KindBE, App: "ibench", Threads: 1},
		},
		Warmup:  6_000,
		Measure: 16_000,
		Seed:    28670,
		Sweep: []scenario.Axis{{Param: "machine.cores",
			Values: []json.RawMessage{json.RawMessage("2"), json.RawMessage("4")}}},
	}

	// fuzz-1-126 once caught a real bug: with rrbp_entries:-1, a PIVOT run
	// resumed from a checkpoint serialised differently from an
	// uninterrupted one (the unlimited RRBP table's zero-decayed counters
	// were dropped on restore but kept in the live map; the snapshot
	// encoding is canonical now — internal/rrbp/state_test.go pins the unit
	// fix). The scenario stays pinned so the exact geometry keeps running
	// through the whole bank.
	fuzz126 := &scenario.Scenario{
		Version: scenario.Version,
		Name:    "fuzz-1-126",
		Machine: scenario.Machine{Preset: scenario.PresetNeoverse, Cores: 4},
		Policy:  "PIVOT",
		Options: scenario.Options{RRBPEntries: -1, Prefetch: true},
		Tasks: []scenario.Task{
			{Kind: scenario.KindLC, App: "masstree", Interarrival: 6944, ExpectedBW: 0.24848766484833898},
			{Kind: scenario.KindBE, App: "in-memory-analytics", Threads: 2},
			{Kind: scenario.KindBE, App: "ibench", Threads: 1},
		},
		Warmup:  14_000,
		Measure: 24_000,
		Seed:    48455,
	}

	// Oracle "all" names no oracle: Replay runs such an entry through the
	// whole bank.
	return []*Finding{
		{Oracle: "all", Seed: 1, Index: 0, Detail: green, Scenario: fuzz0},
		{Oracle: "all", Seed: 1, Index: 2, Detail: green, Scenario: fuzz2},
		{Oracle: "all", Seed: 1, Index: 126, Scenario: fuzz126,
			Detail: "pinned regression: unlimited-RRBP zero-decayed counters once broke checkpoint resume"},
		// Every load-model feature (phase program with ramp/sine/off
		// segments, MMPP-2 bursts, tenant windows, Zipf skew) in one stanza,
		// replayed through the whole bank — including the
		// stationary-equivalence oracle, whose neutral-program contract
		// anchors the refactored arrival path.
		{Oracle: "all", Scenario: loadShapeScenario(),
			Detail: "pinned: phase/onoff/window/zipf load stanza through the whole bank"},
	}
}

// loadShapeScenario is the hand-built load-stanza pin: one LC task carrying
// a diurnal sine, a spike, a ramp and a silence in its phase program plus
// bursts, windows and skew, co-located with one BE thread.
func loadShapeScenario() *scenario.Scenario {
	sc := &scenario.Scenario{
		Version: scenario.Version,
		Name:    "load-shapes-pin",
		Policy:  "PIVOT",
		Warmup:  8_000,
		Measure: 16_000,
		Seed:    11,
	}
	sc.Machine.Cores = 2
	sc.Tasks = []scenario.Task{
		{
			Kind:         scenario.KindLC,
			App:          "masstree",
			Interarrival: 2_500,
			Load: &scenario.LoadSpec{
				ZipfTheta: 0.8,
				Phases: []scenario.LoadPhase{
					{Shape: scenario.ShapeSine, Cycles: 8_000, Scale: 1, Amp: 0.4, Period: 4_000},
					{Shape: scenario.ShapeFlat, Cycles: 2_000, Scale: 2},
					{Shape: scenario.ShapeRamp, Cycles: 4_000, Scale: 2, To: 0.5},
					{Shape: scenario.ShapeOff, Cycles: 1_000},
				},
				Repeat: true,
				OnOff:  &scenario.LoadOnOff{OnMean: 3_000, OffMean: 1_500, OnScale: 1.2, OffScale: 0.4},
				Windows: []scenario.LoadWindow{
					{Until: 14_000},
					{From: 16_000, Until: 48_000},
				},
			},
		},
		{Kind: scenario.KindBE, App: "ibench", Threads: 1},
	}
	return sc
}

// TestSeedCorpusReplays: the checked-in corpus replays clean without the
// defect, and the defect-recorded entry still reproduces when its recorded
// defect is armed again.
func TestSeedCorpusReplays(t *testing.T) {
	ctx := context.Background()
	failed, err := Replay(ctx, testdataCorpus, Env{}, nil)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(failed) > 0 {
		t.Fatalf("seed corpus has %d failing entries; first: %s: %s",
			len(failed), failed[0].Oracle, failed[0].Detail)
	}
	entries, err := LoadCorpus(testdataCorpus)
	if err != nil {
		t.Fatal(err)
	}
	var defects int
	for _, e := range entries {
		if e.Meta.Defect == "" {
			continue
		}
		defects++
		f := CheckAll(ctx, e.Scenario, Oracles(), Env{Defect: e.Meta.Defect})
		if f == nil || f.Oracle != e.Meta.Oracle {
			t.Errorf("entry %s no longer reproduces under defect %q: %+v", e.Dir, e.Meta.Defect, f)
		}
	}
	if defects == 0 {
		t.Errorf("seed corpus has no defect-walkthrough entry")
	}
}
