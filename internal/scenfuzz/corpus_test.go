package scenfuzz

import (
	"context"
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
// corpus holds one defect-walkthrough entry (minimized under the skip-faults
// defect; replays clean, fails only when the same defect is armed again) and
// two pinned all-green scenarios replayed through the whole oracle bank.
func TestSeedCorpusRegenerate(t *testing.T) {
	if os.Getenv("PIVOT_SEED_CORPUS") == "" {
		t.Skip("set PIVOT_SEED_CORPUS=1 to rewrite the seed corpus")
	}
	ctx := context.Background()
	if err := os.RemoveAll(testdataCorpus); err != nil {
		t.Fatal(err)
	}

	defect := Env{Defect: DefectSkipFaults}
	f := CheckAll(ctx, defectScenario(), Oracles(), defect)
	if f == nil {
		t.Fatalf("defect scenario not caught; cannot record walkthrough entry")
	}
	f.Shrink(ctx, defect)
	if _, err := WriteEntry(testdataCorpus, f); err != nil {
		t.Fatal(err)
	}

	for _, index := range []int{0, 2} {
		sc := Generate(1, index)
		if got := CheckAll(ctx, sc, Oracles(), Env{}); got != nil {
			t.Fatalf("Generate(1, %d) not green: %s: %s", index, got.Oracle, got.Detail)
		}
		entry := &Finding{
			Oracle:   "all", // no such oracle: Replay runs the whole bank
			Seed:     1,
			Index:    index,
			Detail:   "pinned all-green regression scenario",
			Scenario: sc,
		}
		if _, err := WriteEntry(testdataCorpus, entry); err != nil {
			t.Fatal(err)
		}
	}

	// Generate(1, 126) once caught a real bug: with rrbp_entries:-1, a PIVOT
	// run resumed from a checkpoint serialised differently from an
	// uninterrupted one (the unlimited RRBP table's zero-decayed counters
	// were dropped on restore but kept in the live map; the snapshot
	// encoding is canonical now — internal/rrbp/state_test.go pins the unit
	// fix). The scenario stays pinned here so the exact geometry keeps
	// running through the whole bank.
	rrbpBug := Generate(1, 126)
	if got := CheckAll(ctx, rrbpBug, Oracles(), Env{}); got != nil {
		t.Fatalf("Generate(1, 126) (rrbp zero-decay regression) not green: %s: %s", got.Oracle, got.Detail)
	}
	entry := &Finding{
		Oracle:   "all",
		Seed:     1,
		Index:    126,
		Detail:   "pinned regression: unlimited-RRBP zero-decayed counters once broke checkpoint resume",
		Scenario: rrbpBug,
	}
	if _, err := WriteEntry(testdataCorpus, entry); err != nil {
		t.Fatal(err)
	}

	// Pinned load-shape scenario: every load-model feature (phase program
	// with ramp/sine/off segments, MMPP-2 bursts, tenant windows, Zipf skew)
	// in one stanza, replayed through the whole bank — including the
	// stationary-equivalence oracle, whose neutral-program contract anchors
	// the refactored arrival path.
	loadSc := loadShapeScenario()
	if err := loadSc.Validate(); err != nil {
		t.Fatalf("load-shape scenario invalid: %v", err)
	}
	if got := CheckAll(ctx, loadSc, Oracles(), Env{}); got != nil {
		t.Fatalf("load-shape scenario not green: %s: %s", got.Oracle, got.Detail)
	}
	loadEntry := &Finding{
		Oracle:   "all",
		Detail:   "pinned: phase/onoff/window/zipf load stanza through the whole bank",
		Scenario: loadSc,
	}
	if _, err := WriteEntry(testdataCorpus, loadEntry); err != nil {
		t.Fatal(err)
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
