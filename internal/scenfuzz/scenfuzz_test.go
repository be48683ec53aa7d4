package scenfuzz

import (
	"bytes"
	"context"
	"testing"

	"pivot/internal/scenario"
)

// TestGenerateDeterministic: the generator is a pure function of (seed,
// index) — byte-identical encodes on repeat, distinct scenarios across
// indices and seeds.
func TestGenerateDeterministic(t *testing.T) {
	for i := 0; i < 20; i++ {
		a := Generate(42, i).MustEncode()
		b := Generate(42, i).MustEncode()
		if !bytes.Equal(a, b) {
			t.Fatalf("Generate(42, %d) not deterministic:\n%s\n%s", i, a, b)
		}
	}
	if bytes.Equal(Generate(42, 0).MustEncode(), Generate(42, 1).MustEncode()) {
		t.Fatalf("Generate(42, 0) == Generate(42, 1); indices should differ")
	}
	if bytes.Equal(Generate(42, 0).MustEncode(), Generate(43, 0).MustEncode()) {
		t.Fatalf("Generate(42, 0) == Generate(43, 0); seeds should differ")
	}
}

// TestGenerateValidAndDiverse: every generated scenario validates, is
// executable by the oracle bank, and the population exercises the schema's
// optional dimensions (faults, sweeps, inline apps, BE co-runners).
func TestGenerateValidAndDiverse(t *testing.T) {
	var faults, sweeps, inline, be, loads, shaped int
	const n = 150
	for i := 0; i < n; i++ {
		sc := Generate(7, i) // Generate panics on an invalid scenario
		if err := Executable(sc); err != nil {
			t.Fatalf("Generate(7, %d) not executable: %v", i, err)
		}
		if sc.Faults != nil {
			faults++
		}
		if len(sc.Sweep) > 0 {
			sweeps++
		}
		for _, task := range sc.Tasks {
			if task.LCParams != nil || task.BEParams != nil {
				inline++
				break
			}
		}
		for _, task := range sc.Tasks {
			if task.Kind == scenario.KindBE {
				be++
				break
			}
		}
		for _, task := range sc.Tasks {
			if task.Load != nil {
				loads++
				break
			}
		}
		for _, task := range sc.Tasks {
			if task.Load.Shaped() {
				shaped++
				break
			}
		}
	}
	for name, got := range map[string]int{"faults": faults, "sweeps": sweeps, "inline params": inline, "BE tasks": be, "load stanzas": loads, "shaped arrivals": shaped} {
		if got == 0 {
			t.Errorf("no generated scenario out of %d used %s", n, name)
		}
	}
}

// TestShrinkConvergence: table-driven structural predicates — the shrinker
// must land on a valid fixed point (shrinking the result is a no-op) that
// still satisfies the predicate it was minimising against.
func TestShrinkConvergence(t *testing.T) {
	// Generate(1, 3) is a rich starting point: two LC tasks, a two-station
	// fault plan, a sweep axis and several options (pinned by determinism).
	rich := Generate(1, 3)
	if rich.Faults == nil || len(rich.Sweep) == 0 || len(rich.Tasks) < 2 {
		t.Fatalf("Generate(1, 3) no longer rich enough for this test: %s", rich.MustEncode())
	}
	cases := []struct {
		name string
		keep Predicate
	}{
		{"always", func(*scenario.Scenario) bool { return true }},
		{"keeps-policy", func(c *scenario.Scenario) bool { return c.Policy == rich.Policy }},
		{"keeps-two-tasks", func(c *scenario.Scenario) bool { return len(c.Tasks) >= 2 }},
		{"keeps-a-fault-drop", func(c *scenario.Scenario) bool {
			if c.Faults == nil {
				return false
			}
			for _, r := range c.Faults.Stations {
				if r.Drop > 0 {
					return true
				}
			}
			return false
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.keep(rich) {
				t.Fatalf("predicate does not hold on the input")
			}
			min := Shrink(rich, tc.keep)
			if !tc.keep(min) {
				t.Fatalf("shrunk scenario no longer satisfies predicate: %s", min.MustEncode())
			}
			if err := min.Validate(); err != nil {
				t.Fatalf("shrunk scenario invalid: %v", err)
			}
			again := Shrink(min, tc.keep)
			if !bytes.Equal(min.MustEncode(), again.MustEncode()) {
				t.Fatalf("shrink not a fixed point:\nonce:  %s\ntwice: %s", min.MustEncode(), again.MustEncode())
			}
		})
	}
}

// defectScenario is a deliberately small, sweep-free mix with some shrinkable
// slack (seed, prefetch, long-ish windows) for the defect walkthrough.
func defectScenario() *scenario.Scenario {
	sc := &scenario.Scenario{
		Version: scenario.Version,
		Name:    "defect-demo",
		Policy:  "Default",
		Warmup:  8_000,
		Measure: 16_000,
		Seed:    5,
	}
	sc.Machine.Cores = 2
	sc.Options.Prefetch = true
	sc.Tasks = []scenario.Task{{Kind: scenario.KindLC, App: "masstree", Interarrival: 3_000}}
	return sc
}

// TestDefectCaughtShrunkAndReplayable is the end-to-end proof the issue asks
// for: a deliberately seeded skip-ahead defect is caught by the equivalence
// oracle, shrunk to a minimal reproduction, recorded as a corpus entry, and
// that entry fails under replay with the defect armed and passes without it.
func TestDefectCaughtShrunkAndReplayable(t *testing.T) {
	ctx := context.Background()
	sc := defectScenario()
	if err := sc.Validate(); err != nil {
		t.Fatalf("defect scenario invalid: %v", err)
	}
	defect := Env{Defect: DefectSkipFaults}

	f := CheckAll(ctx, sc, Oracles(), defect)
	if f == nil {
		t.Fatalf("seeded defect %q not caught by any oracle", DefectSkipFaults)
	}
	if f.Oracle != "equiv" {
		t.Fatalf("defect caught by oracle %q, want equiv (detail: %s)", f.Oracle, f.Detail)
	}
	if len(f.Transcript) == 0 {
		t.Errorf("finding has no oracle transcript")
	}

	f.Shrink(ctx, defect)
	min := f.Scenario
	if err := min.Validate(); err != nil {
		t.Fatalf("minimized scenario invalid: %v", err)
	}
	if min.Seed != 1 || min.Options.Prefetch {
		t.Errorf("shrinker left removable detail in place: %s", min.MustEncode())
	}
	if got := CheckAll(ctx, min, Oracles(), defect); got == nil || got.Oracle != "equiv" {
		t.Fatalf("minimized scenario no longer reproduces the defect: %+v", got)
	}
	if got := CheckAll(ctx, min, Oracles(), Env{}); got != nil {
		t.Fatalf("minimized scenario fails even without the defect: %s: %s", got.Oracle, got.Detail)
	}

	corpus := t.TempDir()
	dir, err := WriteEntry(corpus, f)
	if err != nil {
		t.Fatalf("WriteEntry: %v", err)
	}
	entries, err := LoadCorpus(corpus)
	if err != nil {
		t.Fatalf("LoadCorpus: %v", err)
	}
	if len(entries) != 1 || entries[0].Dir != dir {
		t.Fatalf("LoadCorpus = %+v, want the one entry at %s", entries, dir)
	}
	if entries[0].Meta.Oracle != "equiv" || entries[0].Meta.Defect != DefectSkipFaults {
		t.Fatalf("entry metadata %+v lost oracle/defect attribution", entries[0].Meta)
	}
	if !bytes.Equal(entries[0].Scenario.MustEncode(), min.MustEncode()) {
		t.Fatalf("corpus round-trip changed the scenario")
	}

	failed, err := Replay(ctx, corpus, defect, nil)
	if err != nil {
		t.Fatalf("Replay(defect): %v", err)
	}
	if len(failed) != 1 {
		t.Fatalf("replay with defect armed: %d failures, want 1", len(failed))
	}
	failed, err = Replay(ctx, corpus, Env{}, nil)
	if err != nil {
		t.Fatalf("Replay(clean): %v", err)
	}
	if len(failed) != 0 {
		t.Fatalf("replay without defect: %d failures, want 0 (first: %s)", len(failed), failed[0].Detail)
	}
}

// TestRunCampaignGreen: a small campaign on the current tree comes back
// all-green and writes no corpus entries.
func TestRunCampaignGreen(t *testing.T) {
	corpus := t.TempDir()
	sum, err := Run(context.Background(), Config{
		Seed:     1,
		N:        4,
		Parallel: 2,
		Corpus:   corpus,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Checked != 4 || sum.Skipped != 0 {
		t.Fatalf("Summary = %+v, want 4 checked, 0 skipped", sum)
	}
	if len(sum.Findings) != 0 {
		t.Fatalf("campaign found %d findings on a clean tree; first: %s: %s",
			len(sum.Findings), sum.Findings[0].Oracle, sum.Findings[0].Detail)
	}
	entries, err := LoadCorpus(corpus)
	if err != nil {
		t.Fatalf("LoadCorpus: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("clean campaign wrote %d corpus entries", len(entries))
	}
}
