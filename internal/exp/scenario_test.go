package exp

import (
	"encoding/json"
	"strings"
	"testing"

	"pivot/internal/machine"
	"pivot/internal/scenario"
)

// axisOf builds a sweep axis from Go values.
func axisOf(t *testing.T, param string, vals ...any) scenario.Axis {
	t.Helper()
	a := scenario.Axis{Param: param}
	for _, v := range vals {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		a.Values = append(a.Values, raw)
	}
	return a
}

// TestScenarioMachineAxis runs a machine.cores sweep end to end through the
// harness's unit path (UnitResolver, SpecForUnit, Run, ScenarioTable):
// per-unit sibling contexts build differently sized machines and the summary
// table carries one row per geometry.
func TestScenarioMachineAxis(t *testing.T) {
	sc := &scenario.Scenario{
		Version: scenario.Version,
		Name:    "cores-sweep",
		Policy:  "Default",
		Warmup:  10_000,
		Measure: 20_000,
		Seed:    1,
	}
	sc.Machine.Cores = 2
	sc.Sweep = []scenario.Axis{axisOf(t, "machine.cores", 2, 4)}
	sc.Tasks = []scenario.Task{
		{Kind: scenario.KindLC, App: "masstree", Interarrival: 3_000},
		{Kind: scenario.KindBE, App: "ibench", Threads: 1},
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(machine.KunpengConfig(2), tinyScale())

	// The axis must reach the built machine, not just the row label: each
	// unit resolves to a context whose config carries that unit's core count
	// (and, since the presets scale the LLC with cores, a different cache).
	units, err := sc.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	resolve := ctx.UnitResolver()
	var labels []string
	var results []RunResult
	for i, wantCores := range []int{2, 4} {
		uctx := resolve(units[i])
		cfg := uctx.Cfg
		if cfg.Cores != wantCores {
			t.Errorf("unit %d resolved to %d cores, want %d", i, cfg.Cores, wantCores)
		}
		if want := wantCores * (2 << 20); cfg.LLC.SizeBytes != want {
			t.Errorf("unit %d LLC is %d bytes, want %d", i, cfg.LLC.SizeBytes, want)
		}
		spec, err := uctx.SpecForUnit(units[i])
		if err != nil {
			t.Fatal(err)
		}
		labels = append(labels, UnitLabel(sc, units[i]))
		results = append(results, tRun(t, uctx, spec))
	}

	tbl := ScenarioTable(sc, labels, results)
	if len(tbl.Rows) != 2 {
		t.Fatalf("table has %d rows, want 2", len(tbl.Rows))
	}
	for i, wantLabel := range []string{"machine.cores=2", "machine.cores=4"} {
		if !strings.Contains(tbl.Rows[i][0], wantLabel) {
			t.Errorf("row %d label %q, want %q", i, tbl.Rows[i][0], wantLabel)
		}
	}
}
