package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// parseUnit builds the scenario pivotsim's run flags describe.
func parseUnit(t *testing.T, args ...string) *unitFlags {
	t.Helper()
	var uf unitFlags
	fs := flag.NewFlagSet("pivotsim", flag.ContinueOnError)
	uf.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return &uf
}

// TestFlagsBuildScenario pins the encoded one-unit scenario each flag
// combination builds.
func TestFlagsBuildScenario(t *testing.T) {
	const head = `{"version":1,"name":"pivotsim",`
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, head + `"machine":{"cores":8},"policy":"PIVOT","options":{},"tasks":[` +
			`{"kind":"lc","app":"masstree","interarrival":4000},{"kind":"be","app":"ibench","threads":7}],` +
			`"warmup":400000,"measure":600000,"seed":1}`},
		{[]string{"-lc", "silo", "-ia", "2500", "-be", "graph-analytics", "-threads", "3", "-cores", "4",
			"-policy", "cbp+fullpath", "-warmup", "1000", "-measure", "2000", "-seed", "7"},
			head + `"machine":{"cores":4},"policy":"CBP+FullPath","options":{},"tasks":[` +
				`{"kind":"lc","app":"silo","interarrival":2500},{"kind":"be","app":"graph-analytics","threads":3}],` +
				`"warmup":1000,"measure":2000,"seed":7}`},
		{[]string{"-threads", "0", "-policy", "default"},
			head + `"machine":{"cores":8},"policy":"Default","options":{},"tasks":[` +
				`{"kind":"lc","app":"masstree","interarrival":4000}],` +
				`"warmup":400000,"measure":600000,"seed":1}`},
		{[]string{"-neoverse", "-policy", "Mba"},
			head + `"machine":{"preset":"neoverse","cores":8},"policy":"MBA","options":{},"tasks":[` +
				`{"kind":"lc","app":"masstree","interarrival":4000},{"kind":"be","app":"ibench","threads":7}],` +
				`"warmup":400000,"measure":600000,"seed":1}`},
		{[]string{"-zipf", "0.9", "-policy", "parties"},
			head + `"machine":{"cores":8},"policy":"PARTIES","options":{},"tasks":[` +
				`{"kind":"lc","app":"masstree","interarrival":4000,"load":{"zipf_theta":0.9}},{"kind":"be","app":"ibench","threads":7}],` +
				`"warmup":400000,"measure":600000,"seed":1}`},
		{[]string{"-ia", "0", "-policy", "CLITE"},
			head + `"machine":{"cores":8},"policy":"CLITE","options":{},"tasks":[` +
				`{"kind":"lc","app":"masstree"},{"kind":"be","app":"ibench","threads":7}],` +
				`"warmup":400000,"measure":600000,"seed":1}`},
	} {
		sc := parseUnit(t, tc.args...).scenario()
		if err := sc.Validate(); err != nil {
			t.Errorf("%q: %v", tc.args, err)
		}
		if got := strings.TrimSpace(string(sc.MustEncode())); got != tc.want {
			t.Errorf("%q encodes\n  %s\nwant\n  %s", tc.args, got, tc.want)
		}
	}
}

// TestFlagsRejectedByScenarioLayer: a bad run flag fails scenario
// validation, and the error names the scenario field it set.
func TestFlagsRejectedByScenarioLayer(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		field string
	}{
		{[]string{"-lc", "nosuch"}, "tasks[0].app"},
		{[]string{"-be", "nosuch"}, "tasks[1].app"},
		{[]string{"-lc", "ibench"}, "tasks[0].app"},
		{[]string{"-policy", "cbp-fullpath"}, "policy"},
		{[]string{"-zipf", "1"}, "tasks[0].load.zipf_theta"},
		{[]string{"-zipf", "-0.5"}, "tasks[0].load.zipf_theta"},
		{[]string{"-cores", "4", "-threads", "4"}, "tasks"},
		{[]string{"-ia", "-1"}, "tasks[0].interarrival"},
	} {
		err := parseUnit(t, tc.args...).scenario().Validate()
		if err == nil || !strings.HasPrefix(err.Error(), "scenario: "+tc.field+":") {
			t.Errorf("%q: got %v, want an error on %s", tc.args, err, tc.field)
		}
	}
}

// TestMatchesPivotExpScenario runs the pivotsim and pivot-exp binaries on
// the same unit — pivotsim from flags, pivot-exp from the scenario those
// flags encode — and requires byte-identical tables: one code path builds
// every co-location run.
func TestMatchesPivotExpScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs both CLIs")
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir, "pivot/cmd/pivotsim", "pivot/cmd/pivot-exp")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(name string, args ...string) []byte {
		t.Helper()
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(dir, name), args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s %q: %v\n%s", name, args, err, stderr.Bytes())
		}
		return stdout.Bytes()
	}
	for _, policy := range []string{"default", "pivot", "mba"} {
		args := []string{"-lc", "masstree", "-ia", "3000", "-be", "ibench", "-threads", "2",
			"-cores", "4", "-policy", policy, "-warmup", "20000", "-measure", "40000"}
		path := filepath.Join(dir, policy+".json")
		if err := os.WriteFile(path, parseUnit(t, args...).scenario().MustEncode(), 0o644); err != nil {
			t.Fatal(err)
		}
		got := run("pivotsim", args...)
		want := run("pivot-exp", "-quiet", "-scenario", path)
		if !bytes.Equal(got, want) {
			t.Errorf("-policy %s: pivotsim printed\n%s\npivot-exp -scenario printed\n%s", policy, got, want)
		}
		if !bytes.Contains(got, []byte("pivotsim ")) {
			t.Errorf("-policy %s: no unit row in\n%s", policy, got)
		}
	}
}
