package scenario

import (
	"bytes"
	"strings"
	"testing"
)

// TestMachineSweepAxes expands a two-axis machine-parameter sweep and checks
// every unit carries the right geometry.
func TestMachineSweepAxes(t *testing.T) {
	doc := `{"version":1,"name":"t","policy":"Default",
	         "machine":{"cores":2},
	         "tasks":[{"kind":"lc","app":"silo","load_pct":70}],
	         "sweep":[{"param":"machine.cores","values":[2,4]},
	                  {"param":"machine.be_ways","values":[1,2]}]}`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	units, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(units) != 4 {
		t.Fatalf("Expand produced %d units, want 4", len(units))
	}
	want := []struct {
		cores, ways int
		label       string
	}{
		{2, 1, "machine.cores=2 machine.be_ways=1"},
		{2, 2, "machine.cores=2 machine.be_ways=2"},
		{4, 1, "machine.cores=4 machine.be_ways=1"},
		{4, 2, "machine.cores=4 machine.be_ways=2"},
	}
	for i, u := range units {
		m := u.Scenario.Machine
		if m.Cores != want[i].cores || m.BEWays != want[i].ways {
			t.Errorf("unit %d: cores=%d be_ways=%d, want %d/%d", i, m.Cores, m.BEWays, want[i].cores, want[i].ways)
		}
		if u.Label != want[i].label {
			t.Errorf("unit %d: label %q, want %q", i, u.Label, want[i].label)
		}
	}
	if s.Machine.Cores != 2 || s.Machine.BEWays != 0 {
		t.Errorf("Expand mutated the base scenario's machine: %+v", s.Machine)
	}
}

// TestMachineSweepAxisErrors: unknown machine paths and out-of-range values
// are rejected with a field path into the sweep.
func TestMachineSweepAxisErrors(t *testing.T) {
	cases := []struct {
		name string
		axis string
		msg  string
	}{
		{"unknown machine parameter", `{"param":"machine.sockets","values":[1,2]}`,
			"unknown machine sweep parameter"},
		{"cores not positive", `{"param":"machine.cores","values":[0]}`,
			"must be positive"},
		{"be_ways negative", `{"param":"machine.be_ways","values":[-1]}`,
			"must not be negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := `{"version":1,"name":"t","policy":"Default",
			         "tasks":[{"kind":"lc","app":"silo","load_pct":70}],
			         "sweep":[` + tc.axis + `]}`
			s, err := Parse([]byte(doc))
			if err == nil {
				_, err = s.Expand()
			}
			if err == nil {
				t.Fatalf("axis %s accepted", tc.axis)
			}
			if !strings.Contains(err.Error(), tc.msg) {
				t.Errorf("error %q, want substring %q", err, tc.msg)
			}
		})
	}
}

// TestEncodeFixedPoint: for every builtin, Encode → Parse → Encode is
// byte-identical — the invariant the fuzzer's codec oracle enforces.
func TestEncodeFixedPoint(t *testing.T) {
	for name, s := range Builtins() {
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		re, err := Parse(enc)
		if err != nil {
			t.Fatalf("%s: Parse of own encoding: %v", name, err)
		}
		if !bytes.Equal(enc, re.MustEncode()) {
			t.Errorf("%s: encode not a fixed point", name)
		}
	}
}
