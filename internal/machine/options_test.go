package machine

import (
	"strings"
	"testing"

	"pivot/internal/cbp"
	"pivot/internal/rrbp"
)

// TestOptionsNormalize pins the single defaulting pass: expected-bandwidth
// fallback, RRBP/CBP zero-value defaults with the scaled refresh, and the
// starvation-guard zeroing on the construction config only.
func TestOptionsNormalize(t *testing.T) {
	cfg := KunpengConfig(4)

	t.Run("defaults from zero options", func(t *testing.T) {
		o, cons := Options{}.normalize(cfg)
		if o.ExpectedLCBW != 0.05 {
			t.Errorf("ExpectedLCBW = %v, want 0.05", o.ExpectedLCBW)
		}
		wantRRBP := rrbp.DefaultConfig()
		wantRRBP.RefreshCycles = ScaledRRBPRefresh
		if o.RRBP != wantRRBP {
			t.Errorf("RRBP = %+v, want default at scaled refresh %+v", o.RRBP, wantRRBP)
		}
		if o.CBP != cbp.DefaultConfig() {
			t.Errorf("CBP = %+v, want default", o.CBP)
		}
		if cons != cfg {
			t.Errorf("construction config changed without NoStarvationGuard")
		}
	})

	t.Run("explicit values survive", func(t *testing.T) {
		r := rrbp.DefaultConfig()
		r.Entries = 16
		in := Options{ExpectedLCBW: 0.3, RRBP: r, CBP: cbp.Config{Entries: 4, RefreshCycles: 99}}
		o, _ := in.normalize(cfg)
		if o.ExpectedLCBW != 0.3 || o.RRBP.Entries != 16 || o.CBP.Entries != 4 {
			t.Errorf("explicit options rewritten: %+v", o)
		}
		// An explicit RRBP config keeps its own refresh interval.
		if o.RRBP.RefreshCycles != r.RefreshCycles {
			t.Errorf("RRBP.RefreshCycles = %d, want %d", o.RRBP.RefreshCycles, r.RefreshCycles)
		}
	})

	t.Run("starvation guard zeroes MaxWait on the construction config", func(t *testing.T) {
		_, cons := Options{NoStarvationGuard: true}.normalize(cfg)
		if cons.DRAM.MaxWait != 0 || cons.IC.MaxWait != 0 ||
			cons.Bus.MaxWait != 0 || cons.BW.Station.MaxWait != 0 {
			t.Errorf("MaxWait not zeroed: dram=%d ic=%d bus=%d bw=%d",
				cons.DRAM.MaxWait, cons.IC.MaxWait, cons.Bus.MaxWait, cons.BW.Station.MaxWait)
		}
		// The input config is untouched (it is the machine fingerprint).
		if cfg.DRAM.MaxWait == 0 || cfg.IC.MaxWait == 0 {
			t.Errorf("normalize mutated the caller's config")
		}
	})

	t.Run("machine keeps the unguarded config", func(t *testing.T) {
		m := MustNew(cfg, Options{NoStarvationGuard: true}, nil)
		if m.Cfg.DRAM.MaxWait != cfg.DRAM.MaxWait {
			t.Errorf("m.Cfg.DRAM.MaxWait = %d, want %d (fingerprint must not see the guard)",
				m.Cfg.DRAM.MaxWait, cfg.DRAM.MaxWait)
		}
		if m.Opt.ExpectedLCBW != 0.05 {
			t.Errorf("m.Opt.ExpectedLCBW = %v, want normalized 0.05", m.Opt.ExpectedLCBW)
		}
	})
}

// TestConfigValidateErrors drives Config.Validate through every error path.
func TestConfigValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{
			name: "zero cores",
			mut:  func(c *Config) { c.Cores = 0 },
			want: "core count 0 must be positive",
		},
		{
			name: "negative cores",
			mut:  func(c *Config) { c.Cores = -2 },
			want: "core count -2 must be positive",
		},
		{
			name: "non-positive L1 geometry",
			mut:  func(c *Config) { c.L1.Ways = 0 },
			want: "cache L1D: non-positive geometry",
		},
		{
			name: "L2 size not divisible",
			mut:  func(c *Config) { c.L2.SizeBytes = 1000 },
			want: "cache L2: size 1000 not divisible by ways*line",
		},
		{
			name: "LLC set count not a power of two",
			mut:  func(c *Config) { c.LLC.SizeBytes = 3 * c.LLC.Ways * c.LLC.LineBytes },
			want: "cache LLC: set count 3 not a power of two",
		},
		{
			name: "zero ROB",
			mut:  func(c *Config) { c.Core.ROBSize = 0 },
			want: "cpu: ROBSize 0 must be positive",
		},
		{
			name: "zero issue width",
			mut:  func(c *Config) { c.Core.IssueWidth = 0 },
			want: "cpu: fetch/issue/commit widths must be positive",
		},
		{
			name: "zero load queue",
			mut:  func(c *Config) { c.Core.LQSize = 0 },
			want: "cpu: LQSize/SQSize must be positive",
		},
		{
			name: "zero port capacity",
			mut:  func(c *Config) { c.PortOutCap = 0 },
			want: "PortOutCap 0 must be positive",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := KunpengConfig(4)
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted the config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %q, want substring %q", err, tc.want)
			}
			if !strings.HasPrefix(err.Error(), "machine: ") {
				t.Errorf("error %q lacks the machine: prefix", err)
			}
			// New must refuse the same config rather than panic mid-assembly.
			if _, err := New(cfg, Options{}, nil); err == nil {
				t.Error("New accepted an invalid config")
			}
		})
	}
	if err := KunpengConfig(4).Validate(); err != nil {
		t.Errorf("valid preset rejected: %v", err)
	}
	if err := NeoverseConfig(8).Validate(); err != nil {
		t.Errorf("valid neoverse preset rejected: %v", err)
	}
}

// TestPolicyNames pins the names the figures and CLIs print.
func TestPolicyNames(t *testing.T) {
	for pol, want := range map[Policy]string{
		PolicyDefault: "Default", PolicyMBA: "MBA", PolicyMPAM: "MPAM",
		PolicyFullPath: "FullPath", PolicyPIVOT: "PIVOT",
		PolicyCBP: "CBP", PolicyCBPFullPath: "CBP+FullPath", PolicyManaged: "Managed",
	} {
		if pol.String() != want {
			t.Errorf("policy %d = %q, want %q", pol, pol.String(), want)
		}
	}
}
