package rrbp

import (
	"testing"
	"testing/quick"
)

func cfg() Config {
	return Config{Entries: 16, CounterMax: 63, RefreshCycles: 1000,
		LowThreshold: 1, HighThreshold: 4}
}

func TestConsecutiveLongStallsFlag(t *testing.T) {
	tb := New(cfg()) // starts at the conservative (high) threshold
	pc := uint64(0x400000)
	for i := 0; i < 3; i++ {
		tb.RecordRetire(pc, true)
	}
	if tb.IsCritical(pc) {
		t.Fatal("flagged below the high threshold")
	}
	tb.RecordRetire(pc, true)
	if !tb.IsCritical(pc) {
		t.Fatal("not flagged at the high threshold")
	}
}

func TestShortStallDecrementsCounter(t *testing.T) {
	tb := New(cfg())
	pc := uint64(0x400000)
	// Alternating long/short keeps the counter near zero: never critical at
	// the conservative threshold.
	for i := 0; i < 50; i++ {
		tb.RecordRetire(pc, true)
		tb.RecordRetire(pc, false)
	}
	if tb.IsCritical(pc) {
		t.Fatal("alternating stalls must not flag under the high threshold")
	}
}

func TestStickyFlagSurvivesThresholdRaise(t *testing.T) {
	tb := New(cfg())
	tb.SetUnderBandwidth(true) // aggressive: threshold 1
	pc := uint64(0x400000)
	tb.RecordRetire(pc, true)
	if !tb.IsCritical(pc) {
		t.Fatal("aggressive mode should flag after one long stall")
	}
	tb.SetUnderBandwidth(false) // conservative again
	// Even a decrement below the new threshold must not unflag within the
	// window (that oscillation is exactly what stickiness prevents).
	tb.RecordRetire(pc, false)
	if !tb.IsCritical(pc) {
		t.Fatal("sticky flag lost on threshold raise")
	}
}

func TestRefreshClears(t *testing.T) {
	tb := New(cfg())
	pc := uint64(0x400000)
	for i := 0; i < 10; i++ {
		tb.RecordRetire(pc, true)
	}
	if !tb.IsCritical(pc) {
		t.Fatal("setup: pc should be critical")
	}
	tb.MaybeRefresh(500) // below interval: no-op
	if !tb.IsCritical(pc) {
		t.Fatal("refresh fired early")
	}
	tb.MaybeRefresh(1500)
	if tb.IsCritical(pc) {
		t.Fatal("refresh did not clear the flag")
	}
	if tb.Refreshes != 1 {
		t.Fatalf("refreshes = %d, want 1", tb.Refreshes)
	}
}

func TestCounterSaturation(t *testing.T) {
	c := cfg()
	c.CounterMax = 3
	tb := New(c)
	pc := uint64(0x400000)
	for i := 0; i < 100; i++ {
		tb.RecordRetire(pc, true)
	}
	counters, _ := tb.Snapshot()
	for _, v := range counters {
		if v > 3 {
			t.Fatalf("counter %d exceeds CounterMax 3", v)
		}
	}
}

func TestAliasingSharesEntries(t *testing.T) {
	c := cfg()
	c.Entries = 1 // everything aliases
	tb := New(c)
	tb.SetUnderBandwidth(true)
	tb.RecordRetire(0x1000, true)
	if !tb.IsCritical(0x9999_0000) {
		t.Fatal("1-entry table should alias all PCs onto one counter")
	}
}

func TestUnlimitedTableNoAliasing(t *testing.T) {
	c := cfg()
	c.Entries = 0 // fully associative
	tb := New(c)
	tb.SetUnderBandwidth(true)
	tb.RecordRetire(0x1000, true)
	if !tb.IsCritical(0x1000) {
		t.Fatal("recorded pc not critical")
	}
	if tb.IsCritical(0x2000) {
		t.Fatal("unlimited table aliased distinct PCs")
	}
	tb.MaybeRefresh(5000)
	if tb.IsCritical(0x1000) {
		t.Fatal("unlimited table not cleared by refresh")
	}
}

func TestThresholdSwitch(t *testing.T) {
	tb := New(cfg())
	if tb.Threshold() != 4 {
		t.Fatalf("initial threshold = %d, want conservative 4", tb.Threshold())
	}
	tb.SetUnderBandwidth(true)
	if tb.Threshold() != 1 {
		t.Fatalf("aggressive threshold = %d, want 1", tb.Threshold())
	}
	tb.SetUnderBandwidth(false)
	if tb.Threshold() != 4 {
		t.Fatalf("conservative threshold = %d, want 4", tb.Threshold())
	}
}

// TestCounterNeverNegative: any interleaving of long/short retirements keeps
// counters within [0, CounterMax].
func TestCounterBoundsProperty(t *testing.T) {
	f := func(events []bool, pcs []uint8) bool {
		tb := New(cfg())
		for i, long := range events {
			pc := uint64(0x1000)
			if len(pcs) > 0 {
				pc += uint64(pcs[i%len(pcs)]) * 4
			}
			tb.RecordRetire(pc, long)
		}
		counters, _ := tb.Snapshot()
		for _, v := range counters {
			if v > tb.cfg.CounterMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	d := DefaultConfig()
	if d.Entries != 64 || d.CounterMax != 63 || d.RefreshCycles != 1_000_000 {
		t.Fatalf("default config drifted from the paper: %+v", d)
	}
}
