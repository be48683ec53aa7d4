package rrbp

import (
	"reflect"
	"testing"
)

func unlimitedConfig() Config {
	cfg := DefaultConfig()
	cfg.Entries = 0
	return cfg
}

// TestUnlimitedSnapshotCanonical: a counter that decayed to exactly zero
// leaves a map key behind in the live table; the snapshot must omit it, so a
// table that kept the key and one that never had it serialise identically
// (regression for a state divergence found by the scenfuzz oracles).
func TestUnlimitedSnapshotCanonical(t *testing.T) {
	tb := New(unlimitedConfig())
	const hot, decayed = 0x400100, 0x400200
	tb.RecordLongStall(hot)
	tb.RecordLongStall(hot)
	tb.RecordLongStall(decayed)
	tb.RecordRetire(decayed, false) // 1 → 0: key stays in the map
	if _, ok := tb.unlimited[decayed]; !ok {
		t.Fatalf("test setup: decayed pc lost its map entry")
	}

	s := tb.SnapshotState()
	for _, e := range s.Unlimited {
		if e.PC == decayed {
			t.Fatalf("zero-counter entry %+v serialised; encoding not canonical", e)
		}
	}

	never := New(unlimitedConfig())
	never.RecordLongStall(hot)
	never.RecordLongStall(hot)
	got := never.SnapshotState()
	if !reflect.DeepEqual(s.Unlimited, got.Unlimited) {
		t.Fatalf("snapshot keeps a trace of the decayed pc:\ndecayed: %+v\nnever:   %+v", s.Unlimited, got.Unlimited)
	}
}

// TestUnlimitedFlagOnlySurvivesRoundTrip: a sticky flag whose counter is
// gone (post-refresh clear) must survive into the snapshot as a flag-only
// entry.
func TestUnlimitedFlagOnlySurvivesRoundTrip(t *testing.T) {
	tb := New(unlimitedConfig())
	const pc = 0x400300
	for i := 0; i < 8; i++ {
		tb.RecordLongStall(pc)
	}
	if !tb.IsCritical(pc) {
		t.Fatalf("pc not flagged after %d long stalls", 8)
	}
	// Decay the counter all the way back to zero; the sticky flag remains.
	for i := 0; i < 16; i++ {
		tb.RecordRetire(pc, false)
	}
	s := tb.SnapshotState()
	want := []UnlimitedEntryState{{PC: pc, Flag: true}}
	if !reflect.DeepEqual(s.Unlimited, want) {
		t.Fatalf("snapshot entries = %+v, want the flag-only %+v", s.Unlimited, want)
	}
}
