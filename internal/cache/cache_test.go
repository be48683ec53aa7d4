package cache

import (
	"testing"
	"testing/quick"

	"pivot/internal/mem"
)

func testConfig() Config {
	return Config{Name: "t", SizeBytes: 4096, Ways: 4, LineBytes: 64, HitCycles: 1, MSHRs: 4}
}

func TestValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Name: "zero"},
		{Name: "odd", SizeBytes: 4096 + 64, Ways: 4, LineBytes: 64},
		{Name: "npo2", SizeBytes: 3 * 64 * 4, Ways: 4, LineBytes: 64},
		{Name: "32way", SizeBytes: 4 * 32 * 64, Ways: 32, LineBytes: 64},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q accepted, want error", c.Name)
		}
	}
}

func TestLookupInsert(t *testing.T) {
	c := MustNew(testConfig())
	if c.Lookup(0x1000, 0) {
		t.Fatal("hit in empty cache")
	}
	c.Insert(0x1000, 0)
	if !c.Lookup(0x1000, 0) {
		t.Fatal("miss after insert")
	}
	// Same line, different offset, still hits.
	if !c.Lookup(0x1020, 0) {
		t.Fatal("miss within the inserted line")
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(testConfig()) // 16 sets, 4 ways
	// Fill one set (stride = sets*line = 1024).
	addrs := []uint64{0, 1024, 2048, 3072}
	for _, a := range addrs {
		c.Insert(a, 0)
	}
	c.Lookup(0, 0) // make address 0 most recent
	ev, valid := c.Insert(4096, 0)
	if !valid || ev != 1024 {
		t.Fatalf("evicted %#x (valid=%v), want LRU 0x400", ev, valid)
	}
	if !c.Contains(0) || c.Contains(1024) {
		t.Fatal("LRU state wrong after eviction")
	}
}

func TestWayPartitioning(t *testing.T) {
	c := MustNew(testConfig())
	c.SetWayMask(1, 0b0011) // part 1 may only allocate ways 0-1

	// Part 1 streams through one set: at most 2 lines survive.
	for i := uint64(0); i < 8; i++ {
		c.Insert(i*1024, 1)
	}
	live := 0
	for i := uint64(0); i < 8; i++ {
		if c.Contains(i * 1024) {
			live++
		}
	}
	if live != 2 {
		t.Fatalf("partition holds %d lines, want 2", live)
	}

	// Unrestricted part 0 lines in other ways are not disturbed.
	c2 := MustNew(testConfig())
	c2.SetWayMask(1, 0b0001)
	c2.Insert(0, 0)    // way 0 (first free)
	c2.Insert(1024, 0) // way 1
	c2.Insert(2048, 0) // way 2
	c2.Insert(3072, 0) // way 3
	c2.Insert(4096, 1) // part 1 must evict way 0 only
	if c2.Contains(0) {
		t.Fatal("masked insert did not evict from its own way")
	}
	for _, a := range []uint64{1024, 2048, 3072} {
		if !c2.Contains(a) {
			t.Fatalf("masked insert evicted %#x outside its ways", a)
		}
	}
	// Lookups still hit in any way (CAT semantics).
	if !c2.Lookup(1024, 1) {
		t.Fatal("partitioned part cannot hit lines in foreign ways")
	}
}

// TestCacheInclusionProperty: after any insert sequence, a line is present
// iff it was inserted and not evicted since — checked against a reference
// model implementing the same LRU-within-allowed-ways policy.
func TestCacheInclusionProperty(t *testing.T) {
	f := func(ops []uint16, seed uint8) bool {
		c := MustNew(testConfig())
		present := make(map[uint64]bool)
		for _, op := range ops {
			addr := uint64(op%512) * 64
			if op%3 == 0 {
				ev, valid := c.Insert(addr, mem.PartID(op%2))
				present[addr] = true
				if valid {
					if !present[ev] {
						return false // evicted a line the model never saw
					}
					delete(present, ev)
				}
			} else {
				got := c.Lookup(addr, 0)
				if got != present[addr] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMissRateAndReset(t *testing.T) {
	c := MustNew(testConfig())
	c.Lookup(0, 3)
	c.Insert(0, 3)
	c.Lookup(0, 3)
	if got := c.Stats.MissRate(); got != 0.5 {
		t.Fatalf("miss rate = %v, want 0.5", got)
	}
	if got := c.PartStats[3].Misses; got != 1 {
		t.Fatalf("part misses = %d, want 1", got)
	}
	c.ResetStats()
	if c.Stats != (Stats{}) || c.PartStats[3] != (Stats{}) {
		t.Fatal("ResetStats left counters")
	}
	if (Stats{}).MissRate() != 0 {
		t.Fatal("empty MissRate should be 0")
	}
}

func TestMSHRFile(t *testing.T) {
	m := NewMSHRFile(2)
	if m.Lookup(0x40) != nil || m.Full() {
		t.Fatal("empty file should have room and no entry")
	}
	e1 := m.Allocate(0x40)
	if e1 == nil || e1.Addr != 0x40 || len(e1.Waiters) != 0 {
		t.Fatal("first allocation should create an empty entry")
	}
	e1.Waiters = append(e1.Waiters, 7)
	if m.Lookup(0x40) != e1 {
		t.Fatal("same-line lookup should find the entry to coalesce onto")
	}
	if m.Full() {
		t.Fatal("file with 1/2 entries reported full")
	}
	if e := m.Allocate(0x80); e.Addr != 0x80 || m.Lookup(0x80) != e {
		t.Fatal("second line should allocate")
	}
	if !m.Full() {
		t.Fatal("file with 2/2 entries should be full")
	}
	// Fill hands back the removed entry's contents; the pointer itself is a
	// scratch slot, valid until the next Allocate or Fill, not e1's identity.
	if got := m.Fill(0x40); got == nil || got.Addr != 0x40 ||
		len(got.Waiters) != 1 || got.Waiters[0] != 7 {
		t.Fatal("fill returned wrong entry")
	}
	if m.Lookup(0x40) != nil {
		t.Fatal("entry survives fill")
	}
	if m.Fill(0x40) != nil {
		t.Fatal("double fill returned an entry")
	}
	if m.Len() != 1 {
		t.Fatalf("len = %d, want 1", m.Len())
	}
}
