package cache

import "pivot/internal/stats"

// MSHRFile tracks outstanding misses for one cache. Each entry coalesces all
// waiters for the same line; when the file is full the cache must stall new
// misses, which is one of the back-pressure points that lets bandwidth
// contention propagate toward the core.
//
// The file is a fixed-capacity array searched linearly: capacities are small
// (tens of entries) and every core's load path probes the file, so a linear
// scan beats a map's hashing and its per-entry heap traffic. Entry order is
// arbitrary (swap-remove); snapshots sort by address, so serialisation stays
// deterministic.
type MSHRFile struct {
	max int
	// entries holds the live entries; its backing array never reallocates,
	// and each slot keeps its waiter slice's backing array across reuse
	// (Fill swaps the removed entry past the end, Allocate truncates).
	entries []MSHREntry
}

// MSHREntry is one outstanding miss with its coalesced waiters. Waiters are
// opaque load sequence numbers (cpu.LoadRequest.Seq); the owner interprets
// them. Plain integers rather than callbacks keep in-flight misses
// serialisable in the machine's state snapshot.
type MSHREntry struct {
	Addr    uint64
	Waiters []uint64
}

// NewMSHRFile returns an MSHR file with capacity max.
func NewMSHRFile(max int) *MSHRFile {
	return &MSHRFile{max: max, entries: make([]MSHREntry, 0, max)}
}

// Full reports whether a new (non-coalescing) allocation would fail.
func (m *MSHRFile) Full() bool { return len(m.entries) >= m.max }

// Len reports the number of live entries.
func (m *MSHRFile) Len() int { return len(m.entries) }

// Lookup returns the entry for addr, or nil. The pointer is valid only until
// the next Allocate or Fill.
func (m *MSHRFile) Lookup(addr uint64) *MSHREntry {
	for i := range m.entries {
		if m.entries[i].Addr == addr {
			return &m.entries[i]
		}
	}
	return nil
}

// Allocate returns the entry for addr, creating it if needed. The boolean is
// true when a new entry was created (i.e. a downstream request must be sent)
// and false when the miss coalesced onto an existing entry. If the file is
// full and addr has no entry, Allocate returns (nil, false).
func (m *MSHRFile) Allocate(addr uint64) (*MSHREntry, bool) {
	if e := m.Lookup(addr); e != nil {
		return e, false
	}
	if m.Full() {
		return nil, false
	}
	m.entries = m.entries[:len(m.entries)+1]
	e := &m.entries[len(m.entries)-1]
	e.Addr, e.Waiters = addr, e.Waiters[:0]
	return e, true
}

// RegisterStats registers the file's occupancy gauge under prefix: sustained
// occupancy at capacity is the structural stall the core sees as a refused
// load port.
func (m *MSHRFile) RegisterStats(reg *stats.Registry, prefix string) {
	reg.Gauge(prefix+".occupancy", func() float64 { return float64(len(m.entries)) })
}

// Fill removes and returns the entry for addr (nil if absent). The returned
// pointer — waiters included — is valid only until the next Allocate or Fill.
func (m *MSHRFile) Fill(addr uint64) *MSHREntry {
	for i := range m.entries {
		if m.entries[i].Addr != addr {
			continue
		}
		last := len(m.entries) - 1
		m.entries[i], m.entries[last] = m.entries[last], m.entries[i]
		m.entries = m.entries[:last]
		return &m.entries[:last+1][last]
	}
	return nil
}
