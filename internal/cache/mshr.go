package cache

import "pivot/internal/stats"

// MSHRFile tracks outstanding misses for one cache. Each entry coalesces all
// waiters for the same line; when the file is full the cache must stall new
// misses, which is one of the back-pressure points that lets bandwidth
// contention propagate toward the core.
//
// The file is a fixed-capacity array searched linearly: capacities are small
// (tens of entries) and every core's load path probes the file, so a linear
// scan beats a map's hashing and its per-entry heap traffic. The scan reads
// addrs, a packed copy of the entries' addresses, so a probe touches one
// cache line per eight entries instead of striding over waiter slices.
// Entry order is arbitrary (swap-remove); snapshots sort by address, so
// serialisation stays deterministic.
type MSHRFile struct {
	max int
	// entries holds the live entries; its backing array never reallocates,
	// and each slot keeps its waiter slice's backing array across reuse
	// (Fill swaps the removed entry past the end, Allocate truncates).
	entries []MSHREntry
	// addrs[i] is entries[i].Addr.
	addrs []uint64
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
	return &MSHRFile{max: max, entries: make([]MSHREntry, 0, max), addrs: make([]uint64, 0, max)}
}

// Full reports whether a new (non-coalescing) allocation would fail.
func (m *MSHRFile) Full() bool { return len(m.entries) >= m.max }

// Len reports the number of live entries.
func (m *MSHRFile) Len() int { return len(m.entries) }

// index returns the position of addr's entry, or -1.
func (m *MSHRFile) index(addr uint64) int {
	for i, a := range m.addrs {
		if a == addr {
			return i
		}
	}
	return -1
}

// Lookup returns the entry for addr, or nil. The pointer is valid only until
// the next Allocate or Fill.
func (m *MSHRFile) Lookup(addr uint64) *MSHREntry {
	if i := m.index(addr); i >= 0 {
		return &m.entries[i]
	}
	return nil
}

// Allocate creates the entry for addr, with no waiters, and returns it. The
// caller has established that addr has no entry (Lookup) and that the file
// is not Full; a miss path has always just checked both, so Allocate does
// not search again. The pointer is valid only until the next Allocate or
// Fill.
func (m *MSHRFile) Allocate(addr uint64) *MSHREntry {
	m.entries = m.entries[:len(m.entries)+1]
	m.addrs = append(m.addrs, addr)
	e := &m.entries[len(m.entries)-1]
	e.Addr, e.Waiters = addr, e.Waiters[:0]
	return e
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
	i := m.index(addr)
	if i < 0 {
		return nil
	}
	last := len(m.entries) - 1
	m.entries[i], m.entries[last] = m.entries[last], m.entries[i]
	m.addrs[i] = m.addrs[last]
	m.entries = m.entries[:last]
	m.addrs = m.addrs[:last]
	return &m.entries[:last+1][last]
}
