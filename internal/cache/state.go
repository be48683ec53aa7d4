package cache

import (
	"fmt"
	"sort"

	"pivot/internal/mem"
)

// LineState mirrors one cache line for checkpointing.
type LineState struct {
	Tag   uint64
	Valid bool
	Dirty bool
	Part  mem.PartID
	LRU   uint64
}

// CacheState is the serialisable form of a Cache: every line (set-major, way
// order), the LRU stamp, the partition way masks and the access counters.
// Geometry is configuration, not state — Restore checks it matches.
type CacheState struct {
	Lines     []LineState
	Stamp     uint64
	WayMask   [256]uint64
	Stats     Stats
	PartStats [8]Stats
}

// StateLines reports the line count a snapshot of this cache must hold, so
// composers can validate geometry before mutating anything.
func (c *Cache) StateLines() int { return len(c.tags) }

// SnapshotState captures the cache's complete mutable state.
func (c *Cache) SnapshotState() CacheState {
	s := CacheState{
		Lines:     make([]LineState, len(c.tags)),
		Stamp:     c.stamp,
		WayMask:   c.wayMask,
		Stats:     c.Stats,
		PartStats: c.PartStats,
	}
	for j := range c.tags {
		s.Lines[j] = LineState{
			Tag: ^c.tags[j], Valid: c.meta[j]&metaValid != 0,
			Dirty: c.meta[j]&metaDirty != 0,
			Part:  c.part[j], LRU: c.lru[j],
		}
	}
	return s
}

// RestoreState overwrites the cache's mutable state from a snapshot taken on
// an identically configured cache.
func (c *Cache) RestoreState(s CacheState) error {
	if len(s.Lines) != len(c.tags) {
		return fmt.Errorf("cache %s: snapshot has %d lines, geometry holds %d",
			c.cfg.Name, len(s.Lines), len(c.tags))
	}
	for j, ls := range s.Lines {
		// Invalid lines carry the sentinel tag in the live arrays (see
		// invalidTag); normalise here so snapshots from either representation
		// restore into a coherent cache.
		if ls.Valid {
			c.tags[j] = ^ls.Tag
		} else {
			c.tags[j] = invalidTag
		}
		c.lru[j] = ls.LRU
		c.part[j] = ls.Part
		var m uint8
		if ls.Valid {
			m |= metaValid
		}
		if ls.Dirty {
			m |= metaDirty
		}
		c.meta[j] = m
	}
	c.stamp = s.Stamp
	c.wayMask = s.WayMask
	c.Stats = s.Stats
	c.PartStats = s.PartStats
	return nil
}

// MSHRState is the serialisable form of an MSHR file. Entries are sorted by
// address so the encoding is deterministic (the live file is a map).
type MSHRState struct {
	Entries []MSHREntry
}

// SnapshotState captures the outstanding misses and their coalesced waiters.
func (m *MSHRFile) SnapshotState() MSHRState {
	s := MSHRState{Entries: make([]MSHREntry, 0, len(m.entries))}
	for _, e := range m.entries {
		s.Entries = append(s.Entries, MSHREntry{
			Addr:    e.Addr,
			Waiters: append([]uint64(nil), e.Waiters...),
		})
	}
	sort.Slice(s.Entries, func(i, j int) bool { return s.Entries[i].Addr < s.Entries[j].Addr })
	return s
}

// RestoreState replaces the file's contents with the snapshot's.
func (m *MSHRFile) RestoreState(s MSHRState) {
	m.entries = make([]MSHREntry, 0, m.max)
	for _, e := range s.Entries {
		m.entries = append(m.entries,
			MSHREntry{Addr: e.Addr, Waiters: append([]uint64(nil), e.Waiters...)})
	}
}
