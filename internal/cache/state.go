package cache

import (
	"fmt"
	"sort"
)

// LineState mirrors one cache line in a snapshot: its block address
// (zero for an invalid line) and whether it is valid.
type LineState struct {
	Tag   uint64
	Valid bool
}

// CacheState is the serialisable form of a Cache: every line (set-major, way
// order), every set's recency order, the partition way masks and the access
// counters. Order[s] lists set s's way indices from most to least recently
// used, one 4-bit nibble each, the most recent in the low nibble; nibbles
// at positions Ways and above hold their own position. Geometry is
// configuration, not state — RestoreState checks it matches.
type CacheState struct {
	Lines     []LineState
	Order     []uint64
	WayMask   [256]uint64
	Stats     Stats
	PartStats [8]Stats
}

// SnapshotState captures the cache's complete mutable state.
func (c *Cache) SnapshotState() CacheState {
	s := CacheState{
		Lines:     make([]LineState, len(c.tags)),
		Order:     make([]uint64, len(c.order)),
		Stats:     c.Stats,
		PartStats: c.PartStats,
	}
	for j, t := range c.tags {
		if t != invalidTag {
			set := uint64(j / c.ways)
			s.Lines[j] = LineState{Tag: uint64(^t)<<c.setBits | set, Valid: true}
		}
	}
	for set, o := range c.order {
		s.Order[set] = o ^ identOrder
	}
	for p, m := range c.wayMask {
		s.WayMask[p] = uint64(m)
	}
	return s
}

// validateState reports why s cannot be restored into this cache: a line or
// set count that does not match the geometry (a snapshot without Order
// among them), an order that is not a permutation of the set's ways, a valid
// line whose block maps to another set or whose tag does not fit, or a way
// mask naming ways the cache lacks. RestoreState calls it before mutating
// anything.
func (c *Cache) validateState(s CacheState) error {
	if len(s.Lines) != len(c.tags) {
		return fmt.Errorf("cache %s: snapshot has %d lines, geometry holds %d",
			c.cfg.Name, len(s.Lines), len(c.tags))
	}
	if len(s.Order) != len(c.order) {
		return fmt.Errorf("cache %s: snapshot has %d set orders, geometry holds %d sets",
			c.cfg.Name, len(s.Order), len(c.order))
	}
	full := c.fullMask()
	for set, o := range s.Order {
		var seen uint64
		for k := 0; k < c.ways; k++ {
			seen |= 1 << (o >> uint(4*k) & 0xF)
		}
		if seen != full || (o^identOrder)>>uint(4*c.ways) != 0 {
			return fmt.Errorf("cache %s: set %d order %#x is not a permutation of its %d ways",
				c.cfg.Name, set, o, c.ways)
		}
	}
	for j, ls := range s.Lines {
		if ls.Valid && (int(ls.Tag&c.setMask) != j/c.ways || ls.Tag>>c.setBits >= maxTag) {
			return fmt.Errorf("cache %s: line %d holds block %#x, which does not map to it",
				c.cfg.Name, j, ls.Tag)
		}
	}
	for p, m := range s.WayMask {
		if m&^full != 0 {
			return fmt.Errorf("cache %s: partition %d way mask %#x exceeds %d ways",
				c.cfg.Name, p, m, c.ways)
		}
	}
	return nil
}

// RestoreState overwrites the cache's mutable state from a snapshot taken on
// an identically configured cache. A snapshot validateState rejects leaves
// the cache untouched.
func (c *Cache) RestoreState(s CacheState) error {
	if err := c.validateState(s); err != nil {
		return err
	}
	for j, ls := range s.Lines {
		c.tags[j] = invalidTag
		if ls.Valid {
			c.tags[j] = ^uint32(ls.Tag >> c.setBits)
		}
	}
	for set, o := range s.Order {
		c.order[set] = o ^ identOrder
	}
	for p, m := range s.WayMask {
		c.wayMask[p] = uint16(m)
	}
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
