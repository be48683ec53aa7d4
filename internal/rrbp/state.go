package rrbp

import (
	"sort"

	"pivot/internal/sim"
)

// UnlimitedEntryState is one (pc → counter/flag) pair of the unlimited table
// variant, sorted by PC for deterministic encoding.
type UnlimitedEntryState struct {
	PC      uint64
	Counter uint8
	Flag    bool
}

// TableState is the serialisable form of an RRBP table: counters, sticky
// flags, the adaptive threshold, the refresh clock and the statistics.
type TableState struct {
	Counters    []uint8
	Flags       []bool
	Unlimited   []UnlimitedEntryState
	Threshold   uint8
	LastRefresh sim.Cycle
	LongStalls  uint64
	Flagged     uint64
	Lookups     uint64
	Refreshes   uint64
}

// SnapshotState captures the table's complete mutable state.
func (t *Table) SnapshotState() TableState {
	s := TableState{
		Counters:    append([]uint8(nil), t.counters...),
		Flags:       append([]bool(nil), t.flags...),
		Threshold:   t.threshold,
		LastRefresh: t.lastRefresh,
		LongStalls:  t.LongStalls,
		Flagged:     t.Flagged,
		Lookups:     t.Lookups,
		Refreshes:   t.Refreshes,
	}
	if t.unlimited != nil {
		// A zero counter is behaviourally identical to an absent entry —
		// reads see the map's zero value either way and decay only touches
		// positive counters — so the canonical encoding omits it. Without
		// this, a PC whose counter decayed to exactly zero would serialise
		// differently from one that never had an entry, though the two
		// tables behave identically.
		for pc, c := range t.unlimited {
			if c > 0 {
				s.Unlimited = append(s.Unlimited, UnlimitedEntryState{PC: pc, Counter: c, Flag: t.unlFlags[pc]})
			}
		}
		for pc, f := range t.unlFlags {
			if f && t.unlimited[pc] == 0 {
				s.Unlimited = append(s.Unlimited, UnlimitedEntryState{PC: pc, Flag: true})
			}
		}
		sort.Slice(s.Unlimited, func(i, j int) bool { return s.Unlimited[i].PC < s.Unlimited[j].PC })
	}
	return s
}
