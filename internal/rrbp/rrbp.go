// Package rrbp implements PIVOT's Runtime ROB Block Predictor (§IV-C): a
// small, direct-mapped, tagless table counting how often each (potentially
// critical) load instruction caused a long ROB stall. A load entering the
// load queue is flagged as actually performance-critical when its counter
// reaches a threshold; the threshold adapts to the LC task's bandwidth usage
// so PIVOT prioritises more loads when the task is under its expected
// bandwidth and fewer when it is over.
package rrbp

import (
	"pivot/internal/sim"
	"pivot/internal/stats"
)

// Config sets the table geometry and behaviour.
type Config struct {
	// Entries is the number of direct-mapped entries (64 in the paper).
	// Zero means an unlimited, fully-associative table (the Fig 22 ideal).
	Entries int
	// CounterMax saturates the per-entry stall counters (6 bits → 63).
	CounterMax uint8
	// RefreshCycles clears the table periodically (1 M cycles default) so
	// phase changes in the LC task are tracked.
	RefreshCycles sim.Cycle
	// LowThreshold is used while the LC task is under its expected
	// bandwidth (include more loads), HighThreshold otherwise.
	LowThreshold  uint8
	HighThreshold uint8
}

// DefaultConfig returns the paper's configuration: 64 entries, 6-bit
// counters, 1 M-cycle refresh. The low threshold includes any load that
// long-stalled at all (aggressive mode, used while the LC task is starved of
// its expected bandwidth); the high threshold requires several *consecutive*
// long stalls, which only the dependent-chain loads exhibit (conservative
// mode, used once the LC task's bandwidth recovered).
func DefaultConfig() Config {
	return Config{
		Entries:       64,
		CounterMax:    63,
		RefreshCycles: 1_000_000,
		LowThreshold:  1,
		HighThreshold: 4,
	}
}

// Table is the RRBP. Not safe for concurrent use.
type Table struct {
	cfg       Config
	counters  []uint8
	flags     []bool // sticky critical flags, cleared at refresh
	unlimited map[uint64]uint8
	unlFlags  map[uint64]bool
	threshold uint8

	lastRefresh sim.Cycle

	// Stats.
	LongStalls uint64
	Flagged    uint64
	Lookups    uint64
	Refreshes  uint64
}

// New builds a table from cfg, starting at the low threshold.
func New(cfg Config) *Table {
	if cfg.CounterMax == 0 {
		cfg.CounterMax = 63
	}
	if cfg.LowThreshold == 0 {
		cfg.LowThreshold = 1
	}
	if cfg.HighThreshold < cfg.LowThreshold {
		cfg.HighThreshold = cfg.LowThreshold
	}
	t := &Table{cfg: cfg, threshold: cfg.HighThreshold}
	if cfg.Entries > 0 {
		t.counters = make([]uint8, cfg.Entries)
		t.flags = make([]bool, cfg.Entries)
	} else {
		t.unlimited = make(map[uint64]uint8)
		t.unlFlags = make(map[uint64]bool)
	}
	return t
}

// Config returns the table configuration.
func (t *Table) Config() Config { return t.cfg }

func (t *Table) index(pc uint64) int {
	// Instructions are word-aligned; fold upper bits in so different apps'
	// PC ranges spread across the table.
	h := (pc >> 2) ^ (pc >> 14)
	return int(h % uint64(len(t.counters)))
}

// RecordRetire notes a retired potential-set load: a long ROB stall
// increments the entry's counter, a short one decrements it. The decrement
// is what separates the dependent-chain loads (which long-stall on *every*
// execution while unprotected, so their counters climb monotonically) from
// payload loads whose occasional long stalls drown in short retirements and
// drift back to zero. A plain total count cannot make that separation under
// feedback: once a flagged chase load is prioritised it stops stalling and
// its total freezes below a payload load's slow creep. A decrement (rather
// than a reset) keeps the tagless table robust to aliasing: an occasional
// short retirement from a co-resident load nudges a hot entry down by one
// instead of erasing it.
func (t *Table) RecordRetire(pc uint64, long bool) {
	if !long {
		if t.counters != nil {
			if i := t.index(pc); t.counters[i] > 0 {
				t.counters[i]--
			}
		} else if c := t.unlimited[pc]; c > 0 {
			t.unlimited[pc] = c - 1
		}
		return
	}
	t.LongStalls++
	if t.counters != nil {
		i := t.index(pc)
		if t.counters[i] < t.cfg.CounterMax {
			t.counters[i]++
		}
		return
	}
	if c := t.unlimited[pc]; c < t.cfg.CounterMax {
		t.unlimited[pc] = c + 1
	}
}

// RecordLongStall is RecordRetire(pc, true), kept for tests and callers that
// only observe long stalls.
func (t *Table) RecordLongStall(pc uint64) { t.RecordRetire(pc, true) }

// IsCritical reports whether the load at pc should carry the critical bit.
// A flag is sticky within a refresh window: once an entry's long-stall count
// crosses the threshold that was active at the time, the entry stays
// critical until the next refresh. Without stickiness, the adaptive
// threshold would oscillate — flagging a chase load stops its stalls, its
// counter freezes below a raised threshold, it is unflagged, stalls again —
// and the tail latency of the LC task would be dominated by those gaps.
func (t *Table) IsCritical(pc uint64) bool {
	t.Lookups++
	if t.counters != nil {
		i := t.index(pc)
		if t.flags[i] || t.counters[i] >= t.threshold {
			t.flags[i] = true
			t.Flagged++
			return true
		}
		return false
	}
	if t.unlFlags[pc] || t.unlimited[pc] >= t.threshold {
		t.unlFlags[pc] = true
		t.Flagged++
		return true
	}
	return false
}

// SkipLookups applies the side effects of n elided IsCritical(pc) calls made
// under skip-ahead while the table is otherwise untouched (the probing core
// is parked, so no retire, refresh or threshold flip can interleave): the
// lookup counter grows by n, and — because the flag is sticky — a critical
// verdict repeats identically for all n probes.
func (t *Table) SkipLookups(pc uint64, n uint64) {
	t.Lookups += n
	if t.counters != nil {
		i := t.index(pc)
		if t.flags[i] || t.counters[i] >= t.threshold {
			t.flags[i] = true
			t.Flagged += n
		}
		return
	}
	if t.unlFlags[pc] || t.unlimited[pc] >= t.threshold {
		t.unlFlags[pc] = true
		t.Flagged += n
	}
}

// SetUnderBandwidth switches the threshold: under=true means the LC task is
// consuming less than its expected bandwidth, so PIVOT aggressively includes
// more loads from the potential set.
func (t *Table) SetUnderBandwidth(under bool) {
	if under {
		t.threshold = t.cfg.LowThreshold
	} else {
		t.threshold = t.cfg.HighThreshold
	}
}

// Threshold returns the active flagging threshold.
func (t *Table) Threshold() uint8 { return t.threshold }

// MaybeRefresh clears the table if the refresh interval elapsed.
func (t *Table) MaybeRefresh(now sim.Cycle) {
	if t.cfg.RefreshCycles == 0 || now-t.lastRefresh < t.cfg.RefreshCycles {
		return
	}
	t.lastRefresh = now
	t.Refreshes++
	if t.counters != nil {
		for i := range t.counters {
			t.counters[i] = 0
			t.flags[i] = false
		}
		return
	}
	clear(t.unlimited)
	clear(t.unlFlags)
}

// RegisterStats registers the table's instruments under prefix: convergence
// counters (long stalls observed, lookups flagged critical, refreshes) and
// the adaptive-threshold gauge, whose low/high flips chart the §IV-C
// bandwidth feedback loop over time.
func (t *Table) RegisterStats(reg *stats.Registry, prefix string) {
	reg.Counter(prefix+".long_stalls", func() uint64 { return t.LongStalls })
	reg.Counter(prefix+".flagged", func() uint64 { return t.Flagged })
	reg.Counter(prefix+".lookups", func() uint64 { return t.Lookups })
	reg.Counter(prefix+".refreshes", func() uint64 { return t.Refreshes })
	reg.Rate(prefix+".flagged_epoch", func() uint64 { return t.Flagged })
	reg.Gauge(prefix+".threshold", func() float64 { return float64(t.threshold) })
}

// Snapshot returns copies of the table's counters and sticky flags, for
// tests and diagnostics (nil for the unlimited variant).
func (t *Table) Snapshot() (counters []uint8, flags []bool) {
	if t.counters == nil {
		return nil, nil
	}
	c := make([]uint8, len(t.counters))
	f := make([]bool, len(t.flags))
	copy(c, t.counters)
	copy(f, t.flags)
	return c, f
}
