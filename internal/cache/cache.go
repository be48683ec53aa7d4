// Package cache implements the set-associative cache model used for the
// private L1/L2 caches and the shared, way-partitionable LLC, plus the MSHR
// file that bounds outstanding misses. Only tags are modelled; the simulator
// never moves data, it moves timing.
package cache

import (
	"fmt"
	"math/bits"

	"pivot/internal/mem"
	"pivot/internal/stats"
)

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int
	HitCycles int // lookup latency on a hit
	MSHRs     int // max outstanding misses
}

// Validate reports a descriptive error for impossible geometries.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0:
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	case c.SizeBytes%(c.Ways*c.LineBytes) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by ways*line", c.Name, c.SizeBytes)
	default:
		sets := c.SizeBytes / (c.Ways * c.LineBytes)
		if sets&(sets-1) != 0 {
			return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
		}
	}
	return nil
}

// Stats counts per-cache accesses, split by LC/BE origin so experiments can
// report per-task miss rates.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// Line-meta bits (one byte per line in Cache.meta).
const (
	metaValid = 1 << 0
	metaDirty = 1 << 1
)

// The tags array holds each line's block address complemented (see index),
// and invalidTag, the zero value, occupies the slot of every invalid line:
// the Lookup fast path is a pure tag scan — no per-way metadata load just to
// reject a stale tag — and New gets an all-invalid cache from freshly
// zeroed arrays without writing (or faulting in) a page of them. No real
// tag collides with it: a block address has its top lineBits bits clear, so
// its complement is never zero. The meta valid bit stays authoritative for
// serialisation, which records block addresses and the all-ones sentinel
// for invalid lines; Insert, Invalidate and RestoreState keep the
// representations coherent.
const invalidTag = 0

// Cache is a set-associative, LRU, write-back (timing-only) cache.
// It is not safe for concurrent use; the simulator is single-goroutine.
//
// Lines are stored structure-of-arrays, set-major: the Lookup fast path
// scans a set's `ways` consecutive tags (one or two cache lines of the
// host's memory) and touches the metadata byte only on a tag match. The
// array-of-structs layout this replaced dragged valid/dirty/part/lru through
// the scan for every probe, and Lookup+Insert were the hottest simulator
// leaves under bandwidth-saturated mixes.
type Cache struct {
	cfg      Config
	tags     []uint64 // [set*ways+way]
	lru      []uint64 // last-touch stamp; larger = more recent
	meta     []uint8  // metaValid | metaDirty
	part     []mem.PartID
	ways     int
	setMask  uint64
	lineBits uint
	stamp    uint64

	// wayMask[p] restricts which ways PartID p may *allocate* into
	// (lookups hit in any way, matching Intel CAT semantics).
	// A zero mask means "all ways allowed".
	wayMask [256]uint64

	Stats     Stats
	PartStats [8]Stats // indexed by PartID for small machines
}

// New builds a cache from cfg, rejecting impossible geometries with a
// descriptive error.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	n := nsets * cfg.Ways
	c := &Cache{
		cfg:     cfg,
		tags:    make([]uint64, n),
		lru:     make([]uint64, n),
		meta:    make([]uint8, n),
		part:    make([]mem.PartID, n),
		ways:    cfg.Ways,
		setMask: uint64(nsets - 1),
	}
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		c.lineBits++
	}
	return c, nil
}

// MustNew is New panicking on error, for callers whose configuration was
// already validated.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetWayMask restricts PartID p to allocate only into ways whose bit is set
// in mask. Passing 0 restores "all ways". This models Intel CAT / MPAM cache
// portion partitioning.
func (c *Cache) SetWayMask(p mem.PartID, mask uint64) {
	full := uint64(1)<<uint(c.ways) - 1
	c.wayMask[p] = mask & full
}

// WayMask returns the allocation mask for PartID p (0 = unrestricted).
func (c *Cache) WayMask(p mem.PartID) uint64 { return c.wayMask[p] }

// index returns the first line slot of addr's set and its tag: the full
// block address, complemented as the tags array stores it (see invalidTag).
func (c *Cache) index(addr uint64) (base int, tag uint64) {
	blk := addr >> c.lineBits
	return int(blk&c.setMask) * c.ways, ^blk
}

func (c *Cache) bumpStats(p mem.PartID, hit bool) {
	if hit {
		c.Stats.Hits++
	} else {
		c.Stats.Misses++
	}
	if int(p) < len(c.PartStats) {
		if hit {
			c.PartStats[p].Hits++
		} else {
			c.PartStats[p].Misses++
		}
	}
}

// Lookup probes the cache for addr, updating LRU on a hit.
// It returns whether the access hit.
func (c *Cache) Lookup(addr uint64, p mem.PartID) bool {
	base, tag := c.index(addr)
	c.stamp++
	// Reslice the set once so the scan loop runs without bounds checks;
	// invalid lines hold invalidTag, so a tag match alone proves a hit.
	for i, t := range c.tags[base : base+c.ways] {
		if t == tag {
			c.lru[base+i] = c.stamp
			c.bumpStats(p, true)
			return true
		}
	}
	c.bumpStats(p, false)
	return false
}

// SkipMissProbes applies the side effects of n elided Lookup calls that are
// known to miss (a core re-probing its L1 for a refused memory op under
// skip-ahead): the LRU stamp advances and the miss counters grow exactly as
// n dense Lookups would have left them. Valid only while no line's recency
// actually changes, which holds because a missing probe touches no line.
func (c *Cache) SkipMissProbes(p mem.PartID, n uint64) {
	c.stamp += n
	c.Stats.Misses += n
	if int(p) < len(c.PartStats) {
		c.PartStats[p].Misses += n
	}
}

// Touch is Lookup followed, on a hit, by Insert(addr, p, dirty=true) — the
// store-hit fast path — collapsed into one set scan. Bit-compatibility with
// the two-call sequence requires the stamp to advance twice on a hit (Lookup
// bumps it, then Insert bumps it again before refreshing the line), so the
// line's recency lands on the second stamp. On a miss only the Lookup half
// happened, so the stamp advances once and the miss counters grow.
func (c *Cache) Touch(addr uint64, p mem.PartID) bool {
	base, tag := c.index(addr)
	c.stamp++
	for i, t := range c.tags[base : base+c.ways] {
		if t == tag {
			c.bumpStats(p, true)
			c.stamp++
			c.lru[base+i] = c.stamp
			c.meta[base+i] |= metaDirty
			return true
		}
	}
	c.bumpStats(p, false)
	return false
}

// Contains probes without updating LRU or statistics.
func (c *Cache) Contains(addr uint64) bool {
	base, tag := c.index(addr)
	for _, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return true
		}
	}
	return false
}

// Insert fills addr into the cache on behalf of PartID p, honouring p's way
// mask, and returns the evicted block address and whether an eviction of a
// valid line occurred.
func (c *Cache) Insert(addr uint64, p mem.PartID, dirty bool) (evicted uint64, wasValid bool) {
	base, tag := c.index(addr)
	c.stamp++
	allowed := c.wayMask[p]
	if allowed == 0 {
		allowed = uint64(1)<<uint(c.ways) - 1
	}

	// Refresh if the line is already present (e.g. a racing fill) — a pure
	// tag scan, branch-predictable and free of mask tests.
	tags := c.tags[base : base+c.ways]
	meta := c.meta[base : base+c.ways : base+c.ways]
	lru := c.lru[base : base+c.ways : base+c.ways]
	for i, t := range tags {
		if t == tag {
			lru[i] = c.stamp
			if dirty {
				meta[i] |= metaDirty
			}
			return 0, false
		}
	}
	// Miss: pick the victim by walking only the allowed ways' set bits —
	// the first (lowest-index) invalid allowed way wins outright, else the
	// least-recently-used allowed way (first minimum, matching the ascending
	// scan the dense-mask version did).
	victim := -1
	var victimLRU uint64 = ^uint64(0)
	for a := allowed; a != 0; a &= a - 1 {
		i := bits.TrailingZeros64(a)
		if i >= c.ways {
			break
		}
		if tags[i] == invalidTag {
			victim = i
			break
		}
		if lru[i] < victimLRU {
			victim, victimLRU = i, lru[i]
		}
	}
	if victim < 0 {
		// Mask excluded every way; fall back to way 0 to stay functional.
		victim = 0
	}
	j := base + victim
	if c.meta[j]&metaValid != 0 {
		evicted = ^c.tags[j] << c.lineBits
		wasValid = true
	}
	c.tags[j] = tag
	c.lru[j] = c.stamp
	c.part[j] = p
	c.meta[j] = metaValid
	if dirty {
		c.meta[j] |= metaDirty
	}
	return evicted, wasValid
}

// Invalidate removes addr if present, returning whether it was there.
func (c *Cache) Invalidate(addr uint64) bool {
	base, tag := c.index(addr)
	for j := base; j < base+c.ways; j++ {
		if c.tags[j] == tag {
			c.meta[j] &^= metaValid
			c.tags[j] = invalidTag
			return true
		}
	}
	return false
}

// RegisterStats registers the cache's instruments under prefix (e.g. "llc"):
// hit/miss counters, a miss-rate series, and the running miss-rate gauge.
func (c *Cache) RegisterStats(reg *stats.Registry, prefix string) {
	st := &c.Stats
	reg.Counter(prefix+".hits", func() uint64 { return st.Hits })
	reg.Counter(prefix+".misses", func() uint64 { return st.Misses })
	reg.Rate(prefix+".miss_rate_epoch", func() uint64 { return st.Misses })
	reg.Gauge(prefix+".miss_rate", func() float64 { return st.MissRate() })
}

// MissRate returns misses/(hits+misses), or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

// ResetStats zeroes the access counters (used between warm-up and the
// measured region of a simulation).
func (c *Cache) ResetStats() {
	c.Stats = Stats{}
	for i := range c.PartStats {
		c.PartStats[i] = Stats{}
	}
}
