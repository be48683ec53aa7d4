package cache

import (
	"math/bits"

	"pivot/internal/mem"
)

// Line-meta bits (one byte per line in refCache.meta).
const (
	metaValid = 1 << 0
	metaDirty = 1 << 1
)

// refCache is the stamp-LRU cache the packed layout replaced, kept
// verbatim as the differential reference (Invalidate, MustNew and the
// accessors dropped). Every line carries its full block address
// (complemented; invalid lines hold invalidTag), a valid and a dirty bit,
// the filling partition and a global last-touch stamp; the victim is the
// lowest-index invalid allowed way, else the allowed way with the smallest
// stamp.
type refCache struct {
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

// newRef builds a cache from cfg, rejecting impossible geometries with a
// descriptive error.
func newRef(cfg Config) (*refCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	n := nsets * cfg.Ways
	c := &refCache{
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

// SetWayMask restricts PartID p to allocate only into ways whose bit is set
// in mask. Passing 0 restores "all ways". This models Intel CAT / MPAM cache
// portion partitioning.
func (c *refCache) SetWayMask(p mem.PartID, mask uint64) {
	full := uint64(1)<<uint(c.ways) - 1
	c.wayMask[p] = mask & full
}

// index returns the first line slot of addr's set and its tag: the full
// block address, complemented as the tags array stores it (see invalidTag).
func (c *refCache) index(addr uint64) (base int, tag uint64) {
	blk := addr >> c.lineBits
	return int(blk&c.setMask) * c.ways, ^blk
}

func (c *refCache) bumpStats(p mem.PartID, hit bool) {
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
func (c *refCache) Lookup(addr uint64, p mem.PartID) bool {
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
func (c *refCache) SkipMissProbes(p mem.PartID, n uint64) {
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
func (c *refCache) Touch(addr uint64, p mem.PartID) bool {
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
func (c *refCache) Contains(addr uint64) bool {
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
func (c *refCache) Insert(addr uint64, p mem.PartID, dirty bool) (evicted uint64, wasValid bool) {
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
