// Package cache implements the set-associative cache model used for the
// private L1/L2 caches and the shared, way-partitionable LLC, plus the MSHR
// file that bounds outstanding misses. Only tags and recency are modelled;
// the simulator never moves data, it moves timing.
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

// maxWays bounds associativity: a set's recency order packs one 4-bit way
// index per way into a single word.
const maxWays = 16

// Validate reports a descriptive error for impossible geometries.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0:
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	case c.Ways > maxWays:
		return fmt.Errorf("cache %s: %d ways, at most %d supported", c.Name, c.Ways, maxWays)
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

// invalidTag marks an invalid line. The tags array holds each line's tag —
// its block address above the set index — complemented, so invalidTag, the
// zero value, is the slot of every invalid line: a tag match alone proves a
// hit, and New gets an all-invalid cache from freshly zeroed arrays without
// writing (or faulting in) a page of them. index rejects the one tag whose
// complement would be zero, so no address aliases an invalid line.
const invalidTag = 0

// maxTag is the first tag index rejects: its complement is invalidTag, and
// every larger one does not fit the 32-bit tag.
const maxTag = 1<<32 - 1

// Recency words. A set's LRU order is the list of its way indices from most
// to least recently used, one 4-bit nibble each, the most recent in the low
// nibble. The order array stores it XORed with identOrder, the order
// 0, 1, ..., 15, so a zeroed word is a valid order; nibbles at positions
// Ways and above keep their identity values, which name no way. A fill or
// a hit moves its way to the front, so among valid lines the order is the
// order of their last touches, which is all LRU compares.
const (
	identOrder = 0xFEDCBA9876543210
	nibbleOnes = 0x1111111111111111
)

// Cache is a set-associative, LRU, timing-only cache with per-partition
// allocation way masks. It is not safe for concurrent use; the simulator is
// single-goroutine.
//
// It keeps only what the simulation reads: a 32-bit tag per line, stored
// set-major so a set's tags are consecutive (a 16-way set is one 64-byte
// host line), and one recency word per set. The lookup scan touches the
// recency word only on a hit.
type Cache struct {
	cfg      Config
	tags     []uint32 // [set*ways+way], complemented (see invalidTag)
	order    []uint64 // [set], recency order XOR identOrder
	ways     int
	setMask  uint64
	setBits  uint
	lineBits uint

	// wayMask[p] restricts which ways PartID p may *allocate* into
	// (lookups hit in any way, matching Intel CAT semantics).
	// A zero mask means "all ways allowed".
	wayMask [256]uint16

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
	return &Cache{
		cfg:      cfg,
		tags:     make([]uint32, nsets*cfg.Ways),
		order:    make([]uint64, nsets),
		ways:     cfg.Ways,
		setMask:  uint64(nsets - 1),
		setBits:  uint(bits.TrailingZeros(uint(nsets))),
		lineBits: uint(bits.Len(uint(cfg.LineBytes)) - 1),
	}, nil
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

// fullMask is the allocation mask of every way.
func (c *Cache) fullMask() uint64 { return uint64(1)<<uint(c.ways) - 1 }

// SetWayMask restricts PartID p to allocate only into ways whose bit is set
// in mask. Passing 0 restores "all ways". This models Intel CAT / MPAM cache
// portion partitioning.
func (c *Cache) SetWayMask(p mem.PartID, mask uint64) {
	c.wayMask[p] = uint16(mask & c.fullMask())
}

// WayMask returns the allocation mask for PartID p (0 = unrestricted).
func (c *Cache) WayMask(p mem.PartID) uint64 { return uint64(c.wayMask[p]) }

// index returns addr's set and its tag, complemented as the tags array
// stores it. An address whose tag does not fit 32 bits panics rather than
// alias another line.
func (c *Cache) index(addr uint64) (set int, tag uint32) {
	blk := addr >> c.lineBits
	hi := blk >> c.setBits
	if hi >= maxTag {
		panic(tooWide{c.cfg.Name, addr})
	}
	return int(blk & c.setMask), ^uint32(hi)
}

// tooWide is the panic value of an address whose tag does not fit 32 bits.
type tooWide struct {
	cache string
	addr  uint64
}

func (e tooWide) Error() string {
	return fmt.Sprintf("cache %s: address %#x exceeds the 32-bit tag range", e.cache, e.addr)
}

// setTags returns set's tags.
func (c *Cache) setTags(set int) []uint32 {
	base := set * c.ways
	return c.tags[base : base+c.ways : base+c.ways]
}

// touch makes way w the most recently used of set's ways.
func (c *Cache) touch(set, w int) {
	c.order[set] = moveToFront(c.order[set]^identOrder, w) ^ identOrder
}

// moveToFront moves way w to the front of order o. w's position is the one
// zero nibble of o ^ w·nibbleOnes (the order is a permutation), and the
// borrow test flags the lowest zero nibble exactly.
func moveToFront(o uint64, w int) uint64 {
	x := o ^ uint64(w)*nibbleOnes
	return promote(o, uint(bits.TrailingZeros64((x-nibbleOnes)&^x&(nibbleOnes<<3)))&^3)
}

// promote moves the nibble at bit offset pos of order o to the front.
func promote(o uint64, pos uint) uint64 {
	lo := uint64(1)<<pos - 1 // the positions ahead of pos
	return o&^(lo<<4|0xF) | (o&lo)<<4 | o>>pos&0xF
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
	set, tag := c.index(addr)
	for i, t := range c.setTags(set) {
		if t == tag {
			c.touch(set, i)
			c.bumpStats(p, true)
			return true
		}
	}
	c.bumpStats(p, false)
	return false
}

// SkipMissProbes applies the side effects of n elided Lookup calls that are
// known to miss (a core re-probing its L1 for a refused memory op under
// skip-ahead): a missing probe touches no recency, so only the miss
// counters grow.
func (c *Cache) SkipMissProbes(p mem.PartID, n uint64) {
	c.Stats.Misses += n
	if int(p) < len(c.PartStats) {
		c.PartStats[p].Misses += n
	}
}

// Contains probes without updating LRU or statistics.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	for _, t := range c.setTags(set) {
		if t == tag {
			return true
		}
	}
	return false
}

// Insert fills addr into the cache on behalf of PartID p, honouring p's way
// mask, and returns the evicted block address and whether an eviction of a
// valid line occurred. The victim is the lowest-index invalid allowed way,
// else the least recently used allowed way.
func (c *Cache) Insert(addr uint64, p mem.PartID) (evicted uint64, wasValid bool) {
	set, tag := c.index(addr)
	tags := c.setTags(set)
	// Refresh if the line is already present (e.g. a racing fill), noting
	// the invalid ways on the way.
	var free uint64
	for i, t := range tags {
		if t == tag {
			c.touch(set, i)
			return 0, false
		}
		if t == invalidTag {
			free |= 1 << uint(i)
		}
	}
	allowed := uint64(c.wayMask[p])
	if allowed == 0 {
		allowed = c.fullMask()
	}
	if f := free & allowed; f != 0 {
		w := bits.TrailingZeros64(f)
		tags[w] = tag
		c.touch(set, w)
		return 0, false
	}
	// Every allowed way is valid: evict the allowed way nearest the back of
	// the order. Positions below Ways hold exactly the set's ways, so the
	// walk finds one.
	o := c.order[set] ^ identOrder
	pos := uint(4 * (c.ways - 1))
	for allowed>>(o>>pos&0xF)&1 == 0 {
		pos -= 4
	}
	w := int(o >> pos & 0xF)
	evicted = (uint64(^tags[w])<<c.setBits | uint64(set)) << c.lineBits
	tags[w] = tag
	c.order[set] = promote(o, pos) ^ identOrder
	return evicted, true
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
