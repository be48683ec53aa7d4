package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"pivot/internal/mem"
)

// diffGeometries covers every preset associativity (4, 8, 16) plus one that
// is not a power of two.
var diffGeometries = []Config{
	{Name: "4way", SizeBytes: 16 * 4 * 64, Ways: 4, LineBytes: 64},
	{Name: "8way", SizeBytes: 8 * 8 * 64, Ways: 8, LineBytes: 64},
	{Name: "16way", SizeBytes: 4 * 16 * 64, Ways: 16, LineBytes: 64},
	{Name: "3way", SizeBytes: 8 * 3 * 32, Ways: 3, LineBytes: 32},
}

// TestMatchesStampLRU drives the packed cache and refCache, the stamp-LRU
// cache it replaced, with the same random operation sequence and requires
// the same hits, evictions, counters, line placement and recency after
// every operation. A store hit is the reference's Touch and the packed
// cache's Lookup: without a dirty bit the two are the same update. At a
// random point the packed cache is snapshotted and restored into a fresh
// cache, which carries on.
func TestMatchesStampLRU(t *testing.T) {
	for _, cfg := range diffGeometries {
		t.Run(cfg.Name, func(t *testing.T) {
			f := func(seed int64, n uint16) bool {
				if err := runDiff(cfg, seed, 200+int(n)%800); err != nil {
					t.Log(err)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Error(err)
			}
		})
	}
}

func runDiff(cfg Config, seed int64, ops int) error {
	rng := rand.New(rand.NewSource(seed))
	c, ref := MustNew(cfg), newRefMust(cfg)
	sets := uint64(len(c.order))
	// Tags come from a pool a few times the associativity, so sets fill and
	// evict, plus the widest tags that fit 32 bits.
	tags := []uint64{maxTag - 1, maxTag - 2, 1 << 31}
	for i := 0; i < 3*cfg.Ways; i++ {
		tags = append(tags, uint64(i))
	}
	restoreAt := rng.Intn(ops)
	for op := 0; op < ops; op++ {
		if op == restoreAt {
			fresh := MustNew(cfg)
			if err := fresh.RestoreState(c.SnapshotState()); err != nil {
				return fmt.Errorf("op %d: restore: %v", op, err)
			}
			c = fresh
		}
		blk := tags[rng.Intn(len(tags))]<<c.setBits | rng.Uint64()%sets
		addr := blk<<c.lineBits | rng.Uint64()%uint64(cfg.LineBytes)
		p := mem.PartID(rng.Intn(10)) // 8 and 9 have no PartStats slot
		var desc string
		switch k := rng.Intn(10); {
		case k < 3:
			desc = fmt.Sprintf("Lookup(%#x, %d)", addr, p)
			if got, want := c.Lookup(addr, p), ref.Lookup(addr, p); got != want {
				return fmt.Errorf("op %d %s: hit %v, reference %v", op, desc, got, want)
			}
		case k < 4:
			desc = fmt.Sprintf("store hit probe (%#x, %d)", addr, p)
			if got, want := c.Lookup(addr, p), ref.Touch(addr, p); got != want {
				return fmt.Errorf("op %d %s: hit %v, reference %v", op, desc, got, want)
			}
		case k < 7:
			desc = fmt.Sprintf("Insert(%#x, %d)", addr, p)
			ev, valid := c.Insert(addr, p)
			rev, rvalid := ref.Insert(addr, p, rng.Intn(2) == 0)
			if ev != rev || valid != rvalid {
				return fmt.Errorf("op %d %s: evicted %#x/%v, reference %#x/%v", op, desc, ev, valid, rev, rvalid)
			}
		case k < 8:
			n := uint64(rng.Intn(5))
			desc = fmt.Sprintf("SkipMissProbes(%d, %d)", p, n)
			c.SkipMissProbes(p, n)
			ref.SkipMissProbes(p, n)
		case k < 9:
			mask := rng.Uint64() & (1<<uint(cfg.Ways+1) - 1) // one bit past the ways, and sometimes 0
			desc = fmt.Sprintf("SetWayMask(%d, %#x)", p, mask)
			c.SetWayMask(p, mask)
			ref.SetWayMask(p, mask)
			if c.WayMask(p) != ref.wayMask[p] {
				return fmt.Errorf("op %d %s: mask %#x, reference %#x", op, desc, c.WayMask(p), ref.wayMask[p])
			}
		default:
			desc = fmt.Sprintf("Contains(%#x)", addr)
			if got, want := c.Contains(addr), ref.Contains(addr); got != want {
				return fmt.Errorf("op %d %s: %v, reference %v", op, desc, got, want)
			}
		}
		if err := sameState(c, ref); err != nil {
			return fmt.Errorf("op %d after %s: %v", op, desc, err)
		}
	}
	return nil
}

func newRefMust(cfg Config) *refCache {
	r, err := newRef(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// sameState compares counters, every line's block and validity, and each
// set's recency: the packed order restricted to valid ways must list them
// by descending reference stamp.
func sameState(c *Cache, ref *refCache) error {
	if c.Stats != ref.Stats || c.PartStats != ref.PartStats {
		return fmt.Errorf("counters %+v %+v, reference %+v %+v", c.Stats, c.PartStats, ref.Stats, ref.PartStats)
	}
	s := c.SnapshotState()
	for j, ls := range s.Lines {
		want := LineState{}
		if ref.meta[j]&metaValid != 0 {
			want = LineState{Tag: ^ref.tags[j], Valid: true}
		}
		if ls != want {
			return fmt.Errorf("line %d: %+v, reference %+v", j, ls, want)
		}
	}
	for set, o := range s.Order {
		base := set * ref.ways
		var got, want []int
		for k := 0; k < ref.ways; k++ {
			if w := int(o >> uint(4*k) & 0xF); s.Lines[base+w].Valid {
				got = append(got, w)
			}
			if ref.meta[base+k]&metaValid != 0 {
				want = append(want, k)
			}
		}
		sort.Slice(want, func(a, b int) bool { return ref.lru[base+want[a]] > ref.lru[base+want[b]] })
		if !slices.Equal(got, want) {
			return fmt.Errorf("set %d: recency %v, reference %v", set, got, want)
		}
	}
	return nil
}

// TestRejectsTooWideAddress: the widest tag that fits 32 bits fills, hits
// and is evicted with its full address; one wider panics on every probe
// instead of aliasing a line.
func TestRejectsTooWideAddress(t *testing.T) {
	c := MustNew(testConfig()) // 16 sets of 4 ways, 64-byte lines
	shift := c.setBits + c.lineBits
	widest := uint64(maxTag-1)<<shift | 5<<c.lineBits
	c.Insert(widest, 0)
	if !c.Lookup(widest, 0) {
		t.Fatal("widest fitting address misses after its fill")
	}
	for i := uint64(1); i <= 4; i++ {
		c.Insert(widest-i<<shift, 0) // same set, narrower tags
	}
	if c.Contains(widest) {
		t.Fatal("widest fitting address survived a full set of newer fills")
	}
	if ev, _ := c.Insert(widest, 0); ev != widest-1<<shift {
		t.Fatalf("evicted %#x, want %#x", ev, widest-1<<shift)
	}

	tooWide := []uint64{uint64(maxTag) << shift, ^uint64(0)}
	probes := map[string]func(uint64){
		"Lookup":   func(a uint64) { c.Lookup(a, 0) },
		"Contains": func(a uint64) { c.Contains(a) },
		"Insert":   func(a uint64) { c.Insert(a, 0) },
	}
	for name, probe := range probes {
		for _, a := range tooWide {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%#x) did not panic", name, a)
					}
				}()
				probe(a)
			}()
		}
	}
}

// TestRestoreRejectsBadState: a snapshot that does not fit the cache —
// one without Order among them — is refused and leaves the cache untouched.
func TestRestoreRejectsBadState(t *testing.T) {
	src := MustNew(testConfig())
	for i := uint64(0); i < 40; i++ {
		src.Insert(i*0x1040, mem.PartID(i%3))
	}
	good := src.SnapshotState()
	clone := func() CacheState {
		s := good
		s.Lines = append([]LineState(nil), good.Lines...)
		s.Order = append([]uint64(nil), good.Order...)
		return s
	}
	bad := map[string]func(*CacheState){
		"no order":         func(s *CacheState) { s.Order = nil },
		"short lines":      func(s *CacheState) { s.Lines = s.Lines[1:] },
		"repeated way":     func(s *CacheState) { s.Order[3] = s.Order[3]&^0xF | s.Order[3]>>4&0xF },
		"way out of range": func(s *CacheState) { s.Order[0] = s.Order[0]&^0xF | 7 },
		"high nibbles":     func(s *CacheState) { s.Order[1] ^= 1 << 60 },
		"line in wrong set": func(s *CacheState) {
			s.Lines[0] = LineState{Tag: 1, Valid: true}
		},
		"tag too wide": func(s *CacheState) {
			s.Lines[0] = LineState{Tag: uint64(maxTag) << 4, Valid: true}
		},
		"mask past ways": func(s *CacheState) { s.WayMask[2] = 1 << 4 },
	}
	for name, corrupt := range bad {
		t.Run(name, func(t *testing.T) {
			s := clone()
			corrupt(&s)
			dst := MustNew(testConfig())
			if err := dst.RestoreState(s); err == nil {
				t.Fatal("corrupt snapshot restored")
			}
			if !reflect.DeepEqual(dst.SnapshotState(), MustNew(testConfig()).SnapshotState()) {
				t.Fatal("refused restore changed the cache")
			}
		})
	}
	dst := MustNew(testConfig())
	if err := dst.RestoreState(clone()); err != nil {
		t.Fatalf("good snapshot refused: %v", err)
	}
	if !reflect.DeepEqual(dst.SnapshotState(), good) {
		t.Fatal("restored cache snapshots differently")
	}
}
