package cache_test

import (
	"math/rand"
	"testing"

	"pivot/internal/cache"
	"pivot/internal/machine"
	"pivot/internal/mem"
)

// BenchmarkCacheMissFill times the LLC's miss path on the 4-core Kunpeng
// geometry: three of every four operations probe a random line of an 8 GiB
// region (almost always a miss) and fill it, evicting, and the fourth
// re-probes the line filled two operations earlier (a hit). Every other
// operation comes from a partition restricted to half the ways, so both
// the unrestricted and the masked victim choice run.
func BenchmarkCacheMissFill(b *testing.B) {
	cfg := machine.KunpengConfig(4).LLC
	c := cache.MustNew(cfg)
	c.SetWayMask(1, 0x00FF)
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = rng.Uint64() % (8 << 30)
	}
	// Past the first pass the stream moves to fresh 8 GiB regions.
	addr := func(i int) uint64 { return addrs[i%n] + uint64(i/n)<<33 }
	step := func(i int) {
		p := mem.PartID(i & 1)
		if i%4 == 3 {
			c.Lookup(addr(i-2), p)
		} else if a := addr(i); !c.Lookup(a, p) {
			c.Insert(a, p)
		}
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	for i := 0; i < 2*lines; i++ { // start full, so fills evict
		step(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(2*lines + i)
	}
}
