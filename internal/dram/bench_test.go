package dram

import (
	"testing"

	"pivot/internal/mem"
	"pivot/internal/sim"
)

// BenchmarkRankedServe measures one serve of a saturated controller: the
// KunpengDDR4 normal queue kept at its 48 entries by three sequential copy
// streams in partitions of rank 1 and a sparse random stream of rank 0
// (one request in 32), ticked until the next request reaches the data bus.
// Ranked, FR-FCFS must find the oldest row-open entry of the lowest rank in
// a queue that is almost all rank 1; unranked, the same queue is plain
// FR-FCFS.
func BenchmarkRankedServe(b *testing.B) {
	b.Run("ranked", func(b *testing.B) { benchServe(b, true) })
	b.Run("unranked", func(b *testing.B) { benchServe(b, false) })
}

func benchServe(b *testing.B, ranked bool) {
	cfg := KunpengDDR4()
	c := New(cfg, 64)
	if ranked {
		c.Ranker = &classRanker{class: [4]int{0, 1, 1, 1}, gen: 1}
	}
	pool := make([]*mem.Req, 0, cfg.CapNormal+cfg.CapPrio)
	for range cap(pool) {
		pool = append(pool, new(mem.Req))
	}
	c.Respond = func(r *mem.Req, now sim.Cycle) { pool = append(pool, r) }

	var next [4]uint64 // per-stream next line, each stream on its own bank
	for s := range next {
		next[s] = uint64(s)<<24 + uint64(s*5*cfg.ColumnLines)
	}
	rnd := uint64(1)
	var n uint64
	fill := func(now sim.Cycle) {
		for len(c.normal) < cfg.CapNormal && len(pool) > 0 {
			r := pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			n++
			part := mem.PartID(1 + n%3)
			var line uint64
			if n%32 == 0 {
				part = 0
				rnd = rnd*6364136223846793005 + 1442695040888963407
				line = rnd >> 40
			} else {
				line = next[part]
				next[part]++
			}
			*r = mem.Req{Addr: line * 64, PC: n, Part: part, LCTask: part == 0}
			c.Accept(r, now)
		}
	}
	now := sim.Cycle(0)
	serve := func() {
		for served := c.Stats.Served; c.Stats.Served == served; now++ {
			fill(now)
			c.Tick(now)
		}
	}
	for range 2 * cfg.CapNormal {
		serve() // warm the queue and the row buffers
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		serve()
	}
}
