package profile

import (
	"testing"
	"testing/quick"

	"pivot/internal/sim"
)

// feed records n retirements of pc with the given stall and miss pattern.
func feed(p *Profiler, pc uint64, n int, stall sim.Cycle, missEvery int) {
	for i := 0; i < n; i++ {
		miss := missEvery > 0 && i%missEvery == 0
		p.OnLoadRetire(pc, stall, miss)
	}
}

func TestSelectionRules(t *testing.T) {
	p := NewProfiler()
	// A hot chase load: frequent, always missing, huge stall.
	feed(p, 0x100, 1000, 200, 1)
	// A frequent cache-friendly load: low miss rate, little stall.
	feed(p, 0x200, 1000, 2, 100) // 1% misses
	// A rare load: below the execution-frequency floor no matter what.
	feed(p, 0x300, 3, 500, 1)
	// A frequent high-miss payload load with modest stall.
	feed(p, 0x400, 1000, 5, 2) // 50% misses

	set := p.Select(Params{MinExecFreq: 0.005, MinLLCMissRate: 0.10, TopStallFrac: 0.05})
	if !set.Contains(0x100) {
		t.Fatal("chase load not selected")
	}
	if set.Contains(0x300) {
		t.Fatal("rare load selected despite frequency floor")
	}
	if !set.Contains(0x400) {
		t.Fatal("high-miss-rate load not selected (rule 2)")
	}
	if set.Contains(0x200) {
		t.Fatal("cache-friendly low-stall load selected")
	}
}

func TestTopStallRankRule(t *testing.T) {
	p := NewProfiler()
	// 40 loads, none exceeding the miss-rate rule, one with dominant stall.
	for i := 0; i < 40; i++ {
		feed(p, uint64(0x1000+i*4), 100, sim.Cycle(1+i%3), 100)
	}
	feed(p, 0x5000, 100, 1000, 100) // low miss rate but top stall
	set := p.Select(Params{MinExecFreq: 0.001, MinLLCMissRate: 0.99, TopStallFrac: 0.05})
	if !set.Contains(0x5000) {
		t.Fatal("top-stall load not selected by the ranking rule")
	}
	if len(set) > 3 {
		t.Fatalf("ranking rule selected %d loads, want the top ~5%%", len(set))
	}
}

func TestMaxSetCapKeepsHighestStall(t *testing.T) {
	p := NewProfiler()
	for i := 0; i < 100; i++ {
		feed(p, uint64(0x1000+i*4), 100, sim.Cycle(100-i), 1) // all miss-heavy
	}
	set := p.Select(Params{MinExecFreq: 0, MinLLCMissRate: 0.1, TopStallFrac: 0.05, MaxSet: 10})
	if len(set) != 10 {
		t.Fatalf("capped set size = %d, want 10", len(set))
	}
	if !set.Contains(0x1000) {
		t.Fatal("cap dropped the highest-stall load")
	}
	if set.Contains(0x1000 + 99*4) {
		t.Fatal("cap kept the lowest-stall load")
	}
}

func TestCDFMonotonicProperty(t *testing.T) {
	f := func(stalls []uint16) bool {
		p := NewProfiler()
		for i, s := range stalls {
			p.OnLoadRetire(uint64(0x100+i*4), sim.Cycle(s), true)
		}
		loadFrac, stallFrac := p.CDF()
		if len(stalls) == 0 {
			return loadFrac == nil
		}
		last := 0.0
		for i := range stallFrac {
			if stallFrac[i]+1e-9 < last {
				return false // must be non-decreasing
			}
			last = stallFrac[i]
			if loadFrac[i] < 0 || loadFrac[i] > 1 {
				return false
			}
		}
		// The CDF ends at 1 when any stall exists.
		var total uint64
		for _, s := range stalls {
			total += uint64(s)
		}
		if total > 0 && (stallFrac[len(stallFrac)-1] < 0.999) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStatsSortedByStall(t *testing.T) {
	p := NewProfiler()
	feed(p, 0x1, 10, 5, 1)
	feed(p, 0x2, 10, 50, 1)
	feed(p, 0x3, 10, 20, 1)
	stats := p.Stats()
	for i := 1; i < len(stats); i++ {
		if stats[i].StallCycles > stats[i-1].StallCycles {
			t.Fatal("stats not sorted by descending stall")
		}
	}
	if n := p.SnapshotState().TotalLoads; n != 30 {
		t.Fatalf("total loads = %d, want 30", n)
	}
}

func TestEmptyProfiler(t *testing.T) {
	p := NewProfiler()
	if set := p.Select(DefaultParams()); len(set) != 0 {
		t.Fatal("empty profiler selected loads")
	}
	if lf, sf := p.CDF(); lf != nil || sf != nil {
		t.Fatal("empty profiler produced a CDF")
	}
}

func TestMissRate(t *testing.T) {
	s := LoadStat{Execs: 4, LLCMisses: 1}
	if s.MissRate() != 0.25 {
		t.Fatalf("miss rate = %v, want 0.25", s.MissRate())
	}
	if (LoadStat{}).MissRate() != 0 {
		t.Fatal("zero-exec miss rate should be 0")
	}
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	d := DefaultParams()
	if d.MinExecFreq != 0.005 || d.MinLLCMissRate != 0.10 || d.TopStallFrac != 0.05 {
		t.Fatalf("defaults drifted from the paper's §IV-B values: %+v", d)
	}
}
