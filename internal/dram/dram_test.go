package dram

import (
	"testing"

	"pivot/internal/mem"
	"pivot/internal/sim"
)

func testCfg() Config {
	return Config{
		Banks: 4, ColumnLines: 8, TBurst: 8, TCAS: 10, TRP: 10, TRCD: 10,
		CapNormal: 8, CapPrio: 4, MaxWait: 200, RespLatency: 5,
	}
}

func newCtl() (*Controller, *[]*mem.Req) {
	c := New(testCfg(), 64)
	done := &[]*mem.Req{}
	c.Respond = func(r *mem.Req, now sim.Cycle) { *done = append(*done, r) }
	return c, done
}

// lineAddr builds an address hitting (bank, row, col) under the test config.
func lineAddr(bank, row, col uint64) uint64 {
	line := (row*4+bank)*8 + col
	return line * 64
}

func run(c *Controller, from, to sim.Cycle) {
	for now := from; now < to; now++ {
		c.Tick(now)
	}
}

func TestSingleRequestLatency(t *testing.T) {
	c, done := newCtl()
	r := &mem.Req{Addr: lineAddr(0, 0, 0)}
	if !c.Accept(r, 0) {
		t.Fatal("accept failed")
	}
	run(c, 0, 100)
	if len(*done) != 1 {
		t.Fatal("request never completed")
	}
	// Closed bank: activate (TRCD) + CAS + burst + response.
	if !c.Drained() {
		t.Fatal("controller not drained")
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	c, done := newCtl()
	c.Accept(&mem.Req{Addr: lineAddr(0, 0, 0)}, 0)
	run(c, 0, 100)
	misses := c.Stats.RowMisses

	// Same row again: no new activate.
	c.Accept(&mem.Req{Addr: lineAddr(0, 0, 1)}, 100)
	run(c, 100, 200)
	if c.Stats.RowMisses != misses {
		t.Fatal("row hit caused an activation")
	}
	// Different row, same bank: precharge + activate.
	c.Accept(&mem.Req{Addr: lineAddr(0, 1, 0)}, 200)
	run(c, 200, 300)
	if c.Stats.RowMisses != misses+1 {
		t.Fatal("row conflict did not activate")
	}
	if len(*done) != 3 {
		t.Fatalf("completed %d, want 3", len(*done))
	}
}

func TestStreamingPeakBandwidth(t *testing.T) {
	c, done := newCtl()
	// Keep the queue fed with sequential lines; expect ~1 line per TBurst.
	next := uint64(0)
	const cycles = 2000
	for now := sim.Cycle(0); now < cycles; now++ {
		for n, _ := c.QueueLen(); n < 8; n++ {
			c.Accept(&mem.Req{Addr: next * 64}, now)
			next++
		}
		c.Tick(now)
	}
	util := c.Utilisation(cycles)
	if util < 0.85 {
		t.Fatalf("streaming utilisation = %.2f, want near peak (>0.85)", util)
	}
	if len(*done) == 0 {
		t.Fatal("nothing completed")
	}
}

func TestBankConflictNoLivelock(t *testing.T) {
	c, done := newCtl()
	// Two requests, same bank, different rows — the bug class that
	// motivated per-bank claim ownership.
	c.Accept(&mem.Req{Addr: lineAddr(1, 0, 0)}, 0)
	c.Accept(&mem.Req{Addr: lineAddr(1, 5, 0)}, 0)
	run(c, 0, 500)
	if len(*done) != 2 {
		t.Fatalf("completed %d of 2 same-bank requests (livelock?)", len(*done))
	}
}

func TestPriorityServedFirstAndStrictIdle(t *testing.T) {
	c, done := newCtl()
	c.PriorityEnabled = true
	// Fill normal queue with row hits for bank 0 and inject one critical
	// request to a different row in bank 1.
	for i := uint64(0); i < 6; i++ {
		c.Accept(&mem.Req{Addr: lineAddr(0, 0, i)}, 0)
	}
	crit := &mem.Req{Addr: lineAddr(1, 3, 0), Critical: true}
	c.Accept(crit, 0)
	run(c, 0, 400)
	if len(*done) != 7 {
		t.Fatalf("completed %d of 7", len(*done))
	}
	// The critical request must complete before the tail of the normal
	// stream despite arriving with a closed row.
	pos := -1
	for i, r := range *done {
		if r == crit {
			pos = i
		}
	}
	if pos == -1 || pos > 2 {
		t.Fatalf("critical request completed at position %d, want among first 3", pos)
	}
	if c.Stats.CritServed != 1 {
		t.Fatalf("CritServed = %d, want 1", c.Stats.CritServed)
	}
}

func TestStarvationGuardPromotesNormal(t *testing.T) {
	c, done := newCtl()
	c.PriorityEnabled = true
	old := &mem.Req{Addr: lineAddr(2, 0, 0)}
	c.Accept(old, 0)
	// Saturate with critical traffic to a different bank.
	col := uint64(0)
	for now := sim.Cycle(0); now < 1000; now++ {
		if _, p := c.QueueLen(); p < 4 {
			c.Accept(&mem.Req{Addr: lineAddr(3, 0, col%8), Critical: true}, now)
			col++
		}
		c.Tick(now)
	}
	served := false
	for _, r := range *done {
		if r == old {
			served = true
		}
	}
	if !served {
		t.Fatal("starved normal request never served despite MaxWait guard")
	}
	if c.Stats.Promoted == 0 {
		t.Fatal("promotion not counted")
	}
}

func TestQueueCapacityRefusal(t *testing.T) {
	c, _ := newCtl()
	for i := uint64(0); i < 8; i++ {
		if !c.Accept(&mem.Req{Addr: lineAddr(0, 0, i%8)}, 0) {
			t.Fatal("accept below capacity failed")
		}
	}
	if c.Accept(&mem.Req{Addr: lineAddr(0, 0, 0)}, 0) {
		t.Fatal("accept above capacity succeeded")
	}
	if c.Stats.Refused != 1 {
		t.Fatalf("refused = %d, want 1", c.Stats.Refused)
	}
}

func TestClassifyOrdersNormalQueue(t *testing.T) {
	c, done := newCtl()
	c.Ranker = &classRanker{class: [4]int{0, 1, 2, 3}}
	// Open the row for both first so ordering is purely class-driven.
	be := &mem.Req{Addr: lineAddr(0, 0, 0), Part: 1}
	lc := &mem.Req{Addr: lineAddr(0, 0, 1), Part: 0}
	c.Accept(be, 0)
	c.Accept(lc, 0)
	run(c, 0, 200)
	if len(*done) != 2 {
		t.Fatalf("completed %d", len(*done))
	}
	if (*done)[0] != lc {
		t.Fatal("high-class request was not served first within the normal queue")
	}
}

func TestWriteAccounting(t *testing.T) {
	c, done := newCtl()
	c.Accept(&mem.Req{Addr: lineAddr(0, 0, 0), IsWrite: true, LCTask: false}, 0)
	run(c, 0, 100)
	if len(*done) != 1 {
		t.Fatal("write never responded")
	}
	if c.Stats.LinesMoved != 1 {
		t.Fatal("write did not count toward bandwidth")
	}
	if c.Stats.WaitCyclesBE == 0 && c.Stats.WaitCyclesLC != 0 {
		t.Fatal("wait accounting misattributed")
	}
}

func TestRefreshBlocksAndCloses(t *testing.T) {
	cfg := testCfg()
	cfg.RefreshInterval = 500
	cfg.RefreshLatency = 100
	c := New(cfg, 64)
	done := 0
	c.Respond = func(r *mem.Req, now sim.Cycle) { done++ }

	// Open a row well before the refresh boundary.
	c.Accept(&mem.Req{Addr: lineAddr(0, 0, 0)}, 0)
	run(c, 0, 400)
	if done != 1 {
		t.Fatal("setup: request did not complete")
	}
	misses := c.Stats.RowMisses

	// Cross the refresh boundary; the open row must close, so the next
	// same-row access activates again.
	run(c, 400, 700)
	if c.Stats.Refreshes == 0 {
		t.Fatal("no refresh performed across tREFI")
	}
	c.Accept(&mem.Req{Addr: lineAddr(0, 0, 1)}, 700)
	run(c, 700, 900)
	if done != 2 {
		t.Fatal("post-refresh request did not complete")
	}
	if c.Stats.RowMisses != misses+1 {
		t.Fatal("refresh did not close the open row")
	}
}

func TestRefreshCostsBandwidth(t *testing.T) {
	sustained := func(interval sim.Cycle) float64 {
		cfg := testCfg()
		cfg.RefreshInterval = interval
		cfg.RefreshLatency = 200
		c := New(cfg, 64)
		c.Respond = func(r *mem.Req, now sim.Cycle) {}
		next := uint64(0)
		const cycles = 4000
		for now := sim.Cycle(0); now < cycles; now++ {
			for n, _ := c.QueueLen(); n < 8; n++ {
				c.Accept(&mem.Req{Addr: next * 64}, now)
				next++
			}
			c.Tick(now)
		}
		return c.Utilisation(cycles)
	}
	noRef := sustained(0)
	withRef := sustained(1000) // 20% of time refreshing
	if withRef >= noRef {
		t.Fatalf("refresh did not cost bandwidth: %.3f >= %.3f", withRef, noRef)
	}
}

func TestMultiChannelDoublesStreamingThroughput(t *testing.T) {
	sustained := func(channels int) float64 {
		cfg := testCfg()
		cfg.Channels = channels
		c := New(cfg, 64)
		c.Respond = func(r *mem.Req, now sim.Cycle) {}
		next := uint64(0)
		const cycles = 4000
		for now := sim.Cycle(0); now < cycles; now++ {
			for n, _ := c.QueueLen(); n < 8; n++ {
				c.Accept(&mem.Req{Addr: next * 64}, now)
				next++
			}
			c.Tick(now)
		}
		return float64(c.Stats.LinesMoved) / cycles
	}
	one := sustained(1)
	two := sustained(2)
	t.Logf("lines/cycle: 1ch=%.4f 2ch=%.4f", one, two)
	if two < one*1.7 {
		t.Fatalf("second channel added too little: %.4f vs %.4f", two, one)
	}
}

func TestChannelDecodeDisjoint(t *testing.T) {
	cfg := testCfg()
	cfg.Channels = 2
	c := New(cfg, 64)
	// Adjacent lines alternate channels (line-interleaved).
	b0, _ := c.decode(0 * 64)
	b1, _ := c.decode(1 * 64)
	if c.channelOf(b0) == c.channelOf(b1) {
		t.Fatal("adjacent lines landed on the same channel")
	}
	if c.channelOf(b0) >= 2 || c.channelOf(b1) >= 2 {
		t.Fatal("channel out of range")
	}
}
