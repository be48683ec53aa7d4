package dram

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pivot/internal/mem"
	"pivot/internal/sim"
)

// classRanker ranks requests by a per-partition class table, like bwctrl's
// MPAM classes; flip reassigns classes and bumps the generation.
type classRanker struct {
	class [4]int
	gen   uint64
}

func (k *classRanker) Rank(r *mem.Req) int { return k.class[r.Part] }
func (k *classRanker) RankGen() uint64     { return k.gen }

// denseClasses are the MPAM-like classes most tests flip between.
var denseClasses = []int{0, 1, 2}

// flip gives every partition a class drawn from levels.
func (k *classRanker) flip(rng *rand.Rand, levels []int) {
	for p := range k.class {
		k.class[p] = levels[rng.Intn(len(levels))]
	}
	k.gen++
}

// The ref* functions are the controller's scheduler before the ranked
// activation memo: a full startActivates every cycle and a full pick scan,
// with ranks read live through rank (nil = unranked, plain FR-FCFS). They
// are the reference the memoised controller must match grant for grant.

func refStartActivates(c *Controller, rank func(*mem.Req) int, now sim.Cycle) {
	for i := range c.claimed {
		c.claimed[i] = false
	}
	next := sim.NeverWork
	nb := len(c.banks)
	nClaimed := 0
	if c.cfg.MaxWait > 0 && len(c.normal) > 0 {
		if starveAt := c.normal[0].enq + c.cfg.MaxWait + 1; now >= starveAt {
			if c.claim(&c.normal[0], now, &next) {
				nClaimed++
			}
		}
	}
	for i := 0; i < len(c.prio) && i < prioActivateWindow && nClaimed < nb; i++ {
		if c.claim(&c.prio[i], now, &next) {
			nClaimed++
		}
	}
	if rank != nil {
		for i := range c.normal {
			if nClaimed >= nb {
				break
			}
			if rank(c.normal[i].req) == 0 {
				if c.claim(&c.normal[i], now, &next) {
					nClaimed++
				}
			}
		}
	}
	for i := range c.normal {
		if nClaimed >= nb {
			break
		}
		if c.claim(&c.normal[i], now, &next) {
			nClaimed++
		}
	}
}

func refPick(c *Controller, rank func(*mem.Req) int, now sim.Cycle, ch int) (q *[]entry, idx int) {
	if c.cfg.MaxWait > 0 && len(c.normal) > 0 {
		e := &c.normal[0]
		if c.channelOf(e.bank) == ch && now-e.enq > c.cfg.MaxWait && c.rowOpenFor(e, now) {
			c.Stats.Promoted++
			return &c.normal, 0
		}
	}
	if c.PriorityEnabled && len(c.prio) > 0 {
		prioOnCh := false
		for i := range c.prio {
			if c.channelOf(c.prio[i].bank) != ch {
				continue
			}
			prioOnCh = true
			if c.rowOpenFor(&c.prio[i], now) {
				return &c.prio, i
			}
		}
		if prioOnCh {
			if rank != nil {
				for i := range c.normal {
					if c.channelOf(c.normal[i].bank) == ch &&
						rank(c.normal[i].req) == 0 && c.rowOpenFor(&c.normal[i], now) {
						return &c.normal, i
					}
				}
			}
			return nil, -1
		}
	}
	best, bestRank := -1, int(^uint(0)>>1)
	for i := range c.normal {
		if c.channelOf(c.normal[i].bank) != ch || !c.rowOpenFor(&c.normal[i], now) {
			continue
		}
		if rank == nil {
			return &c.normal, i
		}
		if r := rank(c.normal[i].req); r < bestRank {
			best, bestRank = i, r
		}
	}
	if best >= 0 {
		return &c.normal, best
	}
	return nil, -1
}

func refTick(c *Controller, rank func(*mem.Req) int, now sim.Cycle) {
	for c.respHead <= now {
		r := c.pendingResp.PopHead().req
		if c.pendingResp.Len() > 0 {
			c.respHead = c.pendingResp.At(0).due
		} else {
			c.respHead = sim.NeverWork
		}
		if c.Respond != nil {
			c.Respond(r, now)
		}
	}
	c.maybeRefresh(now)
	refStartActivates(c, rank, now)
	for ch := range c.busFreeAt {
		if c.busFreeAt[ch] > now {
			c.Stats.BusyCycles++
			continue
		}
		q, i := refPick(c, rank, now, ch)
		if q == nil {
			continue
		}
		e := remove(q, i)
		c.Stats.Served++
		c.Stats.RowHits++
		c.Stats.LinesMoved++
		if e.req.Critical {
			c.Stats.CritServed++
		}
		wait := uint64(now - e.enq)
		if e.req.LCTask {
			c.Stats.WaitCyclesLC += wait
		} else {
			c.Stats.WaitCyclesBE += wait
		}
		c.busFreeAt[ch] = now + c.cfg.TBurst
		c.Stats.BusyCycles++
		done := now + c.cfg.TCAS + c.cfg.TBurst
		e.req.Depart(mem.CompMemCtrl, e.enq, now, 0)
		e.req.Hop(mem.CompDRAM, now, done-now)
		e.req.Hop(mem.CompResp, done, c.cfg.RespLatency)
		if c.pendingResp.Len() == 0 {
			c.respHead = done + c.cfg.RespLatency
		}
		c.pendingResp.Push(respEntry{req: e.req, due: done + c.cfg.RespLatency})
	}
}

// equivCase is one seeded traffic mix for the differential test.
type equivCase struct {
	// ranked names the Ranker: "false" (none), "true" (classes 0-2) or
	// "sparse" (classes 0, 3 and 9, and every other flip leaves no partition
	// at rank 0).
	ranked                 string
	prio, refresh, restore bool
	channels               int
}

// TestSchedulerMemoMatchesFullScan drives the memoised controller and the
// full-scan reference with the same seeded traffic — bursts of accepts on
// either side of each Tick, priority entries, heads past MaxWait, refresh,
// and (ranked) classes flipped at random cycles — and requires identical
// grant order, bank state, queues and Stats after every cycle, and occupancy
// counts that match the memoised controller's queue. The unranked cases pin
// the activation memo's accept and serve repairs on their own. The restore
// cases move the memoised controller's snapshot into a fresh controller at
// random cycles and carry on against the same reference.
func TestSchedulerMemoMatchesFullScan(t *testing.T) {
	var cases []equivCase
	for _, restore := range []bool{false, true} {
		for _, ranked := range []string{"false", "true", "sparse"} {
			for _, prio := range []bool{false, true} {
				for _, refresh := range []bool{false, true} {
					for _, channels := range []int{1, 2} {
						cases = append(cases, equivCase{ranked, prio, refresh, restore, channels})
					}
				}
			}
		}
	}
	for _, tc := range cases {
		name := fmt.Sprintf("ranked=%s/prio=%v/refresh=%v/ch=%d",
			tc.ranked, tc.prio, tc.refresh, tc.channels)
		if tc.restore {
			name += "/restore"
		}
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				runSchedEquiv(t, tc, seed)
			}
		})
	}
}

func runSchedEquiv(t *testing.T, tc equivCase, seed int64) {
	t.Helper()
	cfg := Config{
		Channels: tc.channels, Banks: 4, ColumnLines: 8,
		TBurst: 4, TCAS: 10, TRP: 10, TRCD: 10,
		CapNormal: 12, CapPrio: 4, MaxWait: 90, RespLatency: 5,
	}
	if tc.refresh {
		cfg.RefreshInterval, cfg.RefreshLatency = 700, 30
	}
	var got, want []uint64
	newMemo := func() *Controller {
		c := New(cfg, 64)
		c.Respond = func(r *mem.Req, now sim.Cycle) { got = append(got, r.PC) }
		c.PriorityEnabled = tc.prio
		return c
	}
	memo, ref := newMemo(), New(cfg, 64)
	ref.Respond = func(r *mem.Req, now sim.Cycle) { want = append(want, r.PC) }
	ref.PriorityEnabled = tc.prio
	classes := &classRanker{class: [4]int{0, 1, 2, 1}}
	levels := denseClasses
	if tc.ranked == "sparse" {
		classes.class, levels = [4]int{0, 3, 9, 3}, []int{0, 3, 9}
	}
	var rank func(*mem.Req) int
	if tc.ranked != "false" {
		memo.Ranker = classes
		rank = classes.Rank
	}

	rng := rand.New(rand.NewSource(seed))
	var id uint64
	offer := func(now sim.Cycle) {
		for k := rng.Intn(3); k > 0; k-- {
			id++
			bank := uint64(rng.Intn(4 * tc.channels))
			line := ((uint64(rng.Intn(3))*4+bank/uint64(tc.channels))*8+uint64(rng.Intn(8)))*uint64(tc.channels) +
				bank%uint64(tc.channels)
			r := mem.Req{Addr: line * 64, PC: id, Part: mem.PartID(rng.Intn(4)),
				Critical: rng.Intn(4) == 0, LCTask: rng.Intn(2) == 0}
			a, b := r, r
			if okA, okB := memo.Accept(&a, now), ref.Accept(&b, now); okA != okB {
				t.Fatalf("seed %d cycle %d: accept of req %d: memo %v, reference %v", seed, now, id, okA, okB)
			}
		}
	}
	for now := sim.Cycle(0); now < 4000; now++ {
		if rank != nil && rng.Intn(150) == 0 {
			if tc.ranked == "sparse" && rng.Intn(2) == 0 {
				classes.flip(rng, levels[1:])
			} else {
				classes.flip(rng, levels)
			}
		}
		if tc.restore && rng.Intn(300) == 0 {
			fresh := newMemo()
			fresh.Ranker = memo.Ranker
			fresh.RestoreState(memo.SnapshotState())
			memo = fresh
		}
		offer(now)
		memo.Tick(now)
		refTick(ref, rank, now)
		offer(now)
		checkCounts(t, memo)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d cycle %d: grant order diverged:\nmemo %v\nref  %v", seed, now, got, want)
		}
		if !reflect.DeepEqual(memo.banks, ref.banks) {
			t.Fatalf("seed %d cycle %d: bank state diverged:\nmemo %+v\nref  %+v", seed, now, memo.banks, ref.banks)
		}
		if memo.Stats != ref.Stats {
			t.Fatalf("seed %d cycle %d: stats diverged:\nmemo %+v\nref  %+v", seed, now, memo.Stats, ref.Stats)
		}
		if now%64 == 0 && !reflect.DeepEqual(memo.SnapshotState(), ref.SnapshotState()) {
			t.Fatalf("seed %d cycle %d: controller state diverged", seed, now)
		}
	}
	if !reflect.DeepEqual(memo.SnapshotState(), ref.SnapshotState()) {
		t.Fatalf("seed %d: final controller state diverged", seed)
	}
	if memo.Stats.Served < 300 {
		t.Fatalf("seed %d: only %d requests served; the traffic does not load the controller", seed, memo.Stats.Served)
	}
}

// checkCounts requires c's occupancy counts to match a recount of its
// normal queue's cached ranks.
func checkCounts(t *testing.T, c *Controller) {
	t.Helper()
	ranks := make([]int, len(c.rankCount))
	banks := make([]int, len(c.banks))
	bank0 := make([]int, len(c.banks))
	for _, e := range c.normal {
		if e.rank >= len(ranks) {
			t.Fatalf("rank %d queued beyond the %d-entry rank table", e.rank, len(ranks))
		}
		ranks[e.rank]++
		banks[e.bank]++
		if e.rank == 0 {
			bank0[e.bank]++
		}
	}
	if !reflect.DeepEqual(ranks, c.rankCount) || !reflect.DeepEqual(banks, c.bankCount) ||
		!reflect.DeepEqual(bank0, c.bankRank0) {
		t.Fatalf("occupancy counts drifted from the queue:\nranks %v, want %v\nbanks %v, want %v\nbank rank-0 %v, want %v",
			c.rankCount, ranks, c.bankCount, banks, c.bankRank0, bank0)
	}
}
