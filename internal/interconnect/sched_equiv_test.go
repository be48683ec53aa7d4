package interconnect

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pivot/internal/mem"
	"pivot/internal/ring"
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

func (k *classRanker) flip(rng *rand.Rand) {
	for p := range k.class {
		k.class[p] = rng.Intn(3)
	}
	k.gen++
}

// flakySink refuses offers at random, seeded, so the station under test
// spends cycles blocked on a ready pick. It cannot tell when it will accept
// next, so it asks for a retry from inside every refusal.
type flakySink struct {
	rng   *rand.Rand
	got   []uint64
	retry func()
}

func (s *flakySink) Accept(r *mem.Req, now sim.Cycle) bool {
	if s.rng.Intn(3) != 0 {
		if s.retry != nil {
			s.retry()
		}
		return false
	}
	s.got = append(s.got, r.PC)
	return true
}

func (s *flakySink) SetRetry(retry func())        { s.retry = retry }
func (s *flakySink) ChargeRefused(_, _ sim.Cycle) {}

// refStation is the station as it was before class lanes: one FCFS normal
// queue and, every grant, a full ranked scan with ranks read live through
// rank (nil = unranked). It is the oracle the lane-based station must
// match grant for grant.
type refStation struct {
	cfg          Config
	down         Acceptor
	prioEnabled  bool
	normal, prio ring.Ring[entry]
	Stats        Stats
}

func newRefStation(cfg Config, down Acceptor) *refStation {
	return &refStation{cfg: cfg, down: down,
		normal: ring.New[entry](cfg.CapNormal), prio: ring.New[entry](cfg.CapPrio)}
}

func (s *refStation) Accept(r *mem.Req, now sim.Cycle) bool {
	q, capacity := &s.normal, s.cfg.CapNormal
	if s.prioEnabled && r.Critical {
		q, capacity = &s.prio, s.cfg.CapPrio
	}
	if q.Len() >= capacity {
		s.Stats.Refused++
		return false
	}
	q.Push(entry{req: r, ready: now + s.cfg.Latency, enq: now})
	r.Enter(s.cfg.Component, now)
	s.Stats.Accepted++
	return true
}

func (s *refStation) snapshot() StationState {
	st := StationState{Normal: make([]EntryState, s.normal.Len()),
		Prio: make([]EntryState, s.prio.Len()), Stats: s.Stats}
	for i := range st.Normal {
		st.Normal[i] = entryState(s.normal.At(i))
	}
	for i := range st.Prio {
		st.Prio[i] = entryState(s.prio.At(i))
	}
	return st
}

func refPickNormal(s *refStation, rank func(*mem.Req) int, now sim.Cycle) int {
	n := s.normal.Len()
	if n == 0 {
		return -1
	}
	if rank == nil {
		if s.normal.At(0).ready <= now {
			return 0
		}
		return -1
	}
	best := -1
	bestRank := int(^uint(0) >> 1)
	a, b := s.normal.Slices()
	i := 0
scan:
	for _, seg := range [2][]entry{a, b} {
		for k := range seg {
			e := &seg[k]
			if e.ready > now {
				break scan
			}
			if r := rank(e.req); r < bestRank {
				best, bestRank = i, r
				if r <= 0 {
					break scan
				}
			}
			i++
		}
	}
	return best
}

func refTick(s *refStation, rank func(*mem.Req) int, now sim.Cycle) {
	for n := 0; n < s.cfg.Bandwidth; n++ {
		var e *entry
		var fromPrio, promoted bool
		idx := 0

		var hn *entry
		if s.normal.Len() > 0 {
			hn = s.normal.At(0)
		}
		if hn != nil && s.cfg.MaxWait != 0 && hn.ready <= now && now-hn.enq > s.cfg.MaxWait {
			e, promoted = hn, true
		} else if s.prio.Len() > 0 {
			if hp := s.prio.At(0); hp.ready <= now {
				e, fromPrio = hp, true
			}
		}
		if e == nil {
			if rank == nil {
				if hn != nil && hn.ready <= now {
					e = hn
				}
			} else if i := refPickNormal(s, rank, now); i >= 0 {
				e, idx = s.normal.At(i), i
			}
		}
		if e == nil {
			return
		}
		r, enq := e.req, e.enq
		if !s.down.Accept(r, now) {
			return
		}
		r.Depart(s.cfg.Component, enq, now, s.cfg.Latency)
		s.Stats.WaitCycles += uint64(now - enq)
		if promoted {
			s.Stats.Promoted++
		}
		if fromPrio {
			s.prio.PopHead()
		} else if idx == 0 {
			s.normal.PopHead()
		} else {
			s.normal.RemoveAt(idx)
		}
		s.Stats.Forwarded++
	}
}

// TestRankedPickMemoMatchesFullScan drives the lane-based station and the
// full-scan reference with the same seeded traffic — accepts on either side
// of each Tick, priority entries, heads past MaxWait, a downstream that
// refuses at random, classes flipped at random cycles, and a snapshot
// restored in place now and then — and requires identical grant order,
// queues and Stats after every cycle.
func TestRankedPickMemoMatchesFullScan(t *testing.T) {
	for _, ranked := range []bool{false, true} {
		for _, bw := range []int{1, 2} {
			t.Run(fmt.Sprintf("ranked=%v/bw=%d", ranked, bw), func(t *testing.T) {
				for seed := int64(1); seed <= 8; seed++ {
					runPickEquiv(t, ranked, bw, seed)
				}
			})
		}
	}
}

func runPickEquiv(t *testing.T, ranked bool, bw int, seed int64) {
	t.Helper()
	cfg := Config{Name: "t", Component: mem.CompBus, Latency: 3, Bandwidth: bw,
		CapNormal: 16, CapPrio: 4, MaxWait: 60}
	laneDown := &flakySink{rng: rand.New(rand.NewSource(seed + 100))}
	refDown := &flakySink{rng: rand.New(rand.NewSource(seed + 100))}
	lanes, ref := New(cfg, laneDown), newRefStation(cfg, refDown)
	lanes.PriorityEnabled, ref.prioEnabled = true, true
	classes := &classRanker{class: [4]int{0, 1, 2, 1}}
	var rank func(*mem.Req) int
	if ranked {
		lanes.Ranker = classes
		rank = classes.Rank
	}

	rng := rand.New(rand.NewSource(seed))
	var id uint64
	offer := func(now sim.Cycle) {
		for k := rng.Intn(2); k > 0; k-- {
			id++
			r := mem.Req{PC: id, Part: mem.PartID(rng.Intn(4)), Critical: rng.Intn(6) == 0}
			a, b := r, r
			if okA, okB := lanes.Accept(&a, now), ref.Accept(&b, now); okA != okB {
				t.Fatalf("seed %d cycle %d: accept of req %d: lanes %v, reference %v", seed, now, id, okA, okB)
			}
		}
	}
	for now := sim.Cycle(0); now < 3000; now++ {
		if ranked && rng.Intn(100) == 0 {
			classes.flip(rng)
		}
		if rng.Intn(250) == 0 {
			lanes.RestoreState(lanes.SnapshotState())
		}
		offer(now)
		lanes.Tick(now)
		refTick(ref, rank, now)
		offer(now)
		if !reflect.DeepEqual(laneDown.got, refDown.got) {
			t.Fatalf("seed %d cycle %d: grant order diverged:\nmemo %v\nref  %v", seed, now, laneDown.got, refDown.got)
		}
		if lanes.Stats != ref.Stats {
			t.Fatalf("seed %d cycle %d: stats diverged:\nmemo %+v\nref  %+v", seed, now, lanes.Stats, ref.Stats)
		}
		if now%32 == 0 && !reflect.DeepEqual(lanes.SnapshotState(), ref.snapshot()) {
			t.Fatalf("seed %d cycle %d: station state diverged", seed, now)
		}
	}
	if !reflect.DeepEqual(lanes.SnapshotState(), ref.snapshot()) {
		t.Fatalf("seed %d: final station state diverged", seed)
	}
	if lanes.Stats.Forwarded < 500 {
		t.Fatalf("seed %d: only %d requests forwarded; the traffic does not load the station", seed, lanes.Stats.Forwarded)
	}
}
