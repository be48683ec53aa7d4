package interconnect

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"pivot/internal/mem"
	"pivot/internal/sim"
)

// sink accepts everything (optionally up to a cap) and records order.
type sink struct {
	got []*mem.Req
	cap int // 0 = unlimited
}

func (s *sink) Accept(r *mem.Req, now sim.Cycle) bool {
	if s.cap > 0 && len(s.got) >= s.cap {
		return false
	}
	s.got = append(s.got, r)
	return true
}

// A capped sink never frees a slot, so it never calls the retry hook.
func (s *sink) SetRetry(func())              {}
func (s *sink) ChargeRefused(_, _ sim.Cycle) {}

func cfg() Config {
	return Config{Name: "t", Component: mem.CompBus, Latency: 3, Bandwidth: 1,
		CapNormal: 4, CapPrio: 2}
}

func req(crit bool) *mem.Req { return &mem.Req{Critical: crit} }

func TestStationLatencyAndForwarding(t *testing.T) {
	dn := &sink{}
	s := New(cfg(), dn)
	if !s.Accept(req(false), 0) {
		t.Fatal("accept into empty station failed")
	}
	// Not ready until latency elapses.
	s.Tick(1)
	s.Tick(2)
	if len(dn.got) != 0 {
		t.Fatal("forwarded before latency elapsed")
	}
	s.Tick(3)
	if len(dn.got) != 1 {
		t.Fatal("not forwarded after latency elapsed")
	}
	if !s.Drain() {
		t.Fatal("station not drained")
	}
}

func TestStationCapacityBackPressure(t *testing.T) {
	dn := &sink{}
	s := New(cfg(), dn)
	for i := 0; i < 4; i++ {
		if !s.Accept(req(false), 0) {
			t.Fatalf("accept %d failed below capacity", i)
		}
	}
	if s.Accept(req(false), 0) {
		t.Fatal("accept above CapNormal succeeded")
	}
	if s.Stats.Refused != 1 {
		t.Fatalf("refused = %d, want 1", s.Stats.Refused)
	}
}

func TestStationHeadOfLineBlocking(t *testing.T) {
	dn := &sink{cap: 1}
	s := New(cfg(), dn)
	s.Accept(req(false), 0)
	s.Accept(req(false), 0)
	for now := sim.Cycle(0); now < 20; now++ {
		s.Tick(now)
	}
	if len(dn.got) != 1 {
		t.Fatalf("downstream got %d, want 1 (blocked)", len(dn.got))
	}
	if n, _ := s.QueueLen(); n != 1 {
		t.Fatalf("normal queue = %d, want 1 blocked request", n)
	}
}

func TestStationPriorityQueue(t *testing.T) {
	dn := &sink{}
	s := New(cfg(), dn)
	s.PriorityEnabled = true
	normal := req(false)
	crit := req(true)
	s.Accept(normal, 0)
	s.Accept(crit, 0)
	for now := sim.Cycle(3); now < 10; now++ {
		s.Tick(now) // both ready from cycle 3: priority must win
	}
	if len(dn.got) != 2 {
		t.Fatalf("forwarded %d, want 2", len(dn.got))
	}
	if dn.got[0] != crit {
		t.Fatal("critical request did not bypass the older normal request")
	}
}

func TestStationPriorityDisabledSharesQueue(t *testing.T) {
	dn := &sink{}
	s := New(cfg(), dn)
	normal, crit := req(false), req(true)
	s.Accept(normal, 0)
	s.Accept(crit, 0)
	for now := sim.Cycle(0); now < 10; now++ {
		s.Tick(now)
	}
	if dn.got[0] != normal {
		t.Fatal("without priority queues, FCFS order must hold")
	}
}

// TestStationPriorityQueueFullFallsBack: the dedicated queue's purpose is
// space; when even it is full, accept refuses rather than dropping.
func TestStationPriorityQueueFull(t *testing.T) {
	s := New(cfg(), &sink{cap: 0})
	s.PriorityEnabled = true
	if !s.Accept(req(true), 0) || !s.Accept(req(true), 0) {
		t.Fatal("priority accepts below capacity failed")
	}
	if s.Accept(req(true), 0) {
		t.Fatal("accept above CapPrio succeeded")
	}
}

func TestStationStarvationGuard(t *testing.T) {
	c := cfg()
	c.MaxWait = 10
	c.Latency = 0 // keep the priority queue instantly ready
	dn := &sink{}
	s := New(c, dn)
	s.PriorityEnabled = true
	old := req(false)
	s.Accept(old, 0)
	// Keep the priority queue loaded: without the guard, `old` would wait
	// forever behind always-ready critical traffic.
	for now := sim.Cycle(0); now < 40; now++ {
		for {
			if _, p := s.QueueLen(); p >= 2 {
				break
			}
			s.Accept(req(true), now)
		}
		s.Tick(now)
	}
	found := false
	for _, r := range dn.got {
		if r == old {
			found = true
		}
	}
	if !found {
		t.Fatal("starved normal request was never promoted")
	}
	if s.Stats.Promoted == 0 {
		t.Fatal("promotion not counted")
	}
}

func TestStationClassify(t *testing.T) {
	dn := &sink{}
	s := New(cfg(), dn)
	low := &mem.Req{Part: 1}
	high := &mem.Req{Part: 0}
	s.Ranker = &classRanker{class: [4]int{0, 1, 2, 3}}
	s.Accept(low, 0)
	s.Accept(high, 0)
	for now := sim.Cycle(0); now < 10; now++ {
		s.Tick(now)
	}
	if dn.got[0] != high {
		t.Fatal("class ranking did not reorder the normal queue")
	}
}

func TestStationBandwidth(t *testing.T) {
	c := cfg()
	c.Bandwidth = 2
	c.Latency = 0
	dn := &sink{}
	s := New(c, dn)
	for i := 0; i < 4; i++ {
		s.Accept(req(false), 0)
	}
	s.Tick(0)
	if len(dn.got) != 2 {
		t.Fatalf("forwarded %d in one cycle, want bandwidth=2", len(dn.got))
	}
}

func TestStationSplitAccounting(t *testing.T) {
	dn := &sink{}
	s := New(cfg(), dn)
	r := req(false)
	s.Accept(r, 5)
	for now := sim.Cycle(5); now <= 8; now++ {
		s.Tick(now)
	}
	if got := r.Split[mem.CompBus]; got != 3 {
		t.Fatalf("split for bus = %d, want 3 (latency)", got)
	}
}

// TestConservationProperty: for any offered traffic pattern, requests are
// conserved — accepted == forwarded + still queued — and refusals never
// lose a request.
func TestConservationProperty(t *testing.T) {
	rng := sim.NewRNG(123)
	for trial := 0; trial < 50; trial++ {
		c := Config{Name: "p", Component: mem.CompBus,
			Latency: sim.Cycle(rng.Intn(5)), Bandwidth: 1 + rng.Intn(3),
			CapNormal: 1 + rng.Intn(8), CapPrio: 1 + rng.Intn(4)}
		dn := &sink{cap: 1 + rng.Intn(20)}
		s := New(c, dn)
		s.PriorityEnabled = rng.Intn(2) == 0
		offered, accepted := 0, 0
		for now := sim.Cycle(0); now < 200; now++ {
			for k := 0; k < rng.Intn(3); k++ {
				offered++
				if s.Accept(req(rng.Intn(4) == 0), now) {
					accepted++
				}
			}
			s.Tick(now)
		}
		n, p := s.QueueLen()
		if uint64(accepted) != s.Stats.Accepted {
			t.Fatalf("trial %d: accepted mismatch", trial)
		}
		if s.Stats.Accepted != s.Stats.Forwarded+uint64(n+p) {
			t.Fatalf("trial %d: conservation broken: accepted=%d forwarded=%d queued=%d",
				trial, s.Stats.Accepted, s.Stats.Forwarded, n+p)
		}
		if s.Stats.Refused != uint64(offered-accepted) {
			t.Fatalf("trial %d: refusal accounting broken", trial)
		}
		if len(dn.got) != int(s.Stats.Forwarded) {
			t.Fatalf("trial %d: downstream saw %d, station forwarded %d",
				trial, len(dn.got), s.Stats.Forwarded)
		}
	}
}

// gate refuses every offer until opened, recording the cycle of each offer
// it saw and counting the refusals charged for the re-offers a sleeping
// station skipped. It keeps the refusal contract: with atOnce it asks for a
// re-offer from inside each refusal, else openAt calls the retry hook.
type gate struct {
	open, atOnce bool
	offers       []sim.Cycle
	charged      int
	got          []*mem.Req
	retry        func()
}

func (g *gate) Accept(r *mem.Req, now sim.Cycle) bool {
	g.offers = append(g.offers, now)
	if !g.open {
		if g.atOnce {
			g.retry()
		}
		return false
	}
	g.got = append(g.got, r)
	return true
}

func (g *gate) openUp() {
	g.open = true
	g.retry()
}

func (g *gate) SetRetry(retry func())            { g.retry = retry }
func (g *gate) ChargeRefused(from, to sim.Cycle) { g.charged += int(to - from) }

// TestStationStaysAwakeWhileHeadRefused: a downstream that cannot tell when
// it will accept asks for a retry from inside each refusal. A station whose
// ready head it refuses forecasts work every cycle, offers again on every
// Tick and forwards on the first cycle the downstream accepts; drained, it
// sleeps until woken, owing nothing.
func TestStationStaysAwakeWhileHeadRefused(t *testing.T) {
	for _, prio := range []bool{false, true} {
		for _, ranked := range []bool{false, true} {
			for _, bw := range []int{1, 2} {
				name := fmt.Sprintf("prio=%v/ranked=%v/bw=%d", prio, ranked, bw)
				t.Run(name, func(t *testing.T) {
					c := cfg()
					c.Bandwidth = bw
					g := &gate{atOnce: true}
					s := New(c, g)
					s.PriorityEnabled = true
					if ranked {
						s.Ranker = &classRanker{class: [4]int{0, 1, 2, 1}}
					}
					a, b := req(prio), req(prio)
					a.Part, b.Part = 2, 0
					if !s.Accept(a, 0) || !s.Accept(b, 0) {
						t.Fatal("station refused with empty queues")
					}
					ready := c.Latency
					for now := sim.Cycle(0); now < ready; now++ {
						if next := s.Tick(now); next != ready {
							t.Fatalf("cycle %d: forecast %#x, want %d", now, next, ready)
						}
					}
					for now := ready; now < ready+10; now++ {
						before := len(g.offers)
						if next := s.Tick(now); next != now+1 {
							t.Fatalf("cycle %d: forecast %#x with a head refused for a retry at once, want %d",
								now, next, now+1)
						}
						if len(g.offers) == before {
							t.Fatalf("cycle %d: blocked station did not offer again", now)
						}
					}
					if n, p := s.QueueLen(); n+p != 2 || len(g.got) != 0 {
						t.Fatalf("refused requests left the queues: normal %d, prio %d, got %d", n, p, len(g.got))
					}
					g.open = true
					open := ready + 10
					next := open
					for now := open; len(g.got) < 2 && now < open+5; now++ {
						next = s.Tick(now)
					}
					if len(g.got) != 2 {
						t.Fatalf("forwarded %d once the downstream opened, want 2", len(g.got))
					}
					if s.Stats.Forwarded != 2 {
						t.Fatalf("Forwarded = %d, want 2", s.Stats.Forwarded)
					}
					if next != sim.NeverWork {
						t.Fatalf("drained station forecast %#x, want NeverWork", next)
					}
				})
			}
		}
	}
}

// wakeStep is one scripted input: at cycle at, after the station's turn.
type wakeStep struct {
	at sim.Cycle
	do func(s *Station, g *gate, k *classRanker, now sim.Cycle)
}

// scriptFeeder applies the steps in a slot ordered after the station, as
// the machine orders a station's upstream after it.
type scriptFeeder struct {
	s     *Station
	g     *gate
	k     *classRanker
	steps []wakeStep
}

func (d *scriptFeeder) Tick(now sim.Cycle) sim.Cycle {
	for _, st := range d.steps {
		if st.at == now {
			st.do(d.s, d.g, d.k, now)
		}
	}
	return now + 1
}

func accept(part mem.PartID, crit bool) func(*Station, *gate, *classRanker, sim.Cycle) {
	return func(s *Station, _ *gate, _ *classRanker, now sim.Cycle) {
		s.Accept(&mem.Req{Part: part, Critical: crit}, now)
	}
}

// TestRefusedHeadSleepsUntilWoken: a station whose head a promising
// downstream refused sleeps, and re-offers only at a wake source — the
// downstream's retry, the ready cycle of an Accept that adds a head (to
// which the Accept brings the sleep forward: a higher-rank head then costs
// one more refused offer, as it cannot take the refused head's place), a
// class-generation bump, the cycle its oldest normal entry starves, and the
// ready cycle of a queued priority head or lower-rank entry — never for an
// entry queued behind a head. Each script runs in a skip-ahead engine,
// whose offer cycles must be exactly the expected ones, and in a dense
// engine, which must end in the same state having seen every skipped
// re-offer the sleeping run charged to the downstream.
func TestRefusedHeadSleepsUntilWoken(t *testing.T) {
	open := func(_ *Station, g *gate, _ *classRanker, _ sim.Cycle) { g.openUp() }
	flip := func(s *Station, _ *gate, k *classRanker, _ sim.Cycle) {
		k.class[2], k.gen = 0, k.gen+1
		s.RanksChanged()
	}
	cases := []struct {
		name    string
		ranked  bool
		maxWait sim.Cycle
		steps   []wakeStep
		offers  []sim.Cycle
	}{
		{"downstream retry", false, 0,
			[]wakeStep{{0, accept(1, false)}, {10, open}}, []sim.Cycle{3, 11}},
		{"entry behind the head", false, 0,
			[]wakeStep{{0, accept(1, false)}, {6, accept(1, false)}, {20, open}}, []sim.Cycle{3, 21, 22}},
		{"priority arrival", false, 0,
			[]wakeStep{{0, accept(1, false)}, {10, accept(1, true)}}, []sim.Cycle{3, 13}},
		{"lower-rank arrival", true, 0,
			[]wakeStep{{0, accept(2, false)}, {10, accept(0, false)}}, []sim.Cycle{3, 13}},
		{"higher-rank arrival", true, 0,
			[]wakeStep{{0, accept(1, false)}, {10, accept(2, false)}, {30, open}}, []sim.Cycle{3, 13, 31, 32}},
		{"queued priority head ready", false, 0,
			[]wakeStep{{0, accept(1, false)}, {2, accept(1, true)}}, []sim.Cycle{3, 5}},
		{"queued lower-rank entry ready", true, 0,
			[]wakeStep{{0, accept(2, false)}, {2, accept(0, false)}}, []sim.Cycle{3, 5}},
		{"class flip", true, 0,
			[]wakeStep{{0, accept(1, false)}, {0, accept(2, false)}, {10, flip}}, []sim.Cycle{3, 11}},
		{"starvation", false, 20,
			[]wakeStep{{0, accept(1, true)}, {0, accept(1, false)}}, []sim.Cycle{3, 21}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(dense bool) (*Station, *gate) {
				c := cfg()
				c.MaxWait = tc.maxWait
				g := &gate{}
				s := New(c, g)
				s.PriorityEnabled = true
				k := &classRanker{class: [4]int{0, 1, 2, 1}}
				if tc.ranked {
					s.Ranker = k
				}
				eng := sim.NewEngine()
				eng.Register(s)
				eng.Register(&scriptFeeder{s: s, g: g, k: k, steps: tc.steps})
				eng.SetDense(dense)
				eng.Step(60)
				return s, g
			}
			s, g := run(false)
			if !slices.Equal(g.offers, tc.offers) {
				t.Fatalf("offers at %v, want %v", g.offers, tc.offers)
			}
			d, dg := run(true)
			if len(dg.offers) != len(g.offers)+g.charged {
				t.Errorf("dense run offered %d times; the sleeping run offered %d and charged %d",
					len(dg.offers), len(g.offers), g.charged)
			}
			if got, want := s.SnapshotState(), d.SnapshotState(); !reflect.DeepEqual(got, want) {
				t.Errorf("state differs from dense:\nskip  %+v\ndense %+v", got, want)
			}
		})
	}
}
