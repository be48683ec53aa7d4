package interconnect

import (
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
