package interconnect

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pivot/internal/mem"
	"pivot/internal/sim"
)

// drainSink ends a station chain: a finite queue that serves its head at
// seeded random cycles, fast and slow in alternating phases, and keeps the
// refusal contract by calling the retry hook after each serve. Like the
// LLC behind the interconnect, it takes some requests (a "hit": every fifth
// PC) whether or not its queue is full, so which request a blocked station
// offers matters. It is a plain Ticker, ticked every cycle by both engines,
// so its draws line up.
type drainSink struct {
	rng     *rand.Rand
	cap     int
	q       []uint64
	got     []grant
	retry   func()
	refused uint64
}

// grant is one request served by the sink.
type grant struct {
	pc  uint64
	now sim.Cycle
}

func (d *drainSink) Accept(r *mem.Req, now sim.Cycle) bool {
	if sinkHit(r) {
		d.got = append(d.got, grant{r.PC, now})
		return true
	}
	if len(d.q) >= d.cap {
		d.refused++
		return false
	}
	d.q = append(d.q, r.PC)
	return true
}

func sinkHit(r *mem.Req) bool { return r.PC%5 == 0 }

func (d *drainSink) SetRetry(retry func())            { d.retry = retry }
func (d *drainSink) ChargeRefused(from, to sim.Cycle) { d.refused += uint64(to - from) }

func (d *drainSink) Tick(now sim.Cycle) sim.Cycle {
	odds := 3
	if now/700%2 == 1 {
		odds = 40
	}
	if len(d.q) == 0 || d.rng.Intn(odds) != 0 {
		return now + 1
	}
	d.got = append(d.got, grant{d.q[0], now})
	d.q = d.q[1:]
	if d.retry != nil {
		d.retry()
	}
	return now + 1
}

// frozenDown stands in for a downstream as it was when a station reported
// idle: accepts says whether the downstream then had room for r. It counts
// the refusals a densely ticked copy meets.
type frozenDown struct {
	accepts  func(r *mem.Req) bool
	refused  uint64
	accepted int
}

func (f *frozenDown) Accept(r *mem.Req, now sim.Cycle) bool {
	if f.accepts(r) {
		f.accepted++
		return true
	}
	f.refused++
	return false
}

func (f *frozenDown) SetRetry(func())              {}
func (f *frozenDown) ChargeRefused(_, _ sim.Cycle) {}

// hasRoom reports whether station s would accept r now.
func hasRoom(s *Station, r *mem.Req) bool {
	if s.PriorityEnabled && r.Critical {
		return s.prio.Len() < s.cfg.CapPrio
	}
	return s.nNormal < s.cfg.CapNormal
}

// blockedProbe sits in an engine slot in a station's place. Every sleep
// forecast a Tick returns is checked on the spot: a copy of the station,
// ticked densely through the forecast span against the downstream frozen
// as it is now, must forward nothing, end in the station's state, and meet
// exactly the refusals the sleep owes — one per cycle for a blocked sleep
// (marked Owing, which SkipCycles charges), none for a sleep with nothing
// ready (unmarked).
type blockedProbe struct {
	t       *testing.T
	s       *Station
	room    func(r *mem.Req) bool
	idle    int // sleep forecasts checked
	blocked int // of which blocked sleeps
}

func (p *blockedProbe) SkipCycles(from, to sim.Cycle) { p.s.SkipCycles(from, to) }
func (p *blockedProbe) SetWaker(w sim.Waker)          { p.s.SetWaker(w) }

func (p *blockedProbe) Tick(now sim.Cycle) sim.Cycle {
	next := p.s.Tick(now)
	if until, owes := sim.SplitForecast(next); until > now+1 {
		p.idle++
		if owes {
			p.blocked++
		}
		p.checkVerdict(now+1, min(until, now+1+sleepHorizon), owes)
	}
	return next
}

// sleepHorizon caps how far past a forecast's start the verdict check
// ticks its dense copy; the check over [now+1, min(next, now+1+horizon)) is
// a prefix of the full claim.
const sleepHorizon = 300

func (p *blockedProbe) checkVerdict(now, end sim.Cycle, owes bool) {
	p.t.Helper()
	down := &frozenDown{accepts: p.room}
	dense := New(p.s.cfg, down)
	dense.PriorityEnabled = p.s.PriorityEnabled
	dense.Ranker = p.s.Ranker
	before := p.s.SnapshotState()
	dense.RestoreState(before)
	for t := now; t < end; t++ {
		dense.Tick(t)
		if down.accepted > 0 {
			p.t.Fatalf("%s: forecast slept from %d until %d, but a dense Tick at %d forwards",
				p.s.cfg.Name, now, end, t)
		}
	}
	want := uint64(0)
	if owes {
		want = uint64(end - now)
	}
	if down.refused != want {
		p.t.Fatalf("%s: forecast slept from %d until %d owing %d refusals; dense ticks meet %d",
			p.s.cfg.Name, now, end, want, down.refused)
	}
	if got := dense.SnapshotState(); !reflect.DeepEqual(got, before) {
		p.t.Fatalf("%s: forecast slept from %d until %d, but dense ticks change the state:\nbefore %+v\nafter  %+v",
			p.s.cfg.Name, now, end, before.Stats, got.Stats)
	}
}

// chainFeeder feeds the upstream station of the chain, ordered after it as
// the cores are: bursts and lulls of traffic with critical requests mixed
// in, and, for a ranked chain, classes flipped at random cycles with both
// stations told, as bwctrl's window roll tells them.
type chainFeeder struct {
	up, down *Station
	classes  *classRanker
	ranked   bool
	rng      *rand.Rand
	id       uint64
}

func (d *chainFeeder) Tick(now sim.Cycle) sim.Cycle {
	d.feed(now)
	return now + 1
}

func (d *chainFeeder) feed(now sim.Cycle) {
	if d.ranked && d.rng.Intn(250) == 0 {
		d.classes.flip(d.rng)
		d.up.RanksChanged()
		d.down.RanksChanged()
	}
	rate := 2
	if now/1100%2 == 1 {
		rate = 30
	}
	if d.rng.Intn(rate) != 0 {
		return
	}
	for k := 1 + d.rng.Intn(2); k > 0; k-- {
		d.id++
		d.up.Accept(&mem.Req{PC: d.id, Part: mem.PartID(d.rng.Intn(4)), Critical: d.rng.Intn(5) == 0}, now)
	}
}

// chainCase is one configuration of the blocked-sleep differential test.
// prio enables the priority queues: upstream and down ("both"), or only
// downstream ("down"), where critical requests share the upstream's lanes
// but not the downstream's queue — as the CBP policy enables them at the
// DRAM controller alone.
type chainCase struct {
	ranked  bool
	prio    string
	maxWait sim.Cycle
	bw      int
}

// TestBlockedSleepMatchesDense checks the stations' sleeps on a two-station
// chain into a sink that drains at seeded random cycles, so both stations
// block on full downstream queues, over ranked/unranked × priority queues
// (none, both, downstream only) × starvation guard on/off × bandwidth 1/2,
// with critical arrivals and classes flipped at random cycles. The sink's
// hits and the downstream-only priority queue make acceptance depend on
// the request, so a sleep that misses a change of pick shows. Each sleep forecast is checked on the
// spot (blockedProbe), and a skip-ahead run is compared with a dense one —
// grants and their cycles, both stations' serialised state and every
// Refused count at every Step boundary — so the wakes (retry, Accept,
// RanksChanged) are exercised through the real engine.
func TestBlockedSleepMatchesDense(t *testing.T) {
	for _, ranked := range []bool{false, true} {
		for _, prio := range []string{"none", "both", "down"} {
			for _, maxWait := range []sim.Cycle{0, 40} {
				for _, bw := range []int{1, 2} {
					tc := chainCase{ranked, prio, maxWait, bw}
					name := fmt.Sprintf("ranked=%v/prio=%s/maxwait=%d/bw=%d", ranked, prio, maxWait, bw)
					t.Run(name, func(t *testing.T) {
						for seed := int64(1); seed <= 3; seed++ {
							runChainEquiv(t, tc, seed)
						}
					})
				}
			}
		}
	}
}

func runChainEquiv(t *testing.T, tc chainCase, seed int64) {
	t.Helper()
	type run struct {
		eng      *sim.Engine
		sink     *drainSink
		up, down *Station
		probes   [2]*blockedProbe
	}
	build := func(dense bool) *run {
		r := &run{eng: sim.NewEngine(), sink: &drainSink{rng: rand.New(rand.NewSource(seed + 50)), cap: 3}}
		r.down = New(Config{Name: "down", Component: mem.CompBWCtrl, Latency: 2, Bandwidth: tc.bw,
			CapNormal: 6, CapPrio: 2, MaxWait: tc.maxWait}, r.sink)
		r.up = New(Config{Name: "up", Component: mem.CompBus, Latency: 3, Bandwidth: tc.bw,
			CapNormal: 8, CapPrio: 3, MaxWait: tc.maxWait}, r.down)
		classes := &classRanker{class: [4]int{0, 1, 2, 1}}
		r.up.PriorityEnabled = tc.prio == "both"
		r.down.PriorityEnabled = tc.prio != "none"
		if tc.ranked {
			r.up.Ranker, r.down.Ranker = classes, classes
		}
		r.probes[0] = &blockedProbe{t: t, s: r.down, room: func(q *mem.Req) bool { return sinkHit(q) || len(r.sink.q) < r.sink.cap }}
		r.probes[1] = &blockedProbe{t: t, s: r.up, room: func(q *mem.Req) bool { return hasRoom(r.down, q) }}
		r.eng.Register(r.sink)
		r.eng.Register(r.probes[0])
		r.eng.Register(r.probes[1])
		r.eng.Register(&chainFeeder{up: r.up, down: r.down, classes: classes, ranked: tc.ranked,
			rng: rand.New(rand.NewSource(seed))})
		r.eng.SetDense(dense)
		return r
	}
	skip, dense := build(false), build(true)
	for step := 0; step < 100; step++ {
		skip.eng.Step(64)
		dense.eng.Step(64)
		now := skip.eng.Now()
		if !reflect.DeepEqual(skip.sink.got, dense.sink.got) {
			t.Fatalf("seed %d cycle %d: grants diverged:\nskip  %v\ndense %v", seed, now, skip.sink.got, dense.sink.got)
		}
		if skip.sink.refused != dense.sink.refused {
			t.Fatalf("seed %d cycle %d: sink refusals: skip %d, dense %d", seed, now, skip.sink.refused, dense.sink.refused)
		}
		for i, s := range []*Station{skip.down, skip.up} {
			d := []*Station{dense.down, dense.up}[i]
			if got, want := s.SnapshotState(), d.SnapshotState(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d cycle %d: %s state diverged:\nskip  %+v\ndense %+v", seed, now, s.cfg.Name, got.Stats, want.Stats)
			}
		}
	}
	for _, p := range skip.probes {
		if p.blocked < 50 || p.idle < 100 {
			t.Fatalf("seed %d: %s gave %d sleep forecasts, %d blocked; the traffic does not exercise the sleep",
				seed, p.s.cfg.Name, p.idle, p.blocked)
		}
	}
	if len(skip.sink.got) < 500 {
		t.Fatalf("seed %d: sink served %d; the traffic does not load the chain", seed, len(skip.sink.got))
	}
}

// tickCounter counts a station's engine ticks.
type tickCounter struct {
	s     *Station
	ticks int
}

func (p *tickCounter) Tick(now sim.Cycle) sim.Cycle {
	p.ticks++
	return p.s.Tick(now)
}
func (p *tickCounter) SkipCycles(from, to sim.Cycle) { p.s.SkipCycles(from, to) }
func (p *tickCounter) SetWaker(w sim.Waker)          { p.s.SetWaker(w) }

// slowSink holds one request at a time and serves it every period cycles,
// calling the retry hook after each serve.
type slowSink struct {
	period       sim.Cycle
	held         bool
	served       int
	retry        func()
	refused      uint64
	acceptCycles []sim.Cycle
}

func (d *slowSink) Accept(r *mem.Req, now sim.Cycle) bool {
	if d.held {
		d.refused++
		return false
	}
	d.held = true
	d.acceptCycles = append(d.acceptCycles, now)
	return true
}

func (d *slowSink) SetRetry(retry func())            { d.retry = retry }
func (d *slowSink) ChargeRefused(from, to sim.Cycle) { d.refused += uint64(to - from) }

func (d *slowSink) Tick(now sim.Cycle) sim.Cycle {
	if d.held && now%d.period == 0 {
		d.held = false
		d.served++
		d.retry()
	}
	return now + 1
}

// TestBlockedHopTickedPerFree: a saturated hop — its queue kept full, its
// downstream freeing one slot every 50 cycles — is ticked a bounded number
// of times per downstream free, not once per cycle: the free's retry wakes
// it, it forwards, and the next cycle its next head is refused and it
// sleeps again. The dense run, which ticks every cycle, must agree on every
// hand-off cycle and on the refusal count.
func TestBlockedHopTickedPerFree(t *testing.T) {
	const cycles = 20_000
	run := func(dense bool) (*tickCounter, *slowSink, *Station) {
		d := &slowSink{period: 50}
		s := New(cfg(), d)
		p := &tickCounter{s: s}
		eng := sim.NewEngine()
		eng.Register(d)
		eng.Register(p)
		eng.Register(sim.TickFunc(func(now sim.Cycle) {
			for s.Accept(&mem.Req{}, now) {
			}
		}))
		eng.SetDense(dense)
		eng.Step(cycles)
		return p, d, s
	}
	p, d, s := run(false)
	_, dd, ds := run(true)
	if d.served < cycles/50-1 {
		t.Fatalf("downstream freed %d slots, want ~%d", d.served, cycles/50)
	}
	if p.ticks > 2*d.served+10 {
		t.Fatalf("%d frees cost %d ticks; want at most 2 per free", d.served, p.ticks)
	}
	if !reflect.DeepEqual(d.acceptCycles, dd.acceptCycles) || d.refused != dd.refused {
		t.Fatalf("skip hand-offs %d (refused %d) differ from dense %d (refused %d)",
			len(d.acceptCycles), d.refused, len(dd.acceptCycles), dd.refused)
	}
	if got, want := s.SnapshotState(), ds.SnapshotState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("station state differs from dense:\nskip  %+v\ndense %+v", got.Stats, want.Stats)
	}
}
