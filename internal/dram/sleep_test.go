package dram

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pivot/internal/mem"
	"pivot/internal/sim"
)

// sleepCase is one controller configuration for the forecast differential
// test.
type sleepCase struct {
	ranked, prio, refresh bool
	channels              int
	maxWait               sim.Cycle
}

func (tc sleepCase) config() Config {
	cfg := Config{
		Channels: tc.channels, Banks: 4, ColumnLines: 8,
		TBurst: 4, TCAS: 10, TRP: 10, TRCD: 10,
		CapNormal: 12, CapPrio: 4, MaxWait: tc.maxWait, RespLatency: 5,
	}
	if tc.refresh {
		cfg.RefreshInterval, cfg.RefreshLatency = 700, 30
	}
	return cfg
}

// sleepHorizon caps how far past a forecast's start the verdict check
// ticks its dense copy; the check over [now+1, min(next, now+1+horizon)) is
// a prefix of the full claim.
const sleepHorizon = 400

// sleepProbe sits in an engine slot in the controller's place. Every sleep
// forecast a Tick returns is checked on the spot: a copy of the controller,
// ticked densely through the forecast span with no input, must deliver,
// activate, serve and refresh nothing, and must end in the state that the
// span's compensation gives a second copy — SkipCycles over the span for a
// forecast marked Owing, nothing otherwise.
type sleepProbe struct {
	t     *testing.T
	c     *Controller
	idle  int // sleep forecasts checked
	owing int // of which marked Owing
}

func (p *sleepProbe) SkipCycles(from, to sim.Cycle) { p.c.SkipCycles(from, to) }
func (p *sleepProbe) SetWaker(w sim.Waker)          { p.c.SetWaker(w) }

func (p *sleepProbe) Tick(now sim.Cycle) sim.Cycle {
	next := p.c.Tick(now)
	if until, owes := sim.SplitForecast(next); until > now+1 {
		p.idle++
		if owes {
			p.owing++
		}
		p.checkVerdict(now+1, min(until, now+1+sleepHorizon), owes)
	}
	return next
}

// clone copies the controller's serialised state into a fresh controller
// with the same wiring; delivered counts its responses.
func (p *sleepProbe) clone(delivered *int) *Controller {
	d := New(p.c.cfg, 64)
	d.PriorityEnabled = p.c.PriorityEnabled
	d.Ranker = p.c.Ranker
	d.RestoreState(p.c.SnapshotState())
	d.Respond = func(*mem.Req, sim.Cycle) { *delivered++ }
	return d
}

func (p *sleepProbe) checkVerdict(now, end sim.Cycle, owes bool) {
	p.t.Helper()
	var delivered, unused int
	dense := p.clone(&delivered)
	before := dense.Stats
	for t := now; t < end; t++ {
		dense.Tick(t)
		if delivered > 0 || dense.Stats.Served != before.Served ||
			dense.Stats.RowMisses != before.RowMisses || dense.Stats.Refreshes != before.Refreshes {
			p.t.Fatalf("forecast slept from %d until %d, but a dense Tick at %d delivers %d, serves %d, activates %d, refreshes %d",
				now, end, t, delivered, dense.Stats.Served-before.Served,
				dense.Stats.RowMisses-before.RowMisses, dense.Stats.Refreshes-before.Refreshes)
		}
	}
	skipped := p.clone(&unused)
	if owes {
		skipped.SkipCycles(now, end)
	}
	if got, want := skipped.SnapshotState(), dense.SnapshotState(); !reflect.DeepEqual(got, want) {
		p.t.Fatalf("forecast slept from %d until %d (owing %v): compensated state differs from dense ticks:\nskip  %+v\ndense %+v",
			now, end, owes, got.Stats, want.Stats)
	}
}

// sleepDriver stands in for the stations upstream of the controller, ticked
// after it as bwctrl is: it flips the ranker's classes at random cycles —
// calling RanksChanged as bwctrl's window roll does — and offers requests,
// alternating sparse phases (the controller sleeps through bank timing) with
// bursty ones (deep queues, starvation, priority blocking).
type sleepDriver struct {
	c       *Controller
	classes *classRanker
	rng     *rand.Rand
	tc      sleepCase
	id      uint64
}

func (d *sleepDriver) Tick(now sim.Cycle) sim.Cycle {
	d.drive(now)
	return now + 1
}

func (d *sleepDriver) drive(now sim.Cycle) {
	if d.tc.ranked && d.rng.Intn(300) == 0 {
		d.classes.flip(d.rng, denseClasses)
		d.c.RanksChanged()
	}
	rate := 40
	if now/1500%2 == 1 {
		rate = 2
	}
	if d.rng.Intn(rate) != 0 {
		return
	}
	for k := 1 + d.rng.Intn(3); k > 0; k-- {
		d.id++
		ch := uint64(d.rng.Intn(d.tc.channels))
		bank := uint64(d.rng.Intn(4))
		line := ((uint64(d.rng.Intn(3))*4+bank)*8+uint64(d.rng.Intn(8)))*uint64(d.tc.channels) + ch
		d.c.Accept(&mem.Req{Addr: line * 64, PC: d.id, Part: mem.PartID(d.rng.Intn(4)),
			Critical: d.rng.Intn(4) == 0, LCTask: d.rng.Intn(2) == 0}, now)
	}
}

// grant is one delivered response.
type grant struct {
	pc  uint64
	now sim.Cycle
}

// TestSleepForecastMatchesDense checks the controller's idle forecasts
// against dense ticking, over ranked/unranked × priority × refresh ×
// 1/2 channels × starvation guard on/off, with classes flipped at random
// cycles. Each sleep forecast is checked on the spot (sleepProbe), and a
// skip-ahead engine run is compared with a dense one — grants, their
// cycles, and the serialised state at every Step boundary — so the wakes
// (Accept, RanksChanged) are exercised through the real engine.
func TestSleepForecastMatchesDense(t *testing.T) {
	for _, ranked := range []bool{false, true} {
		for _, prio := range []bool{false, true} {
			for _, refresh := range []bool{false, true} {
				for _, channels := range []int{1, 2} {
					for _, maxWait := range []sim.Cycle{0, 90} {
						tc := sleepCase{ranked, prio, refresh, channels, maxWait}
						name := fmt.Sprintf("ranked=%v/prio=%v/refresh=%v/ch=%d/maxwait=%d",
							ranked, prio, refresh, channels, maxWait)
						t.Run(name, func(t *testing.T) {
							for seed := int64(1); seed <= 3; seed++ {
								runSleepEquiv(t, tc, seed)
							}
						})
					}
				}
			}
		}
	}
}

func runSleepEquiv(t *testing.T, tc sleepCase, seed int64) {
	t.Helper()
	type run struct {
		eng    *sim.Engine
		c      *Controller
		probe  *sleepProbe
		grants []grant
	}
	build := func(dense bool) *run {
		r := &run{eng: sim.NewEngine(), c: New(tc.config(), 64)}
		r.c.PriorityEnabled = tc.prio
		classes := &classRanker{class: [4]int{0, 1, 2, 1}}
		if tc.ranked {
			r.c.Ranker = classes
		}
		r.c.Respond = func(req *mem.Req, now sim.Cycle) { r.grants = append(r.grants, grant{req.PC, now}) }
		r.probe = &sleepProbe{t: t, c: r.c}
		r.eng.Register(r.probe)
		r.eng.Register(&sleepDriver{c: r.c, classes: classes, rng: rand.New(rand.NewSource(seed)), tc: tc})
		r.eng.SetDense(dense)
		return r
	}
	skip, dense := build(false), build(true)
	for step := 0; step < 100; step++ {
		skip.eng.Step(64)
		dense.eng.Step(64)
		now := skip.eng.Now()
		if !reflect.DeepEqual(skip.grants, dense.grants) {
			t.Fatalf("seed %d cycle %d: grants diverged:\nskip  %v\ndense %v", seed, now, skip.grants, dense.grants)
		}
		if got, want := skip.c.SnapshotState(), dense.c.SnapshotState(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d cycle %d: controller state diverged:\nskip  %+v\ndense %+v", seed, now, got.Stats, want.Stats)
		}
	}
	if skip.c.Stats.Served < 200 || skip.probe.idle < 100 || skip.probe.owing == 0 {
		t.Fatalf("seed %d: %d served, %d sleep forecasts (%d owing); the traffic does not exercise the forecast",
			seed, skip.c.Stats.Served, skip.probe.idle, skip.probe.owing)
	}
}
