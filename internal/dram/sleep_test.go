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
// ticks its dense copy; the check over [now, min(next, now+horizon)) is a
// prefix of the full claim.
const sleepHorizon = 400

// sleepProbe sits in an engine slot in the controller's place. Every idle
// verdict NextWork gives is checked on the spot: a copy of the controller,
// ticked densely through the forecast span with no input, must deliver,
// activate, serve and refresh nothing, and must end in the state that
// SkipCycles over the same span gives a second copy.
type sleepProbe struct {
	t    *testing.T
	c    *Controller
	idle int // idle verdicts checked
}

func (p *sleepProbe) Tick(now sim.Cycle)            { p.c.Tick(now) }
func (p *sleepProbe) SkipCycles(from, to sim.Cycle) { p.c.SkipCycles(from, to) }
func (p *sleepProbe) SetWaker(w sim.Waker)          { p.c.SetWaker(w) }

func (p *sleepProbe) NextWork(now sim.Cycle) (sim.Cycle, bool) {
	next, idle := p.c.NextWork(now)
	if idle && next > now {
		p.idle++
		p.checkVerdict(now, min(next, now+sleepHorizon))
	}
	return next, idle
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

func (p *sleepProbe) checkVerdict(now, end sim.Cycle) {
	p.t.Helper()
	var delivered, unused int
	dense := p.clone(&delivered)
	before := dense.Stats
	for t := now; t < end; t++ {
		dense.Tick(t)
		if delivered > 0 || dense.Stats.Served != before.Served ||
			dense.Stats.RowMisses != before.RowMisses || dense.Stats.Refreshes != before.Refreshes {
			p.t.Fatalf("NextWork(%d) slept until %d, but a dense Tick at %d delivers %d, serves %d, activates %d, refreshes %d",
				now, end, t, delivered, dense.Stats.Served-before.Served,
				dense.Stats.RowMisses-before.RowMisses, dense.Stats.Refreshes-before.Refreshes)
		}
	}
	skipped := p.clone(&unused)
	skipped.SkipCycles(now, end)
	if got, want := skipped.SnapshotState(), dense.SnapshotState(); !reflect.DeepEqual(got, want) {
		p.t.Fatalf("NextWork(%d) slept until %d: SkipCycles state differs from dense ticks:\nskip  %+v\ndense %+v",
			now, end, got.Stats, want.Stats)
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

func (d *sleepDriver) Tick(now sim.Cycle) {
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
// cycles. Each idle verdict is checked on the spot (sleepProbe), and a
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
	if skip.c.Stats.Served < 200 || skip.probe.idle < 100 {
		t.Fatalf("seed %d: %d served, %d idle verdicts; the traffic does not exercise the forecast",
			seed, skip.c.Stats.Served, skip.probe.idle)
	}
}
