package cpu

import (
	"testing"

	"pivot/internal/sim"
)

// sliceStream feeds a fixed op sequence, then reports no ops available.
type sliceStream struct {
	ops []MicroOp
	pos int
}

func (s *sliceStream) Next(op *MicroOp) bool {
	if s.pos >= len(s.ops) {
		return false
	}
	*op = s.ops[s.pos]
	s.pos++
	return true
}

// fakePort completes loads after a fixed latency, driven by a tick callback.
type fakePort struct {
	core     *Core // completion target, set by runCore
	latency  sim.Cycle
	pending  []fakePending
	loads    int
	stores   int
	refuseN  int // refuse the first N loads (structural hazard testing)
	inFlight int
	maxInFly int
}

type fakePending struct {
	due sim.Cycle
	seq uint64
}

func (p *fakePort) Load(r LoadRequest, now sim.Cycle) bool {
	if p.refuseN > 0 {
		p.refuseN--
		return false
	}
	p.loads++
	p.inFlight++
	if p.inFlight > p.maxInFly {
		p.maxInFly = p.inFlight
	}
	p.pending = append(p.pending, fakePending{due: now + p.latency, seq: r.Seq})
	return true
}

func (p *fakePort) Store(addr, pc uint64, now sim.Cycle) bool {
	p.stores++
	return true
}

func (p *fakePort) tick(now sim.Cycle) {
	rest := p.pending[:0]
	for _, e := range p.pending {
		if e.due <= now {
			p.inFlight--
			p.core.CompleteLoad(e.seq, false, now)
		} else {
			rest = append(rest, e)
		}
	}
	p.pending = rest
}

func testCfg() Config {
	return Config{ROBSize: 16, FetchWidth: 2, IssueWidth: 2, CommitWidth: 2,
		LQSize: 4, SQSize: 4, LongStall: 10}
}

func runCore(c *Core, p *fakePort, cycles sim.Cycle) {
	p.core = c
	for now := sim.Cycle(0); now < cycles; now++ {
		p.tick(now)
		c.Tick(now)
	}
}

func TestALUChainCommits(t *testing.T) {
	ops := []MicroOp{
		{PC: 1, Kind: OpALU, Dest: 1, Lat: 1},
		{PC: 2, Kind: OpALU, Dest: 2, Src1: 1, Lat: 1},
		{PC: 3, Kind: OpALU, Dest: 3, Src1: 2, Lat: 1},
	}
	p := &fakePort{latency: 5}
	c := New(0, testCfg(), &sliceStream{ops: ops}, p, Hooks{})
	runCore(c, p, 50)
	if c.Stats.Committed != 3 {
		t.Fatalf("committed %d, want 3", c.Stats.Committed)
	}
	if c.ROBOccupancy() != 0 {
		t.Fatal("ROB not empty after commit")
	}
}

func TestLoadDependencyBlocksConsumer(t *testing.T) {
	var commitOrder []uint64
	ops := []MicroOp{
		{PC: 10, Kind: OpLoad, Dest: 1, Addr: 0x40},
		{PC: 11, Kind: OpALU, Dest: 2, Src1: 1, Lat: 1},
		{PC: 12, Kind: OpALU, Dest: 3, Lat: 1}, // independent
	}
	p := &fakePort{latency: 20}
	hooks := Hooks{OnLoadRetire: func(pc uint64, stall sim.Cycle, miss bool) {
		commitOrder = append(commitOrder, pc)
	}}
	c := New(0, testCfg(), &sliceStream{ops: ops}, p, hooks)
	runCore(c, p, 100)
	if c.Stats.Committed != 3 {
		t.Fatalf("committed %d, want 3", c.Stats.Committed)
	}
	// The independent ALU op finished early but must still commit after the
	// load (in-order commit).
	if c.Stats.StallCycles == 0 {
		t.Fatal("long-latency load at ROB head recorded no stall cycles")
	}
	if c.Stats.LoadStallCyc == 0 {
		t.Fatal("stall cycles not attributed to the load")
	}
}

func TestStallAttributionMagnitude(t *testing.T) {
	var gotStall sim.Cycle
	ops := []MicroOp{{PC: 10, Kind: OpLoad, Dest: 1, Addr: 0x40}}
	p := &fakePort{latency: 30}
	hooks := Hooks{OnLoadRetire: func(pc uint64, stall sim.Cycle, miss bool) {
		gotStall = stall
	}}
	c := New(0, testCfg(), &sliceStream{ops: ops}, p, hooks)
	runCore(c, p, 100)
	// The load dispatches at cycle 0, issues ~1, completes ~31; head stall
	// should be within a few cycles of the memory latency.
	if gotStall < 25 || gotStall > 35 {
		t.Fatalf("attributed stall = %d, want ~30", gotStall)
	}
}

func TestIsCriticalConsultedPerLoad(t *testing.T) {
	asked := map[uint64]int{}
	ops := []MicroOp{
		{PC: 100, Kind: OpLoad, Dest: 1, Addr: 0x40},
		{PC: 101, Kind: OpLoad, Dest: 2, Addr: 0x80},
	}
	p := &fakePort{latency: 3}
	hooks := Hooks{IsCritical: func(pc uint64) bool {
		asked[pc]++
		return pc == 100
	}}
	c := New(0, testCfg(), &sliceStream{ops: ops}, p, hooks)
	runCore(c, p, 50)
	if asked[100] != 1 || asked[101] != 1 {
		t.Fatalf("IsCritical calls = %v, want one per load", asked)
	}
}

func TestStoreRetiresThroughWriteBuffer(t *testing.T) {
	ops := []MicroOp{
		{PC: 1, Kind: OpStore, Addr: 0x40},
		{PC: 2, Kind: OpALU, Dest: 1, Lat: 1},
	}
	p := &fakePort{latency: 100}
	c := New(0, testCfg(), &sliceStream{ops: ops}, p, Hooks{})
	runCore(c, p, 20)
	if c.Stats.Committed != 2 {
		t.Fatalf("committed %d, want 2 (stores must not wait on memory)", c.Stats.Committed)
	}
	if p.stores != 1 {
		t.Fatalf("port saw %d stores, want 1", p.stores)
	}
}

func TestPortRefusalRetries(t *testing.T) {
	ops := []MicroOp{{PC: 1, Kind: OpLoad, Dest: 1, Addr: 0x40}}
	p := &fakePort{latency: 2, refuseN: 3}
	c := New(0, testCfg(), &sliceStream{ops: ops}, p, Hooks{})
	runCore(c, p, 50)
	if c.Stats.Committed != 1 {
		t.Fatal("refused load never retried to completion")
	}
	if p.loads != 1 {
		t.Fatalf("port accepted %d loads, want exactly 1", p.loads)
	}
}

func TestLQLimitsInFlightLoads(t *testing.T) {
	var ops []MicroOp
	for i := 0; i < 12; i++ {
		ops = append(ops, MicroOp{PC: uint64(100 + i), Kind: OpLoad,
			Dest: RegID(8 + i%4), Addr: uint64(0x1000 + i*64)})
	}
	p := &fakePort{latency: 30}
	c := New(0, testCfg(), &sliceStream{ops: ops}, p, Hooks{})
	runCore(c, p, 300)
	if c.Stats.Committed != 12 {
		t.Fatalf("committed %d, want 12", c.Stats.Committed)
	}
	if p.maxInFly > testCfg().LQSize {
		t.Fatalf("in-flight loads peaked at %d, above LQSize %d", p.maxInFly, testCfg().LQSize)
	}
}

func TestReqEndHook(t *testing.T) {
	var gotID uint64
	var gotAt sim.Cycle
	ops := []MicroOp{
		{PC: 1, Kind: OpALU, Dest: 1, Lat: 1},
		{PC: 2, Kind: OpALU, Src1: 1, Lat: 1, Flags: FlagReqEnd, ReqID: 77},
	}
	p := &fakePort{latency: 1}
	hooks := Hooks{OnReqEnd: func(id uint64, now sim.Cycle) { gotID, gotAt = id, now }}
	c := New(0, testCfg(), &sliceStream{ops: ops}, p, hooks)
	runCore(c, p, 20)
	if gotID != 77 || gotAt == 0 {
		t.Fatalf("OnReqEnd = (%d, %d), want id 77 at a positive cycle", gotID, gotAt)
	}
}

func TestIdleAccounting(t *testing.T) {
	p := &fakePort{latency: 1}
	c := New(0, testCfg(), &sliceStream{}, p, Hooks{})
	runCore(c, p, 10)
	if c.Stats.IdleCycles == 0 {
		t.Fatal("empty stream recorded no idle cycles")
	}
	if c.IPC(10) != 0 {
		t.Fatal("IPC of idle core should be 0")
	}
}

func TestROBFullBackPressure(t *testing.T) {
	// One never-completing load (huge latency) followed by many ALU ops:
	// dispatch must stop at ROB capacity.
	ops := []MicroOp{{PC: 1, Kind: OpLoad, Dest: 1, Addr: 0x40}}
	for i := 0; i < 40; i++ {
		ops = append(ops, MicroOp{PC: uint64(2 + i), Kind: OpALU, Dest: 2, Lat: 1})
	}
	p := &fakePort{latency: 1000}
	c := New(0, testCfg(), &sliceStream{ops: ops}, p, Hooks{})
	runCore(c, p, 100)
	if c.ROBOccupancy() != testCfg().ROBSize {
		t.Fatalf("ROB occupancy = %d, want full (%d)", c.ROBOccupancy(), testCfg().ROBSize)
	}
	if c.Stats.DispatchStall == 0 {
		t.Fatal("no dispatch stalls recorded with a full ROB")
	}
	if c.Stats.Committed != 0 {
		t.Fatal("nothing should commit past an incomplete ROB head")
	}
}

// TestDeterminism: identical inputs give identical statistics.
func TestCoreDeterminism(t *testing.T) {
	mk := func() *Core {
		var ops []MicroOp
		for i := 0; i < 100; i++ {
			k := OpALU
			if i%3 == 0 {
				k = OpLoad
			}
			ops = append(ops, MicroOp{PC: uint64(i), Kind: k,
				Dest: RegID(1 + i%8), Src1: RegID(i % 4), Addr: uint64(i * 64)})
		}
		p := &fakePort{latency: 7}
		c := New(0, testCfg(), &sliceStream{ops: ops}, p, Hooks{})
		runCore(c, p, 500)
		return c
	}
	a, b := mk(), mk()
	if a.Stats != b.Stats {
		t.Fatalf("diverging stats:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

func TestALUMaxLatencyWheel(t *testing.T) {
	// Latency 255 exercises the timing wheel's widest slot distance.
	ops := []MicroOp{{PC: 1, Kind: OpALU, Dest: 1, Lat: 255}}
	p := &fakePort{latency: 1}
	c := New(0, testCfg(), &sliceStream{ops: ops}, p, Hooks{})
	runCore(c, p, 300)
	if c.Stats.Committed != 1 {
		t.Fatal("max-latency ALU op never completed")
	}
}

func TestRegisterOverwrite(t *testing.T) {
	// Two writers of r1: the consumer must wake on the *latest* writer.
	ops := []MicroOp{
		{PC: 1, Kind: OpALU, Dest: 1, Lat: 1},
		{PC: 2, Kind: OpLoad, Dest: 1, Addr: 0x40}, // overwrites r1, slow
		{PC: 3, Kind: OpALU, Dest: 2, Src1: 1, Lat: 1},
	}
	p := &fakePort{latency: 40}
	c := New(0, testCfg(), &sliceStream{ops: ops}, p, Hooks{})
	p.core = c
	// After 20 cycles the load is still outstanding: the consumer must not
	// have committed (it depends on the load, not the first ALU write).
	for now := sim.Cycle(0); now < 20; now++ {
		p.tick(now)
		c.Tick(now)
	}
	if c.Stats.Committed > 2 {
		t.Fatal("consumer committed against a stale register value")
	}
	for now := sim.Cycle(20); now < 100; now++ {
		p.tick(now)
		c.Tick(now)
	}
	if c.Stats.Committed != 3 {
		t.Fatalf("committed %d, want 3", c.Stats.Committed)
	}
}

// resumableStream returns false for a while, then produces ops: cores must
// tolerate sources that go idle and come back (open-loop LC behaviour).
type resumableStream struct {
	idleUntil int
	calls     int
	produced  int
}

func (s *resumableStream) Next(op *MicroOp) bool {
	s.calls++
	if s.calls < s.idleUntil || s.produced >= 5 {
		return false
	}
	s.produced++
	*op = MicroOp{PC: uint64(s.produced), Kind: OpALU, Dest: 1, Lat: 1}
	return true
}

func TestStreamResumesAfterIdle(t *testing.T) {
	p := &fakePort{latency: 1}
	c := New(0, testCfg(), &resumableStream{idleUntil: 50}, p, Hooks{})
	runCore(c, p, 200)
	if c.Stats.Committed != 5 {
		t.Fatalf("committed %d after stream resumed, want 5", c.Stats.Committed)
	}
	if c.Stats.IdleCycles == 0 {
		t.Fatal("idle period not accounted")
	}
}

func TestCommitWidthBound(t *testing.T) {
	var ops []MicroOp
	for i := 0; i < 8; i++ {
		ops = append(ops, MicroOp{PC: uint64(i), Kind: OpALU, Dest: RegID(1 + i%4), Lat: 1})
	}
	p := &fakePort{latency: 1}
	cfg := testCfg()
	cfg.CommitWidth = 1
	c := New(0, cfg, &sliceStream{ops: ops}, p, Hooks{})
	p.core = c
	prev := uint64(0)
	for now := sim.Cycle(0); now < 40; now++ {
		p.tick(now)
		c.Tick(now)
		if c.Stats.Committed-prev > 1 {
			t.Fatalf("committed %d in one cycle with width 1", c.Stats.Committed-prev)
		}
		prev = c.Stats.Committed
	}
	if c.Stats.Committed != 8 {
		t.Fatalf("committed %d, want 8", c.Stats.Committed)
	}
}

// gatedPort refuses every load while shut and accepts while open; as a
// RetryPort it answers RetryReady with the gate and counts elided retries.
type gatedPort struct {
	fakePort
	open    bool
	skipped uint64
}

func (p *gatedPort) Load(r LoadRequest, now sim.Cycle) bool {
	if !p.open {
		return false
	}
	return p.fakePort.Load(r, now)
}

func (p *gatedPort) RetryReady(OpKind, uint64) bool           { return p.open }
func (p *gatedPort) SkipRetries(_ OpKind, _ uint64, n uint64) { p.skipped += n }

// drainedStream is a sliceStream that, once drained, reports it will never
// produce another op, so a core with nothing else to do may sleep.
type drainedStream struct{ sliceStream }

func (s *drainedStream) NextAvailable(sim.Cycle) (sim.Cycle, bool) {
	return sim.NeverWork, s.pos >= len(s.ops)
}

// tickCount counts a core's engine ticks.
type tickCount struct {
	*Core
	ticks int
}

func (t *tickCount) Tick(now sim.Cycle) sim.Cycle {
	t.ticks++
	return t.Core.Tick(now)
}

// TestPortFreedWakesOnlyAnIssuableRetry: a core parked on a refused load
// retry sleeps through PortFreed calls while the port would still refuse
// the retry, wakes on the first one after the port would accept it, and
// ends in the state of a dense run, elided retries included.
func TestPortFreedWakesOnlyAnIssuableRetry(t *testing.T) {
	const openAt, end = 100, 200
	run := func(dense bool) (*Core, *gatedPort, int) {
		ops := []MicroOp{{PC: 1, Kind: OpLoad, Dest: 1, Addr: 0x40}}
		p := &gatedPort{fakePort: fakePort{latency: 5}}
		c := New(0, testCfg(), &drainedStream{sliceStream{ops: ops}}, p, Hooks{})
		p.core = c
		tc := &tickCount{Core: c}
		e := sim.NewEngine()
		e.SetDense(dense)
		e.Register(sim.TickFunc(func(now sim.Cycle) {
			p.tick(now)
			p.open = now >= openAt
			c.PortFreed()
		}))
		e.Register(tc)
		e.Step(end)
		return c, p, tc.ticks
	}
	dc, dp, _ := run(true)
	sc, sp, ticks := run(false)
	if dc.Stats.Committed != 1 || sc.Stats != dc.Stats {
		t.Fatalf("skip stats %+v, dense %+v; want one committed load in both", sc.Stats, dc.Stats)
	}
	if sp.loads != dp.loads || sp.skipped == 0 {
		t.Fatalf("skip run: %d loads accepted (dense %d), %d retries elided; want equal loads and some elided",
			sp.loads, dp.loads, sp.skipped)
	}
	// Ticked while dispatching and issuing, once when the port opens and
	// a few times until the load commits: far fewer than the 100 cycles
	// it sat refused with PortFreed called every cycle.
	if ticks > 20 {
		t.Fatalf("core ticked %d times in %d cycles; PortFreed woke a still-refused retry", ticks, end)
	}
}
