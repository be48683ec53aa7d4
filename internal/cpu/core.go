package cpu

import (
	"fmt"

	"pivot/internal/sim"
	"pivot/internal/stats"
)

// Config sets a core's pipeline geometry (Table II / Table III in the paper).
type Config struct {
	ROBSize     int
	FetchWidth  int // dispatch width into the ROB
	IssueWidth  int
	CommitWidth int
	LQSize      int
	SQSize      int

	// LongStall is the ROB-stall-cycle threshold above which a stall counts
	// as "long" for the RRBP (exceeding the LLC access time, §IV-C).
	LongStall sim.Cycle
}

// Validate reports a descriptive error for impossible pipeline geometries.
func (c Config) Validate() error {
	switch {
	case c.ROBSize <= 0:
		return fmt.Errorf("cpu: ROBSize %d must be positive", c.ROBSize)
	case c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0:
		return fmt.Errorf("cpu: fetch/issue/commit widths must be positive (got %d/%d/%d)",
			c.FetchWidth, c.IssueWidth, c.CommitWidth)
	case c.LQSize <= 0 || c.SQSize <= 0:
		return fmt.Errorf("cpu: LQSize/SQSize must be positive (got %d/%d)", c.LQSize, c.SQSize)
	}
	return nil
}

// Hooks are the observation and decision points the machine wires into a
// core. Nil hooks are skipped.
type Hooks struct {
	// IsCritical decides, when a load enters the load queue, whether its
	// memory request carries the critical bit (PIVOT reads the RRBP here;
	// FullPath returns true for every LC load; CBP consults its own table).
	IsCritical func(pc uint64) bool

	// OnLoadRetire fires when a load commits, with the ROB-head stall cycles
	// attributed to it and whether it missed the LLC. The offline profiler
	// and the RRBP updater both observe this.
	OnLoadRetire func(pc uint64, stall sim.Cycle, llcMiss bool)

	// OnReqEnd fires when an op flagged FlagReqEnd commits; the load
	// generator computes request latency from it.
	OnReqEnd func(reqID uint64, now sim.Cycle)

	// SkipCritical compensates the observable side effects (lookup and
	// flagged counters in the criticality predictor) of n elided IsCritical
	// probes for the load at pc. It must be set whenever IsCritical has such
	// side effects and the machine wants skip-ahead over stuck retries; when
	// IsCritical is set but SkipCritical is nil the core conservatively
	// refuses to report a refused load retry as idle.
	SkipCritical func(pc uint64, n uint64)
}

// IdleStream is the optional quiescence interface an instruction Stream may
// implement. NextAvailable(now) returns (next, true) when Next would return
// false without observable side effects every cycle until next at the
// earliest; (_, false) means an op is (or may be) available now.
type IdleStream interface {
	NextAvailable(now sim.Cycle) (next sim.Cycle, idle bool)
}

// RetryPort is the optional quiescence interface a MemPort may implement so
// a core stuck re-trying a refused memory op can be skipped. RetryReady
// reports whether re-issuing the refused op at addr could make progress this
// cycle (i.e. Load/Store would not refuse again); SkipRetries applies the
// side effects of n elided refused probes (the L1 miss-probe statistics a
// dense retry would have bumped).
type RetryPort interface {
	RetryReady(kind OpKind, addr uint64) bool
	SkipRetries(kind OpKind, addr uint64, n uint64)
}

// LoadRequest is what the core hands to the memory port for one load.
type LoadRequest struct {
	Addr     uint64
	PC       uint64
	Critical bool
	// Seq identifies the load's ROB entry. The port completes the load by
	// calling Core.CompleteLoad(Seq, ...) exactly once.
	Seq uint64
}

// MemPort is the core's window into the memory hierarchy (its private L1D
// and everything behind it). Implementations return false to signal
// "structural hazard, retry next cycle".
type MemPort interface {
	Load(r LoadRequest, now sim.Cycle) bool
	// Store is fire-and-forget: stores retire through the write buffer
	// (§III-B: store instructions rarely stall the ROB) but still consume
	// memory bandwidth downstream.
	Store(addr, pc uint64, now sim.Cycle) bool
}

type entryState uint8

const (
	stWaiting entryState = iota // deps outstanding
	stReady                     // ready to issue
	stIssued                    // executing / memory access in flight
	stDone                      // result available, waiting to commit
)

type robEntry struct {
	op      MicroOp
	seq     uint64
	state   entryState
	doneAt  sim.Cycle // for ALU ops: completion time
	pending int       // outstanding source deps
	waiters []uint64  // seqs woken when this entry completes
	stall   sim.Cycle // ROB-head stall cycles attributed to this entry
	llcMiss bool
}

// Stats aggregates a core's activity.
type Stats struct {
	Committed     uint64
	Loads         uint64
	Stores        uint64
	StallCycles   uint64 // cycles commit made no progress with a non-empty ROB
	LoadStallCyc  uint64 // subset attributed to a load at the ROB head
	IdleCycles    uint64 // cycles with an empty ROB and no op available
	DispatchStall uint64 // cycles dispatch blocked on a full ROB/LQ/SQ
}

// Core is one out-of-order CPU.
type Core struct {
	ID   int
	cfg  Config
	mem  MemPort
	src  Stream
	hook Hooks

	rob     []robEntry // ring buffer
	head    int
	count   int
	nextSeq uint64
	headSeq uint64 // seq of the entry at rob[head]

	lastWriter [NumRegs]uint64 // seq producing each register; 0 = none

	// readyQ/retryQ are FIFOs popped via a head index rather than a [1:]
	// reslice: reslicing walks the backing array's capacity away, forcing a
	// reallocation every ~cap pushes under steady issue traffic. The head
	// indices are not serialised — snapshots store the live readyQ[readyH:]
	// suffix.
	readyQ   []uint64 // seqs ready to issue (FIFO)
	readyH   int
	retryQ   []uint64 // mem ops refused by the port, retried first
	retryH   int
	lqUsed   int
	sqUsed   int
	fetchBuf MicroOp
	fetched  bool

	// aluWheel is a 256-slot timing wheel of ALU completions: issuing an ALU
	// op with latency L (≤ 255) appends its seq to the slot for now+L, and
	// each Tick drains only the current slot — O(completions) rather than
	// O(ROB) per cycle.
	aluWheel [256][]uint64
	// aluPending counts seqs currently parked in aluWheel, so quiescence
	// detection never scans the wheel. Derived state, never serialised.
	aluPending int

	// Cached optional capabilities of mem/src, resolved once.
	retry   RetryPort
	idleSrc IdleStream

	// waker ends the core's engine sleep; CompleteLoad and WakeIdle call it
	// before anything outside the core's own Tick changes its forecast.
	waker sim.Waker
	// shape caches, alongside the sleep forecast that began the current
	// engine sleep, exactly which counters a quiescent cycle accrues, so
	// SkipCycles applies precomputed increments instead of re-deriving them.
	shape skipShape

	Stats Stats
}

// New builds a core reading from src and accessing memory through port.
func New(id int, cfg Config, src Stream, port MemPort, hook Hooks) *Core {
	if cfg.ROBSize <= 0 {
		panic("cpu: ROBSize must be positive")
	}
	c := &Core{
		ID:   id,
		cfg:  cfg,
		mem:  port,
		src:  src,
		hook: hook,
		rob:  make([]robEntry, cfg.ROBSize),
	}
	c.retry, _ = port.(RetryPort)
	c.idleSrc, _ = src.(IdleStream)
	return c
}

// Config returns the core configuration.
func (c *Core) Config() Config { return c.cfg }

// SetStream replaces the instruction source (used when restarting phases).
func (c *Core) SetStream(s Stream) {
	c.waker.Wake()
	c.src = s
	c.idleSrc, _ = s.(IdleStream)
}

func (c *Core) slotOf(seq uint64) *robEntry {
	if seq < c.headSeq || seq >= c.headSeq+uint64(c.count) {
		return nil
	}
	return &c.rob[c.wrap(c.head+int(seq-c.headSeq))]
}

// wrap folds a ROB index in [0, 2*ROBSize) back into the ring. ROB sizes
// need not be powers of two, and a compare is cheaper than a divide.
func (c *Core) wrap(i int) int {
	if i >= len(c.rob) {
		i -= len(c.rob)
	}
	return i
}

// depReady reports whether the producer of seq has completed (or retired).
func (c *Core) depReady(seq uint64) bool {
	if seq == 0 {
		return true
	}
	e := c.slotOf(seq)
	if e == nil {
		return true // already retired
	}
	return e.state == stDone
}

// Tick advances the core one cycle — commit, issue, dispatch — and returns
// its forecast (see forecast).
func (c *Core) Tick(now sim.Cycle) sim.Cycle {
	c.commit(now)
	c.issue(now)
	c.dispatch(now)
	return c.forecast(now + 1)
}

// SetWaker implements sim.Wakeable.
func (c *Core) SetWaker(w sim.Waker) { c.waker = w }

// WakeIdle ends the core's engine sleep. The machine calls it before it
// mutates, from outside the core's own Tick, state the forecast or its
// compensation depends on (a fill into the private cache hierarchy).
func (c *Core) WakeIdle() { c.waker.Wake() }

// PortFreed ends the core's engine sleep after its port freed egress
// capacity, unless the refused retry at the head of the retry queue would
// still be refused. A sleeping core reads the port only through that
// head's RetryReady (see forecast), and a refused retry's elided probes
// count the same whatever the egress occupancy, so neither the forecast
// nor its compensation can have changed.
func (c *Core) PortFreed() {
	if len(c.retryQ) == c.retryH {
		return
	}
	if e := c.slotOf(c.retryQ[c.retryH]); e != nil && c.retry != nil &&
		!c.retry.RetryReady(e.op.Kind, e.op.Addr) {
		return
	}
	c.waker.Wake()
}

// skipShape is the precomputed per-quiescent-cycle counter delta.
type skipShape struct {
	headEntry *robEntry // non-nil: head stalls (entry pointer is stable while idle)
	headLoad  bool
	hasRetry  bool
	skipCrit  bool
	retryKind OpKind
	retryPC   uint64
	retryAddr uint64
	dispatch  uint8 // 0 = none, 1 = DispatchStall, 2 = IdleCycles
}

// forecast is the sim.Ticker forecast the Tick before cycle at returns:
// the core is quiescent from at exactly when a dense Tick would change
// nothing but the stall/idle counters SkipCycles compensates — no commit,
// no issue, no dispatch, no retry that could succeed, and no instruction
// arriving from the stream. The sleep holds until the stream's next
// arrival unless a load completes or the port frees a resource, both of
// which wake the core. Every quiescent cycle accrues some counter (a
// stalled head, a refused retry, a blocked or idle dispatch), so every
// sleep owes.
func (c *Core) forecast(at sim.Cycle) sim.Cycle {
	// ALU completions pending or ops ready to issue: work at at.
	if c.aluPending > 0 || len(c.readyQ) > c.readyH {
		return at
	}
	sh := skipShape{}
	// Commit would retire the head.
	if c.count > 0 {
		e := &c.rob[c.head]
		if e.state == stDone {
			return at
		}
		sh.headEntry = e
		sh.headLoad = e.op.Kind == OpLoad
	}
	// A refused memory op is retried every cycle; that retry is elidable
	// only when the port can prove it would be refused again and its probe
	// side effects are fully compensable.
	if len(c.retryQ) > c.retryH {
		if c.retry == nil {
			return at
		}
		e := c.slotOf(c.retryQ[c.retryH])
		if e == nil {
			return at // stale seq: the retry queue itself would shrink
		}
		if e.op.Kind == OpLoad && c.hook.IsCritical != nil && c.hook.SkipCritical == nil {
			return at // cannot compensate the predictor probe
		}
		if c.retry.RetryReady(e.op.Kind, e.op.Addr) {
			return at
		}
		sh.hasRetry = true
		sh.skipCrit = e.op.Kind == OpLoad && c.hook.IsCritical != nil
		sh.retryKind = e.op.Kind
		sh.retryPC = e.op.PC
		sh.retryAddr = e.op.Addr
	}
	// Dispatch progress: possible only when the ROB has room.
	next := sim.NeverWork
	if c.count >= c.cfg.ROBSize {
		sh.dispatch = 1
	} else if c.fetched {
		op := &c.fetchBuf
		lqBlocked := op.Kind == OpLoad && c.lqUsed >= c.cfg.LQSize
		sqBlocked := op.Kind == OpStore && c.sqUsed >= c.cfg.SQSize
		if !lqBlocked && !sqBlocked {
			return at
		}
		sh.dispatch = 1
	} else {
		if c.idleSrc == nil {
			return at
		}
		n, idle := c.idleSrc.NextAvailable(at)
		if !idle {
			return at
		}
		next = n
		if c.count == 0 {
			sh.dispatch = 2
		}
	}
	c.shape = sh
	return sim.Owing(next)
}

// SkipCycles implements sim.Skipper: it applies exactly the counter updates
// that n := to-from consecutive quiescent Ticks would have applied — the
// commit-stall attribution, the refused-retry probe statistics, and the
// dispatch-stall/idle accounting — in the same at-most-once-per-cycle
// pattern as the dense loop. The engine only calls it for a span that began
// with a sleep forecast and before any wake, so the shape cached by that
// forecast describes every cycle of the span exactly.
func (c *Core) SkipCycles(from, to sim.Cycle) {
	n := uint64(to - from)
	if n == 0 {
		return
	}
	sh := &c.shape
	if sh.headEntry != nil {
		// commit: committed == 0 every skipped cycle (the head is not done).
		c.Stats.StallCycles += n
		sh.headEntry.stall += sim.Cycle(n)
		if sh.headLoad {
			c.Stats.LoadStallCyc += n
		}
	}
	if sh.hasRetry {
		// issue: one refused retry probe of the head op per skipped cycle.
		if sh.skipCrit {
			c.hook.SkipCritical(sh.retryPC, n)
		}
		c.retry.SkipRetries(sh.retryKind, sh.retryAddr, n)
	}
	// dispatch: blocked or idle, attributed once per cycle.
	switch sh.dispatch {
	case 1:
		c.Stats.DispatchStall += n
	case 2:
		c.Stats.IdleCycles += n
	}
}

func (c *Core) commit(now sim.Cycle) {
	if c.count == 0 {
		return
	}
	committed := 0
	for committed < c.cfg.CommitWidth && c.count > 0 {
		e := &c.rob[c.head]
		if e.state != stDone {
			break
		}
		// Retire.
		if e.op.Kind == OpLoad {
			c.Stats.Loads++
			if c.hook.OnLoadRetire != nil {
				c.hook.OnLoadRetire(e.op.PC, e.stall, e.llcMiss)
			}
			c.lqUsed--
		} else if e.op.Kind == OpStore {
			c.Stats.Stores++
			c.sqUsed--
		}
		if e.op.Flags&FlagReqEnd != 0 && c.hook.OnReqEnd != nil {
			c.hook.OnReqEnd(e.op.ReqID, now)
		}
		if c.lastWriter[e.op.Dest] == e.seq {
			c.lastWriter[e.op.Dest] = 0
		}
		e.waiters = e.waiters[:0]
		c.head = c.wrap(c.head + 1)
		c.headSeq++
		c.count--
		committed++
		c.Stats.Committed++
	}
	if committed == 0 && c.count > 0 {
		// ROB-head stall: attribute to the head instruction.
		c.Stats.StallCycles++
		e := &c.rob[c.head]
		e.stall++
		if e.op.Kind == OpLoad {
			c.Stats.LoadStallCyc++
		}
	}
}

// complete marks seq done and wakes its dependents.
func (c *Core) complete(seq uint64, now sim.Cycle) {
	e := c.slotOf(seq)
	if e == nil || e.state == stDone {
		return
	}
	e.state = stDone
	for _, w := range e.waiters {
		we := c.slotOf(w)
		if we == nil {
			continue
		}
		we.pending--
		if we.pending == 0 && we.state == stWaiting {
			we.state = stReady
			c.readyQ = append(c.readyQ, w)
		}
	}
	e.waiters = e.waiters[:0]
	_ = now
}

func (c *Core) issue(now sim.Cycle) {
	issued := 0

	// Retry memory ops the port refused before consuming new ready ops.
	for issued < c.cfg.IssueWidth && len(c.retryQ) > c.retryH {
		seq := c.retryQ[c.retryH]
		if !c.tryIssueMem(seq, now) {
			break // port still busy; preserve order
		}
		c.retryH++
		issued++
	}
	if c.retryH == len(c.retryQ) && c.retryH > 0 {
		c.retryQ, c.retryH = c.retryQ[:0], 0
	}

	for issued < c.cfg.IssueWidth && len(c.readyQ) > c.readyH {
		seq := c.readyQ[c.readyH]
		c.readyH++
		e := c.slotOf(seq)
		if e == nil || e.state != stReady {
			continue
		}
		switch e.op.Kind {
		case OpALU:
			e.state = stIssued
			lat := sim.Cycle(e.op.Lat)
			if lat == 0 {
				lat = 1
			}
			e.doneAt = now + lat
			slot := int(e.doneAt) & 255
			c.aluWheel[slot] = append(c.aluWheel[slot], seq)
			c.aluPending++
			issued++
		case OpLoad, OpStore:
			e.state = stIssued
			if !c.tryIssueMem(seq, now) {
				c.retryQ = append(c.retryQ, seq)
			}
			issued++
		}
	}
	if c.readyH == len(c.readyQ) && c.readyH > 0 {
		c.readyQ, c.readyH = c.readyQ[:0], 0
	}

	c.drainALUWheel(now)
}

// drainALUWheel completes every ALU op scheduled for this cycle.
func (c *Core) drainALUWheel(now sim.Cycle) {
	slot := int(now) & 255
	pend := c.aluWheel[slot]
	if len(pend) == 0 {
		return
	}
	c.aluWheel[slot] = pend[:0]
	c.aluPending -= len(pend)
	for _, seq := range pend {
		e := c.slotOf(seq)
		if e != nil && e.state == stIssued && e.op.Kind == OpALU && e.doneAt <= now {
			c.complete(seq, now)
		}
	}
}

func (c *Core) tryIssueMem(seq uint64, now sim.Cycle) bool {
	e := c.slotOf(seq)
	if e == nil {
		return true
	}
	switch e.op.Kind {
	case OpLoad:
		crit := false
		if c.hook.IsCritical != nil {
			crit = c.hook.IsCritical(e.op.PC)
		}
		ok := c.mem.Load(LoadRequest{
			Addr:     e.op.Addr,
			PC:       e.op.PC,
			Critical: crit,
			Seq:      seq,
		}, now)
		return ok
	case OpStore:
		ok := c.mem.Store(e.op.Addr, e.op.PC, now)
		if ok {
			// Stores complete through the write buffer immediately.
			c.complete(seq, now)
		}
		return ok
	}
	return true
}

// CompleteLoad finishes the load identified by its LoadRequest.Seq: records
// whether it missed the LLC and wakes its dependents. Completing a seq that
// already retired (or was never issued) is a no-op, matching the old
// callback's slotOf guard.
func (c *Core) CompleteLoad(seq uint64, llcMiss bool, now sim.Cycle) {
	c.waker.Wake()
	if e := c.slotOf(seq); e != nil {
		e.llcMiss = llcMiss
	}
	c.complete(seq, now)
}

func (c *Core) dispatch(now sim.Cycle) {
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.count >= c.cfg.ROBSize {
			c.Stats.DispatchStall++
			return
		}
		if !c.fetched {
			if !c.src.Next(&c.fetchBuf) {
				if c.count == 0 {
					c.Stats.IdleCycles++
				}
				return
			}
			c.fetched = true
		}
		op := c.fetchBuf
		if op.Kind == OpLoad && c.lqUsed >= c.cfg.LQSize {
			c.Stats.DispatchStall++
			return
		}
		if op.Kind == OpStore && c.sqUsed >= c.cfg.SQSize {
			c.Stats.DispatchStall++
			return
		}
		c.fetched = false

		c.nextSeq++
		seq := c.nextSeq
		idx := c.wrap(c.head + c.count)
		if c.count == 0 {
			c.headSeq = seq
			c.head = idx
		}
		e := &c.rob[idx]
		// Keep the slot's waiter backing array: every dispatch would
		// otherwise allocate a fresh one for its first dependent.
		*e = robEntry{op: op, seq: seq, state: stWaiting, waiters: e.waiters[:0]}

		// Resolve source dependences.
		deps := 0
		for _, r := range [2]RegID{op.Src1, op.Src2} {
			if r == 0 {
				continue
			}
			p := c.lastWriter[r]
			if p == 0 || c.depReady(p) {
				continue
			}
			pe := c.slotOf(p)
			pe.waiters = append(pe.waiters, seq)
			deps++
		}
		e.pending = deps
		if op.Dest != 0 {
			c.lastWriter[op.Dest] = seq
		}
		if op.Kind == OpLoad {
			c.lqUsed++
		} else if op.Kind == OpStore {
			c.sqUsed++
		}
		c.count++
		if deps == 0 {
			e.state = stReady
			c.readyQ = append(c.readyQ, seq)
		}
	}
}

// RegisterStats registers the core's instruments under prefix (e.g. "cpu0"):
// the pipeline counters, a commit-rate series, and the ROB-occupancy and
// ROB-head stall gauges behind the paper's stall-attribution claims.
func (c *Core) RegisterStats(reg *stats.Registry, prefix string) {
	st := &c.Stats
	reg.Counter(prefix+".committed", func() uint64 { return st.Committed })
	reg.Counter(prefix+".loads", func() uint64 { return st.Loads })
	reg.Counter(prefix+".stores", func() uint64 { return st.Stores })
	reg.Counter(prefix+".stall_cycles", func() uint64 { return st.StallCycles })
	reg.Counter(prefix+".load_stall_cycles", func() uint64 { return st.LoadStallCyc })
	reg.Counter(prefix+".idle_cycles", func() uint64 { return st.IdleCycles })
	reg.Counter(prefix+".dispatch_stalls", func() uint64 { return st.DispatchStall })
	reg.Rate(prefix+".commit_rate", func() uint64 { return st.Committed })
	reg.Rate(prefix+".stall_rate", func() uint64 { return st.StallCycles })
	reg.Gauge(prefix+".rob_occupancy", func() float64 { return float64(c.count) })
	reg.Gauge(prefix+".lq_used", func() float64 { return float64(c.lqUsed) })
	reg.Gauge(prefix+".sq_used", func() float64 { return float64(c.sqUsed) })
}

// ROBOccupancy reports the number of in-flight instructions.
func (c *Core) ROBOccupancy() int { return c.count }

// ROBHead describes the instruction blocking the head of the reorder buffer
// for diagnostic dumps (which static instruction is the machine stuck on?).
type ROBHead struct {
	PC    uint64
	Kind  OpKind
	State string // "waiting", "ready", "issued", "done"
	// StallCycles is how many commit-blocked cycles are attributed to this
	// entry so far.
	StallCycles sim.Cycle
}

// ROBHeadInfo returns the ROB-head instruction, or ok=false when the ROB is
// empty.
func (c *Core) ROBHeadInfo() (h ROBHead, ok bool) {
	if c.count == 0 {
		return ROBHead{}, false
	}
	e := &c.rob[c.head]
	h = ROBHead{PC: e.op.PC, Kind: e.op.Kind, StallCycles: e.stall}
	switch e.state {
	case stWaiting:
		h.State = "waiting"
	case stReady:
		h.State = "ready"
	case stIssued:
		h.State = "issued"
	case stDone:
		h.State = "done"
	}
	return h, true
}

// LQUsed and SQUsed report load/store-queue occupancy.
func (c *Core) LQUsed() int { return c.lqUsed }

// SQUsed reports store-queue occupancy.
func (c *Core) SQUsed() int { return c.sqUsed }

// IPC returns committed instructions per cycle over elapsed cycles.
func (c *Core) IPC(elapsed sim.Cycle) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(c.Stats.Committed) / float64(elapsed)
}

// ResetStats zeroes the counters (between warm-up and measurement).
func (c *Core) ResetStats() { c.Stats = Stats{} }
