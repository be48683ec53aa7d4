// Package dram models the memory controller and DRAM device: per-bank row
// buffers, FR-FCFS scheduling, a shared data bus that sets the peak
// bandwidth, finite request queues, and — for PIVOT — a priority queue with a
// maximum-wait starvation guard (§IV-D: 8 000 DRAM cycles for the memory
// controller).
//
// The model is deliberately simpler than a full DDR4 state machine but keeps
// the three properties the paper's results rest on: (1) streaming row-hit
// traffic achieves near-peak bus utilisation, (2) interleaved random traffic
// closes rows and costs activate/precharge time, and (3) a saturated
// controller queue back-pressures the bandwidth controller upstream.
package dram

import (
	"pivot/internal/mem"
	"pivot/internal/ring"
	"pivot/internal/sim"
	"pivot/internal/stats"
)

// Config describes the controller and device timing, all in CPU cycles.
type Config struct {
	// Channels is the number of independent memory channels, interleaved at
	// line granularity; each has its own data bus and Banks banks. 0 = 1.
	Channels    int
	Banks       int       // banks per channel
	ColumnLines int       // cache lines per row (row size / line size)
	TBurst      sim.Cycle // data-bus occupancy per line (peak: 1 line / TBurst)
	TCAS        sim.Cycle // column access latency once the row is open
	TRP         sim.Cycle // precharge
	TRCD        sim.Cycle // activate
	CapNormal   int       // normal queue capacity
	CapPrio     int       // priority queue capacity
	MaxWait     sim.Cycle // starvation guard for normal requests (0 = off)
	RespLatency sim.Cycle // fixed return-path latency to the core side

	// RefreshInterval (tREFI) triggers an all-bank refresh every so many
	// cycles; 0 disables refresh. RefreshLatency (tRFC) blocks every bank
	// and the data bus for its duration and closes all rows.
	RefreshInterval sim.Cycle
	RefreshLatency  sim.Cycle
}

// KunpengDDR4 approximates one channel of DDR4-2400 x64 behind a 2.4 GHz
// core: 64 B line = 8 CPU cycles of data bus, CAS ~ 33 cycles, activate and
// precharge ~ 32 cycles each, 16 banks, 8 KiB rows (128 lines).
func KunpengDDR4() Config {
	return Config{
		Banks:       16,
		ColumnLines: 128,
		TBurst:      8,
		TCAS:        33,
		TRP:         32,
		TRCD:        32,
		CapNormal:   48,
		CapPrio:     16,
		MaxWait:     16000, // 8000 DRAM cycles at a 1:2 clock ratio
		RespLatency: 20,
	}
}

// prioActivateWindow is how many priority-queue entries may hold bank
// activations concurrently (near-FIFO strictness; see startActivates).
const prioActivateWindow = 4

type bankState struct {
	openRow int64 // -1 = closed; set to the incoming row at activate time
	readyAt sim.Cycle
}

type entry struct {
	req  *mem.Req
	enq  sim.Cycle
	bank int
	row  int64
	// rank is the Ranker's rank for req as of the controller's rankGen
	// (normal queue only; 0 when unranked).
	rank int
}

// Stats captures controller activity for the bandwidth-utilisation figures.
type Stats struct {
	Served       uint64
	RowHits      uint64
	RowMisses    uint64
	LinesMoved   uint64 // total lines transferred on the data bus
	BusyCycles   uint64 // data-bus busy cycles
	Promoted     uint64 // starvation-guard promotions
	Refreshes    uint64 // all-bank refreshes performed
	Refused      uint64
	CritServed   uint64
	WaitCyclesLC uint64
	WaitCyclesBE uint64
}

// Controller is the memory controller + DRAM device model. It implements
// interconnect.Acceptor on the request side and delivers completions through
// the Respond callback.
type Controller struct {
	cfg   Config
	banks []bankState

	normal []entry
	prio   []entry

	// PriorityEnabled routes critical requests to the dedicated queue.
	PriorityEnabled bool

	// Ranker, when non-nil, ranks row-open normal-queue candidates
	// (lower = served first; FCFS within a rank), and rank-0 entries claim
	// their banks ahead of the rest. PIVOT and FullPath hook MPAM's classes
	// here so LC tasks' non-critical requests are ordered ahead of BE
	// traffic inside the normal queue (§IV-D).
	Ranker mem.Ranker
	// rankGen is the Ranker generation the cached entry ranks belong to.
	// Derived state: never serialised; restore re-ranks.
	rankGen uint64

	busFreeAt []sim.Cycle // per channel

	// Respond is invoked when a request's data has returned to the core side
	// (after RespLatency). Set by the machine during wiring.
	Respond func(r *mem.Req, now sim.Cycle)

	// waker ends the controller's engine sleep when Accept enqueues or the
	// Ranker's generation moves (see forecast and RanksChanged).
	waker sim.Waker

	// retry is the upstream's retry hook (interconnect.Downstream), called
	// after a Tick that served a request and so freed a queue slot.
	retry func()

	// pendingResp holds completed requests waiting out the response latency,
	// kept sorted by due cycle (appends are naturally in order because
	// completions are issued in bus order). A ring: every completion pops
	// the head once its latency elapses. respHead caches the head's due
	// cycle (sim.NeverWork when empty) so the per-tick delivery poll is one
	// compare instead of a ring access; derived state, rebuilt on restore.
	pendingResp ring.Ring[respEntry]
	respHead    sim.Cycle

	claimed     []bool // per-bank activation ownership, reused across ticks
	lineBits    uint
	nextRefresh sim.Cycle

	// Derived decode accelerators, precomputed from the (immutable) config in
	// New — never serialised. fastDecode is set when channel, bank and column
	// counts are all powers of two (every stock config), replacing decode's
	// divisions with shifts; bankCh maps a global bank id to its channel.
	fastDecode bool
	chMask     uint64
	chShift    uint
	colShift   uint
	bankMask   uint64
	bankShift  uint
	bankCh     []int32

	// actSettled memoises startActivates: the earliest cycle at which another
	// run could change any bank's state, valid only while the queues, banks,
	// refresh clock and ranks stay untouched (every mutation invalidates it;
	// ranks change only with the Ranker generation, which Tick checks).
	// Derived state: never serialised; restore invalidates it.
	actSettled sim.Cycle

	// pendClaimN holds normal-queue indices of entries whose claims a full
	// startActivates run would make but the memo has not run yet, in the
	// full scan's order (see claimsBefore): tail entries accepted while the
	// memo stayed valid — every older entry's claim is a no-op by the memo's
	// own guarantee — and a served entry's bank successor (repairAfterServe).
	// The next Tick claims just these instead of re-walking both queues. Any
	// other mutation (refresh, restore, priority traffic, a rank-0 append
	// under a Ranker, a generation change) discards memo and list.
	pendClaimN []int32

	// serveAt memoises, per channel, the earliest cycle the channel could
	// put a queued request on its data bus: the bus's free cycle while it is
	// busy, else the bound pick computes when it finds nothing to serve.
	// Every Tick that reaches the grant loop recomputes it. It stays exact
	// while the queues, banks and ranks do, and forecast trusts it only
	// while the activation memo is valid with no pending claims, which
	// already covers every other mutation: Accept queues a pending claim or
	// drops the memo, and so do restore and refresh; banks move only in
	// startActivates (bounded by actSettled) and refresh; ranks move only
	// with the Ranker generation, which forecast compares.
	// Derived state: never serialised.
	serveAt []sim.Cycle

	// rankCount[r] counts the normal-queue entries whose cached rank is r,
	// bankCount[b] the entries on bank b, and bankRank0[b] those of rank 0
	// on bank b (every entry is rank 0 unranked). They bound the ranked
	// scans: pick's FR-FCFS loop stops once no unseen entry can outrank its
	// candidate, its rank-0 loops and startActivates' stop after the last
	// rank-0 entry, and repairAfterServe skips an emptied bank and stops at
	// a bank's first entry when the bank holds no rank-0 entry. rankCount
	// grows to the highest rank seen (mem.Ranker allows any non-negative
	// rank). Derived state: never serialised; recount rebuilds them from the
	// queue.
	rankCount []int
	bankCount []int
	bankRank0 []int

	Stats Stats
}

type respEntry struct {
	req *mem.Req
	due sim.Cycle
}

// New builds a controller. lineBytes sets the address-to-bank/row mapping.
func New(cfg Config, lineBytes int) *Controller {
	if cfg.Channels <= 0 {
		cfg.Channels = 1
	}
	c := &Controller{
		cfg:         cfg,
		banks:       make([]bankState, cfg.Banks*cfg.Channels),
		busFreeAt:   make([]sim.Cycle, cfg.Channels),
		serveAt:     make([]sim.Cycle, cfg.Channels),
		rankCount:   make([]int, 1),
		bankCount:   make([]int, cfg.Banks*cfg.Channels),
		bankRank0:   make([]int, cfg.Banks*cfg.Channels),
		pendingResp: ring.New[respEntry](cfg.CapNormal + cfg.CapPrio),
		respHead:    sim.NeverWork,
	}
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	for b := lineBytes; b > 1; b >>= 1 {
		c.lineBits++
	}
	c.claimed = make([]bool, len(c.banks))
	c.bankCh = make([]int32, len(c.banks))
	for i := range c.bankCh {
		c.bankCh[i] = int32(i / cfg.Banks)
	}
	if pow2(cfg.Channels) && pow2(cfg.ColumnLines) && pow2(cfg.Banks) {
		c.fastDecode = true
		c.chMask = uint64(cfg.Channels - 1)
		c.chShift = log2(cfg.Channels)
		c.colShift = log2(cfg.ColumnLines)
		c.bankMask = uint64(cfg.Banks - 1)
		c.bankShift = log2(cfg.Banks)
	}
	if cfg.RefreshInterval > 0 {
		// Initialise the refresh deadline eagerly (maybeRefresh keeps its
		// lazy form for restored pre-init snapshots): forecast must know the
		// deadline before the first Tick, and it is serialised state, so it
		// has to be identical in dense and skip-ahead runs at every cycle.
		c.nextRefresh = cfg.RefreshInterval
	}
	return c
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func log2(n int) uint {
	var s uint
	for n > 1 {
		n >>= 1
		s++
	}
	return s
}

// decode maps a line address to (bank, row). Address layout, line-granular:
// [ row | bank | column | channel ]: channels interleave at line granularity
// and streaming addresses sweep a row's columns before moving to the next
// bank. The returned bank id is global (channel * Banks + bank-in-channel).
func (c *Controller) decode(addr uint64) (bank int, row int64) {
	line := addr >> c.lineBits
	if c.fastDecode {
		ch := int(line & c.chMask)
		rest := line >> c.chShift >> c.colShift
		bank = ch<<c.bankShift + int(rest&c.bankMask)
		row = int64(rest >> c.bankShift)
		return bank, row
	}
	ch := int(line % uint64(c.cfg.Channels))
	rest := line / uint64(c.cfg.Channels)
	rest /= uint64(c.cfg.ColumnLines)
	bank = ch*c.cfg.Banks + int(rest%uint64(c.cfg.Banks))
	row = int64(rest / uint64(c.cfg.Banks))
	return bank, row
}

// channelOf maps a global bank id back to its channel.
func (c *Controller) channelOf(bank int) int { return int(c.bankCh[bank]) }

// SetWaker implements sim.Wakeable.
func (c *Controller) SetWaker(w sim.Waker) { c.waker = w }

// SetRetry implements interconnect.Downstream.
func (c *Controller) SetRetry(retry func()) { c.retry = retry }

// ChargeRefused implements interconnect.Downstream.
func (c *Controller) ChargeRefused(from, to sim.Cycle) { c.Stats.Refused += uint64(to - from) }

// Accept implements the MSC queue interface.
func (c *Controller) Accept(r *mem.Req, now sim.Cycle) bool {
	// Capacity check before the address decode: a full queue refuses without
	// paying for the (pure) bank/row computation.
	usePrio := c.PriorityEnabled && r.Critical
	if usePrio {
		if len(c.prio) >= c.cfg.CapPrio {
			c.Stats.Refused++
			return false
		}
	} else if len(c.normal) >= c.cfg.CapNormal {
		c.Stats.Refused++
		return false
	}
	bank, row := c.decode(r.Addr)
	e := entry{req: r, enq: now, bank: bank, row: row}
	if !usePrio && c.Ranker != nil {
		e.rank = c.Ranker.Rank(r)
	}
	c.waker.Wake()
	r.Enter(mem.CompMemCtrl, now)
	if usePrio {
		c.prio = append(c.prio, e)
	} else {
		c.normal = append(c.normal, e)
		c.count(&e, 1)
	}
	// A new normal-queue tail may claim a previously idle bank. While the
	// activation memo is valid, the next Tick only needs to run
	// claim for this tail entry — every older entry's claim is a no-op by the
	// memo's own guarantee, and the tail gates on the same claimed-bank set a
	// full re-scan would have built by the time it reached it. That holds
	// only for an entry the full scan visits last. A priority entry claims
	// ahead of normal traffic, and under a Ranker a rank-0 entry claims ahead
	// of every other-rank one, so a bank such a claimant already owns must
	// not gate it — fall back to a full re-scan for those.
	lastInScan := !usePrio && (c.Ranker == nil || e.rank != 0)
	if lastInScan && c.actSettled != 0 && now < c.actSettled {
		c.pendClaimN = append(c.pendClaimN, int32(len(c.normal)-1))
		if c.cfg.MaxWait > 0 && len(c.normal) == 1 {
			// New head: the scan order changes when it starves.
			if starveAt := now + c.cfg.MaxWait + 1; starveAt < c.actSettled {
				c.actSettled = starveAt
			}
		}
	} else {
		c.invalidateAct()
	}
	return true
}

// invalidateAct discards the activation memo and any pending tail claims
// (their queue indices go stale with the memo).
func (c *Controller) invalidateAct() {
	c.actSettled = 0
	c.pendClaimN = c.pendClaimN[:0]
}

// count adds d to the occupancy counts of normal-queue entry e, growing the
// rank table to e's rank. A serve only decrements, so it never allocates.
func (c *Controller) count(e *entry, d int) {
	for e.rank >= len(c.rankCount) {
		c.rankCount = append(c.rankCount, 0)
	}
	c.rankCount[e.rank] += d
	c.bankCount[e.bank] += d
	if e.rank == 0 {
		c.bankRank0[e.bank] += d
	}
}

// recount rebuilds the occupancy counts from the normal queue.
func (c *Controller) recount() {
	clear(c.rankCount)
	clear(c.bankCount)
	clear(c.bankRank0)
	for i := range c.normal {
		c.count(&c.normal[i], 1)
	}
}

// repairAfterServe keeps the activation memo alive across a normal-queue
// serve — the hottest invalidation by far — on the priority-empty path.
// Removing entry i changes exactly two things a full re-scan would see: its
// bank may now belong to the scan-order-first entry still targeting it, and
// the queue may have a new head whose starvation cycle reorders the scan.
// Both are folded into the memo: the new bank winner is queued as a pending
// claim for the next Tick (the cycle a full re-scan would have claimed it),
// and the head's starve cycle lowers the memo. Everything else is untouched
// by construction — removal reorders no surviving entry, so every other bank
// keeps its scan-order-first winner.
func (c *Controller) repairAfterServe(i, bank int, now sim.Cycle) {
	if c.actSettled == 0 || len(c.prio) > 0 {
		c.invalidateAct()
		return
	}
	// Shift pending tail-claim indices across the removal; the served entry
	// may itself have been pending.
	keep := c.pendClaimN[:0]
	for _, idx := range c.pendClaimN {
		if int(idx) == i {
			continue
		}
		if int(idx) > i {
			idx--
		}
		keep = append(keep, idx)
	}
	c.pendClaimN = keep
	c.claimed[bank] = false
	// The scan-order-first claimant: the first rank-0 entry on the bank,
	// else the first entry of any rank (all ranks are 0 when unranked). The
	// counts say which one exists, so the walk stops at it, and an emptied
	// bank needs no walk.
	if c.bankCount[bank] > 0 {
		anyRank := c.bankRank0[bank] == 0
		for j := range c.normal {
			if e := &c.normal[j]; e.bank == bank && (anyRank || e.rank == 0) {
				c.insertPendClaim(int32(j))
				break
			}
		}
	}
	if c.cfg.MaxWait > 0 && len(c.normal) > 0 {
		starveAt := c.normal[0].enq + c.cfg.MaxWait + 1
		if starveAt <= now+1 {
			c.invalidateAct() // head already starved: the full scan must lead with it
			return
		}
		if starveAt < c.actSettled {
			c.actSettled = starveAt
		}
	}
}

// insertPendClaim adds a queue index to the pending-claim list, keeping it
// in full-scan order so that two claimants of the same bank resolve exactly
// as a full re-scan would.
func (c *Controller) insertPendClaim(idx int32) {
	c.pendClaimN = append(c.pendClaimN, idx)
	j := len(c.pendClaimN) - 1
	for j > 0 && c.claimsBefore(idx, c.pendClaimN[j-1]) {
		c.pendClaimN[j] = c.pendClaimN[j-1]
		j--
	}
	c.pendClaimN[j] = idx
}

// claimsBefore reports whether normal entry a precedes b in startActivates'
// scan: rank-0 entries first, then the rest, each in queue (FCFS) order.
func (c *Controller) claimsBefore(a, b int32) bool {
	ra, rb := c.normal[a].rank == 0, c.normal[b].rank == 0
	if ra != rb {
		return ra
	}
	return a < b
}

// rerank refreshes every cached normal-queue rank for generation g, with
// the occupancy counts, and drops the activation memo, whose scan order the
// ranks define.
func (c *Controller) rerank(g uint64) {
	for i := range c.normal {
		c.normal[i].rank = c.Ranker.Rank(c.normal[i].req)
	}
	c.recount()
	c.rankGen = g
	c.invalidateAct()
}

// runPendingClaims claims banks for the pending normal entries in the full
// scan's order, lowering the memo when a new winner is blocked on a busy
// bank.
func (c *Controller) runPendingClaims(now sim.Cycle) {
	next := c.actSettled
	for _, i := range c.pendClaimN {
		c.claim(&c.normal[i], now, &next)
	}
	c.pendClaimN = c.pendClaimN[:0]
	c.actSettled = next
}

// QueueLen reports queue occupancy (normal, priority).
func (c *Controller) QueueLen() (int, int) { return len(c.normal), len(c.prio) }

// rowOpenFor reports whether e may be served now: its bank holds its row,
// open and ready.
func (c *Controller) rowOpenFor(e *entry, now sim.Cycle) bool {
	b := &c.banks[e.bank]
	return b.openRow == e.row && b.readyAt <= now
}

// startActivates opens rows for queued requests. Each bank is owned by at
// most one claimant per cycle — the starved head first, then priority
// requests, then normal requests in FCFS order — so a younger request can
// never close a row an older request is about to use (that would livelock
// two same-bank requests into perpetually re-activating each other's rows).
//
// The returned cycle is when a re-run could first change any bank's state,
// assuming queues, banks and the refresh clock stay untouched until then:
// the winner per bank is fixed by the (deterministic) scan order, a blocked
// winner acts when its bank frees, and the scan order itself changes only
// when the queue head crosses the starvation threshold. Callers on the
// memoised path skip re-running until that cycle.
func (c *Controller) startActivates(now sim.Cycle) sim.Cycle {
	if c.claimed == nil || len(c.claimed) < len(c.banks) {
		c.claimed = make([]bool, len(c.banks))
	} else {
		for i := range c.claimed {
			c.claimed[i] = false
		}
	}
	next := sim.NeverWork
	nb := len(c.banks)
	nClaimed := 0
	if c.cfg.MaxWait > 0 && len(c.normal) > 0 {
		if starveAt := c.normal[0].enq + c.cfg.MaxWait + 1; now >= starveAt {
			if c.claim(&c.normal[0], now, &next) {
				nClaimed++
			}
		} else if starveAt < next {
			next = starveAt // scan order changes when the head starves
		}
	}
	// Priority service is near-FIFO: only the first few priority entries may
	// open new rows. This is the §III-B cost of prioritisation — a strict
	// scheduler cannot freely reorder priority traffic for row locality the
	// way FR-FCFS reorders best-effort traffic, so each prioritised row miss
	// loses activation overlap. Policies that prioritise more traffic
	// (FullPath) therefore pay more idle bus time than ones that prioritise
	// a sliver (PIVOT).
	for i := 0; i < len(c.prio) && i < prioActivateWindow && nClaimed < nb; i++ {
		if c.claim(&c.prio[i], now, &next) {
			nClaimed++
		}
	}
	if c.Ranker != nil {
		// Class-ordered activation: high-class (LC) normal requests claim
		// their banks ahead of best-effort traffic.
		for i, left := 0, c.rankCount[0]; left > 0 && nClaimed < nb; i++ {
			if c.normal[i].rank != 0 {
				continue
			}
			left--
			if c.claim(&c.normal[i], now, &next) {
				nClaimed++
			}
		}
	}
	// Deep saturated queues stop scanning as soon as every bank has an
	// owner; everything past that point cannot claim anything.
	for i := range c.normal {
		if nClaimed >= nb {
			break
		}
		if c.claim(&c.normal[i], now, &next) {
			nClaimed++
		}
	}
	return next
}

// claim lets e control its bank's row this cycle if no older request already
// did, activating e's row when needed. next is lowered to the cycle this
// winner will act if it is currently blocked on a busy bank. It reports
// whether e newly claimed its bank, so scans can stop once every bank has an
// owner — any further claim is a no-op by the first check here.
func (c *Controller) claim(e *entry, now sim.Cycle, next *sim.Cycle) bool {
	if c.claimed[e.bank] {
		return false
	}
	c.claimed[e.bank] = true
	b := &c.banks[e.bank]
	if b.openRow == e.row {
		return true
	}
	if b.readyAt > now {
		if b.readyAt < *next {
			*next = b.readyAt
		}
		return true
	}
	pen := c.cfg.TRCD
	if b.openRow >= 0 {
		pen += c.cfg.TRP
	}
	b.openRow = e.row
	b.readyAt = now + pen
	c.Stats.RowMisses++
	return true
}

// pick selects the next request to put on the data bus:
//  1. a starved normal request whose row is open (§IV-D guard);
//  2. if the priority queue is non-empty, a priority request with an open
//     row — and if none is ready, the controller *waits* for the priority
//     activations instead of slipping row-hit normal requests underneath.
//     This strict service is what makes prioritisation conflict with the
//     row-hit-first default scheduling (§III-B): every prioritised row miss
//     costs idle data-bus cycles, so the more loads a policy prioritises,
//     the lower the achieved bandwidth;
//  3. otherwise FR-FCFS over the normal queue (first row-open request).
//
// When it finds nothing, at is the earliest cycle the same scan could
// succeed with the queues, banks and ranks unchanged (NeverWork if never):
// the first cycle a candidate whose row is already open has its bank ready,
// or a blocked channel's starving head may be promoted. Candidates whose rows are closed need an
// activation first, which the activation memo bounds (see forecast).
func (c *Controller) pick(now sim.Cycle, ch int) (q *[]entry, idx int, at sim.Cycle) {
	at = sim.NeverWork
	// Starvation guard.
	if c.cfg.MaxWait > 0 && len(c.normal) > 0 {
		e := &c.normal[0]
		if c.channelOf(e.bank) == ch && now-e.enq > c.cfg.MaxWait && c.rowOpenFor(e, now) {
			c.Stats.Promoted++
			return &c.normal, 0, 0
		}
	}
	if c.PriorityEnabled && len(c.prio) > 0 {
		prioOnCh := false
		for i := range c.prio {
			e := &c.prio[i]
			if c.channelOf(e.bank) != ch {
				continue
			}
			prioOnCh = true
			if c.servableAt(e, now, &at) {
				return &c.prio, i, 0
			}
		}
		if prioOnCh {
			// While priority rows activate, only top-class (LC) normal
			// requests with open rows may slip under — best-effort traffic
			// waits. This keeps the strict-priority cost of FullPath (which
			// prioritises the LC task's whole stream, leaving nothing to
			// slip) without making PIVOT idle the bus when co-located LC
			// tasks' non-critical traffic could use it.
			if c.Ranker != nil {
				for i, left := 0, c.rankCount[0]; left > 0; i++ {
					e := &c.normal[i]
					if e.rank != 0 {
						continue
					}
					left--
					if c.channelOf(e.bank) == ch && c.servableAt(e, now, &at) {
						return &c.normal, i, 0
					}
				}
			}
			if c.cfg.MaxWait > 0 && len(c.normal) > 0 {
				// The head jumps these priority rows once it starves.
				e := &c.normal[0]
				if c.channelOf(e.bank) == ch && c.banks[e.bank].openRow == e.row {
					if t := max(e.enq+c.cfg.MaxWait+1, c.banks[e.bank].readyAt); t < at {
						at = t
					}
				}
			}
			return nil, -1, at // this channel idles while its priority rows activate
		}
	}
	// FR-FCFS within a rank: the first row-open entry of the lowest rank.
	// FCFS holds within a rank, so the scan stops once no unseen entry has a
	// lower rank than the candidate; left counts those (before a candidate,
	// every unseen entry). Ranks are non-negative, so the first row-open
	// rank-0 entry wins outright (every entry is rank 0 unranked).
	best, bestRank := -1, int(^uint(0)>>1)
	left := len(c.normal)
	for i := range c.normal {
		e := &c.normal[i]
		if e.rank >= bestRank {
			continue
		}
		left--
		if c.channelOf(e.bank) == ch && c.servableAt(e, now, &at) {
			best, bestRank = i, e.rank
			left = c.outrankersAfter(i)
		}
		if left == 0 {
			break
		}
	}
	if best >= 0 {
		return &c.normal, best, 0
	}
	return nil, -1, at
}

// outrankersAfter counts the normal entries behind entry i whose rank is
// lower than its own: the queue's counts of those ranks, less the ones ahead
// of i. The counts span every channel, so for a per-channel scan the result
// is an upper bound. It walks the entries ahead of i only when the queue
// holds a lower rank at all.
func (c *Controller) outrankersAfter(i int) int {
	r, n := c.normal[i].rank, 0
	for k := range r {
		n += c.rankCount[k]
	}
	for j := 0; j < i && n > 0; j++ {
		if c.normal[j].rank < r {
			n--
		}
	}
	return n
}

// servableAt is rowOpenFor for pick's scans: it reports whether e may be
// served now, and otherwise lowers at to the cycle it could be if its row is
// already open.
func (c *Controller) servableAt(e *entry, now sim.Cycle, at *sim.Cycle) bool {
	b := &c.banks[e.bank]
	if b.openRow != e.row {
		return false
	}
	if b.readyAt <= now {
		return true
	}
	if b.readyAt < *at {
		*at = b.readyAt
	}
	return false
}

func remove(q *[]entry, i int) entry {
	e := (*q)[i]
	copy((*q)[i:], (*q)[i+1:])
	*q = (*q)[:len(*q)-1]
	return e
}

// maybeRefresh runs the periodic all-bank refresh: every RefreshInterval
// cycles, every row closes and banks plus the data bus block for
// RefreshLatency cycles. Per-request this is rare but it bounds the
// worst-case latency any scheduler can promise.
func (c *Controller) maybeRefresh(now sim.Cycle) {
	if c.cfg.RefreshInterval == 0 {
		return
	}
	if c.nextRefresh == 0 {
		c.nextRefresh = c.cfg.RefreshInterval
	}
	if now < c.nextRefresh {
		return
	}
	c.nextRefresh = now + c.cfg.RefreshInterval
	c.Stats.Refreshes++
	c.invalidateAct() // every row closes; pending activation decisions reset
	until := now + c.cfg.RefreshLatency
	for i := range c.banks {
		c.banks[i].openRow = -1
		c.banks[i].readyAt = until
	}
	for ch := range c.busFreeAt {
		if c.busFreeAt[ch] < until {
			c.busFreeAt[ch] = until
		}
	}
}

// Tick advances the controller one cycle — deliver due responses, start row
// activates and, when a data bus is free, move one request's line — and
// returns its forecast (see forecast).
func (c *Controller) Tick(now sim.Cycle) sim.Cycle {
	// Deliver responses whose return latency elapsed.
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
	if c.Ranker != nil {
		// Ranks move only with the generation (MPAM classes change at a
		// bwctrl window roll or a restore), so the activation memo and the
		// cached ranks stay exact until it changes.
		if g := c.Ranker.RankGen(); g != c.rankGen {
			c.rerank(g)
		}
	}
	if now >= c.actSettled {
		c.pendClaimN = c.pendClaimN[:0]
		c.actSettled = c.startActivates(now)
	} else if len(c.pendClaimN) > 0 {
		c.runPendingClaims(now)
	}

	// Every channel's serveAt is recomputed below. A serve on a later
	// channel cannot advance an earlier channel's bound: channels share
	// only the starvation guard's head, and a serve that changes the head
	// lowers or drops the activation memo (repairAfterServe), which
	// forecast also honours.
	served := false
	for ch := range c.busFreeAt {
		if c.busFreeAt[ch] > now {
			c.Stats.BusyCycles++
			c.serveAt[ch] = c.busFreeAt[ch]
			continue
		}
		q, i, at := c.pick(now, ch)
		if q == nil {
			c.serveAt[ch] = at
			continue
		}
		e := remove(q, i)
		if q == &c.normal {
			c.count(&e, -1)
			c.repairAfterServe(i, e.bank, now)
		} else {
			c.invalidateAct() // a priority serve shifts the activation window
		}
		c.Stats.Served++
		c.Stats.RowHits++ // row was open by construction of pick
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
		c.serveAt[ch] = c.busFreeAt[ch]
		c.Stats.BusyCycles++
		done := now + c.cfg.TCAS + c.cfg.TBurst
		// The queue residency is pure wait; CAS+burst and the response hop
		// are pure service.
		e.req.Depart(mem.CompMemCtrl, e.enq, now, 0)
		e.req.Hop(mem.CompDRAM, now, done-now)
		e.req.Hop(mem.CompResp, done, c.cfg.RespLatency)
		if c.pendingResp.Len() == 0 {
			c.respHead = done + c.cfg.RespLatency
		}
		c.pendingResp.Push(respEntry{req: e.req, due: done + c.cfg.RespLatency})
		served = true
	}
	if served && c.retry != nil {
		c.retry()
	}
	return c.forecast(now + 1)
}

// forecast is the sim.Ticker forecast the Tick before cycle at returns:
// the earliest cycle from at on at which a Tick could do more than count
// busy data-bus cycles (which SkipCycles compensates, so a sleep owes
// exactly while a bus is busy past at): the next response delivery, the
// next refresh and, while requests are queued, the activation memo's bound
// (actSettled: no bank can change state before it) and each channel's
// serveAt (no request can reach the bus before it). It keeps the
// controller awake while the activation memo is invalid or has pending
// claims (a request just enqueued, a served bank's successor, a re-scan
// due) — which is also when serveAt may be stale — or while the Ranker's
// generation has moved past the cached ranks. Accept and a
// class-generation bump (RanksChanged) wake it. The `claimed` scratch slab
// an idle Tick would have zeroed carries no state (it is rebuilt every tick
// and never serialised), so eliding it is unobservable.
func (c *Controller) forecast(at sim.Cycle) sim.Cycle {
	next := c.respHead
	if len(c.normal) > 0 || len(c.prio) > 0 {
		if len(c.pendClaimN) > 0 || c.actSettled <= at ||
			(c.Ranker != nil && c.Ranker.RankGen() != c.rankGen) {
			return at
		}
		next = min(next, c.actSettled)
		for _, free := range c.serveAt {
			next = min(next, free)
		}
	}
	if c.cfg.RefreshInterval > 0 {
		nr := c.nextRefresh
		if nr == 0 {
			nr = c.cfg.RefreshInterval // matches maybeRefresh's lazy init
		}
		next = min(next, nr)
	}
	if next <= at {
		return at
	}
	for _, free := range c.busFreeAt {
		if free > at {
			return sim.Owing(next)
		}
	}
	return next
}

// SkipCycles implements sim.Skipper: each elided cycle counts every channel
// whose data bus was still busy, as the idle Tick would have.
func (c *Controller) SkipCycles(from, to sim.Cycle) {
	for _, free := range c.busFreeAt {
		if free > from {
			c.Stats.BusyCycles += uint64(min(free, to) - from)
		}
	}
}

// RanksChanged wakes the controller after its Ranker's generation moved:
// the cached ranks order both the activation scan and pick, so a sleep
// forecast made under the old ranks may be too late. The caller (bwctrl's
// window roll) ticks after the controller, so the wake ticks it on the next
// cycle — the cycle a dense run's Tick first re-ranks.
func (c *Controller) RanksChanged() { c.waker.Wake() }

// RegisterStats registers the controller's instruments under prefix (e.g.
// "dram"): row-buffer and bus counters, the per-epoch lines-moved series the
// bandwidth-over-time charts use, FR-FCFS queue-depth gauges, and a
// bank-utilisation gauge (fraction of banks with an open row).
func (c *Controller) RegisterStats(reg *stats.Registry, prefix string) {
	st := &c.Stats
	reg.Counter(prefix+".served", func() uint64 { return st.Served })
	reg.Counter(prefix+".row_hits", func() uint64 { return st.RowHits })
	reg.Counter(prefix+".row_misses", func() uint64 { return st.RowMisses })
	reg.Counter(prefix+".lines_moved", func() uint64 { return st.LinesMoved })
	reg.Counter(prefix+".busy_cycles", func() uint64 { return st.BusyCycles })
	reg.Counter(prefix+".promoted", func() uint64 { return st.Promoted })
	reg.Counter(prefix+".refreshes", func() uint64 { return st.Refreshes })
	reg.Counter(prefix+".refused", func() uint64 { return st.Refused })
	reg.Counter(prefix+".crit_served", func() uint64 { return st.CritServed })
	reg.Counter(prefix+".wait_cycles_lc", func() uint64 { return st.WaitCyclesLC })
	reg.Counter(prefix+".wait_cycles_be", func() uint64 { return st.WaitCyclesBE })
	reg.Rate(prefix+".lines_epoch", func() uint64 { return st.LinesMoved })
	reg.Gauge(prefix+".qdepth_normal", func() float64 { return float64(len(c.normal)) })
	reg.Gauge(prefix+".qdepth_prio", func() float64 { return float64(len(c.prio)) })
	reg.Gauge(prefix+".banks_open", func() float64 {
		open := 0
		for i := range c.banks {
			if c.banks[i].openRow >= 0 {
				open++
			}
		}
		return float64(open) / float64(len(c.banks))
	})
}

// EachReq visits every request the controller holds in deterministic order
// (priority queue, normal queue, then the response pipe, each FCFS), so the
// machine's in-flight walk enumerates identically in identical states.
func (c *Controller) EachReq(f func(*mem.Req)) {
	for i := range c.prio {
		f(c.prio[i].req)
	}
	for i := range c.normal {
		f(c.normal[i].req)
	}
	for i, n := 0, c.pendingResp.Len(); i < n; i++ {
		f(c.pendingResp.At(i).req)
	}
}

// Drained reports whether all queues and in-flight responses are empty.
func (c *Controller) Drained() bool {
	return len(c.normal) == 0 && len(c.prio) == 0 && c.pendingResp.Len() == 0
}

// PendingResponses reports how many completed requests are waiting out the
// response latency — in-flight state the invariant auditor must account for.
func (c *Controller) PendingResponses() int { return c.pendingResp.Len() }

// PeakLinesPerCycle returns the aggregate data-bus peak rate in lines per
// cycle across all channels.
func (c *Controller) PeakLinesPerCycle() float64 {
	return float64(c.cfg.Channels) / float64(c.cfg.TBurst)
}

// Utilisation returns achieved/peak bandwidth over elapsed cycles.
func (c *Controller) Utilisation(elapsed sim.Cycle) float64 {
	if elapsed == 0 {
		return 0
	}
	peak := float64(elapsed) * c.PeakLinesPerCycle()
	return float64(c.Stats.LinesMoved) / peak
}

// ResetStats zeroes the counters (between warm-up and measurement).
func (c *Controller) ResetStats() { c.Stats = Stats{} }
