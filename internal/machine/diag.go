package machine

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"pivot/internal/sim"
)

// This file is the machine's self-defense layer: a diagnostic snapshot of
// the simulated state (what is the pipeline stuck on?), a forward-progress
// watchdog, an opt-in invariant auditor, and StepChecked/RunChecked — the
// checked equivalents of Step/Run that the experiment harness drives so a
// wedged or corrupted simulation aborts with evidence instead of hanging.

// CoreDiag is one core's slice of a Diagnostic.
type CoreDiag struct {
	Core      int    `json:"core"`
	Kind      string `json:"kind"` // "LC" or "BE"
	Committed uint64 `json:"committed"`
	ROBUsed   int    `json:"robUsed"`
	LQUsed    int    `json:"lqUsed"`
	SQUsed    int    `json:"sqUsed"`
	// Head describes the instruction blocking the ROB head ("-" when empty).
	HeadPC    uint64 `json:"headPC"`
	HeadKind  string `json:"headKind"`
	HeadState string `json:"headState"`
	HeadStall uint64 `json:"headStallCycles"`
	// PortOut and MSHRs are the core's private memory-side occupancy.
	PortOut int `json:"portOut"`
	MSHRs   int `json:"mshrs"`
	// Backlog is the LC arrival-queue depth (0 for BE tasks).
	Backlog int `json:"arrivalBacklog"`
}

// QueueDiag is one MSC station's queue occupancy.
type QueueDiag struct {
	Normal    int    `json:"normal"`
	Prio      int    `json:"prio"`
	CapNormal int    `json:"capNormal"`
	CapPrio   int    `json:"capPrio"`
	Refused   uint64 `json:"refused"`
}

// Diagnostic is a machine state snapshot taken when a run aborts (watchdog,
// audit violation, panic, deadline). It is JSON-serialisable so the harness
// can journal it, and String renders the human-readable dump the docs
// describe.
type Diagnostic struct {
	Cycle  uint64 `json:"cycle"`
	Policy string `json:"policy"`
	Config string `json:"config"`

	Cores []CoreDiag `json:"cores"`

	IC      QueueDiag `json:"interconnect"`
	Bus     QueueDiag `json:"bus"`
	BWCtrl  QueueDiag `json:"bwctrl"`
	MemCtrl QueueDiag `json:"memctrl"`
	// PendingResp counts DRAM completions still in the response pipe.
	PendingResp int `json:"pendingResp"`

	// ReqsLive is issued-minus-recycled pooled requests; ReqsAccounted is
	// how many of them the queues above (plus delay slots) explain. The two
	// are equal in a healthy machine.
	ReqsLive      uint64 `json:"reqsLive"`
	ReqsAccounted uint64 `json:"reqsAccounted"`
}

// Diagnose captures the machine's current state for failure reports.
func (m *Machine) Diagnose() Diagnostic {
	d := Diagnostic{
		Cycle:  uint64(m.Engine.Now()),
		Policy: m.Opt.Policy.String(),
		Config: m.Cfg.Name,
	}
	for i, c := range m.Cores {
		cd := CoreDiag{
			Core:      i,
			Kind:      "BE",
			Committed: c.Stats.Committed,
			ROBUsed:   c.ROBOccupancy(),
			LQUsed:    c.LQUsed(),
			SQUsed:    c.SQUsed(),
			HeadKind:  "-",
			HeadState: "-",
			PortOut:   len(m.ports[i].out),
			MSHRs:     m.ports[i].mshr.Len(),
		}
		if m.tasks[i].Kind == TaskLC {
			cd.Kind = "LC"
		}
		if h, ok := c.ROBHeadInfo(); ok {
			cd.HeadPC = h.PC
			cd.HeadKind = h.Kind.String()
			cd.HeadState = h.State
			cd.HeadStall = uint64(h.StallCycles)
		}
		d.Cores = append(d.Cores, cd)
	}
	for _, lc := range m.lcs {
		d.Cores[lc.Core].Backlog = lc.Source.QueueDepth()
	}

	queueDiag := func(normal, prio int, capN, capP int, refused uint64) QueueDiag {
		return QueueDiag{Normal: normal, Prio: prio, CapNormal: capN, CapPrio: capP, Refused: refused}
	}
	icN, icP := m.ic.QueueLen()
	d.IC = queueDiag(icN, icP, m.ic.Config().CapNormal, m.ic.Config().CapPrio, m.ic.Stats.Refused)
	busN, busP := m.bus.QueueLen()
	d.Bus = queueDiag(busN, busP, m.bus.Config().CapNormal, m.bus.Config().CapPrio, m.bus.Stats.Refused)
	bwN, bwP := m.bw.Station.QueueLen()
	d.BWCtrl = queueDiag(bwN, bwP, m.bw.Station.Config().CapNormal, m.bw.Station.Config().CapPrio, m.bw.Station.Stats.Refused)
	mcN, mcP := m.mc.QueueLen()
	d.MemCtrl = queueDiag(mcN, mcP, m.mc.Config().CapNormal, m.mc.Config().CapPrio, m.mc.Stats.Refused)
	d.PendingResp = m.mc.PendingResponses()

	d.ReqsLive = m.reqsIssued - m.reqsRecycled
	d.ReqsAccounted = uint64(m.accountedReqs())
	return d
}

// accountedReqs counts live requests at every place the machine can hold one.
func (m *Machine) accountedReqs() int {
	n := m.reqsDelayed
	for _, p := range m.ports {
		n += len(p.out)
	}
	icN, icP := m.ic.QueueLen()
	busN, busP := m.bus.QueueLen()
	bwN, bwP := m.bw.Station.QueueLen()
	mcN, mcP := m.mc.QueueLen()
	n += icN + icP + busN + busP + bwN + bwP + mcN + mcP
	n += m.mc.PendingResponses()
	return n
}

// String renders the dump an operator reads when a run aborts: one line per
// core (what instruction is the head stuck on), then the memory-path queue
// occupancies and the request-conservation balance.
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine diagnostic @ cycle %d (%s, policy %s)\n", d.Cycle, d.Config, d.Policy)
	for _, c := range d.Cores {
		fmt.Fprintf(&b, "  core %d [%s] committed=%d rob=%d lq=%d sq=%d out=%d mshr=%d",
			c.Core, c.Kind, c.Committed, c.ROBUsed, c.LQUsed, c.SQUsed, c.PortOut, c.MSHRs)
		if c.HeadKind != "-" {
			fmt.Fprintf(&b, " head=%s pc=0x%x state=%s stall=%d", c.HeadKind, c.HeadPC, c.HeadState, c.HeadStall)
		}
		if c.Backlog > 0 {
			fmt.Fprintf(&b, " backlog=%d", c.Backlog)
		}
		b.WriteByte('\n')
	}
	q := func(name string, qd QueueDiag) {
		fmt.Fprintf(&b, "  %-12s normal=%d/%d prio=%d/%d refused=%d\n",
			name, qd.Normal, qd.CapNormal, qd.Prio, qd.CapPrio, qd.Refused)
	}
	q("interconnect", d.IC)
	q("bus", d.Bus)
	q("bwctrl", d.BWCtrl)
	q("memctrl", d.MemCtrl)
	fmt.Fprintf(&b, "  pendingResp=%d reqs live=%d accounted=%d\n", d.PendingResp, d.ReqsLive, d.ReqsAccounted)
	return b.String()
}

// StallError reports a watchdog abort: no core committed an instruction for
// a full watchdog window.
type StallError struct {
	Window sim.Cycle
	Diag   Diagnostic
}

func (e *StallError) Error() string {
	return fmt.Sprintf("machine: no instruction committed for %d cycles (forward-progress watchdog) at cycle %d",
		e.Window, e.Diag.Cycle)
}

// AuditError reports invariant-auditor violations.
type AuditError struct {
	Violations []string
	Diag       Diagnostic
}

func (e *AuditError) Error() string {
	return fmt.Sprintf("machine: invariant audit failed at cycle %d: %s",
		e.Diag.Cycle, strings.Join(e.Violations, "; "))
}

// PanicError is a recovered simulation panic, converted to an error by the
// run layers so one corrupted run cannot crash a whole sweep.
type PanicError struct {
	Value any
	Stack string
	Diag  Diagnostic
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("machine: simulation panic: %v", e.Value)
}

// ErrCycleBudget marks a run that exceeded Options.MaxCycles.
var ErrCycleBudget = errors.New("simulated-cycle budget exceeded")

// AbortError wraps an externally-caused abort (context deadline or
// cancellation, cycle budget) with the machine state at abort time.
type AbortError struct {
	Cause error
	Diag  Diagnostic
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("machine: run aborted at cycle %d: %v", e.Diag.Cycle, e.Cause)
}

// Unwrap exposes the cause for errors.Is(err, context.DeadlineExceeded) etc.
func (e *AbortError) Unwrap() error { return e.Cause }

// DiagOf extracts the diagnostic snapshot carried by a machine abort error,
// if any.
func DiagOf(err error) (Diagnostic, bool) {
	var se *StallError
	if errors.As(err, &se) {
		return se.Diag, true
	}
	var ae *AuditError
	if errors.As(err, &ae) {
		return ae.Diag, true
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return pe.Diag, true
	}
	var be *AbortError
	if errors.As(err, &be) {
		return be.Diag, true
	}
	return Diagnostic{}, false
}

// checkGranule is how many cycles StepChecked advances between guard checks.
const checkGranule sim.Cycle = 2048

// DefaultWatchdogWindow is the forward-progress window CLI tools default to:
// a healthy machine commits instructions every few cycles, so 200K cycles
// with zero commits across all cores means the simulation is wedged, while
// the window stays far above any legitimate commit gap.
const DefaultWatchdogWindow sim.Cycle = 200_000

// StepChecked advances the machine n cycles like Engine.Step, but in
// granules, checking between granules for context cancellation, the
// forward-progress watchdog, the simulated-cycle budget, and (when
// Options.Audit is set) the state invariants. Granule stepping never changes
// simulated behaviour — Step(a) then Step(b) is identical to Step(a+b) — so
// checked and unchecked runs produce bit-identical statistics.
func (m *Machine) StepChecked(ctx context.Context, n sim.Cycle) error {
	if ctx == nil {
		ctx = context.Background()
	}
	granule := checkGranule
	if w := m.Opt.WatchdogWindow; w > 0 && w < granule {
		granule = w
	}

	lastCommits := m.committedTotal()
	lastProgress := m.Engine.Now()
	lastAudit := m.Engine.Now()

	for n > 0 {
		if err := ctx.Err(); err != nil {
			return &AbortError{Cause: err, Diag: m.Diagnose()}
		}
		if m.Opt.MaxCycles > 0 && m.Engine.Now() >= m.Opt.MaxCycles {
			return &AbortError{Cause: ErrCycleBudget, Diag: m.Diagnose()}
		}
		step := granule
		if step > n {
			step = n
		}
		m.Engine.Step(step)
		n -= step
		now := m.Engine.Now()
		if m.progress != nil {
			m.progress.SetCycle(uint64(now))
		}

		if w := m.Opt.WatchdogWindow; w > 0 {
			if cur := m.committedTotal(); cur != lastCommits {
				lastCommits = cur
				lastProgress = now
			} else if now-lastProgress >= w {
				return &StallError{Window: w, Diag: m.Diagnose()}
			}
		}
		if m.Opt.Audit && now-lastAudit >= DefaultStatsEpoch {
			lastAudit = now
			if err := m.AuditNow(); err != nil {
				return err
			}
		}
	}
	return nil
}

// RunChecked is Run with the StepChecked guards active across both the
// warm-up and measured regions.
func (m *Machine) RunChecked(ctx context.Context, warmup, measure sim.Cycle) error {
	if err := m.StepChecked(ctx, warmup); err != nil {
		return err
	}
	m.ResetStats()
	start := m.Engine.Now()
	err := m.StepChecked(ctx, measure)
	m.measured = m.Engine.Now() - start
	return err
}

func (m *Machine) committedTotal() uint64 {
	var sum uint64
	for _, c := range m.Cores {
		sum += c.Stats.Committed
	}
	return sum
}

// AuditNow checks the machine's state invariants between cycles and returns
// an *AuditError listing every violation found (nil when healthy):
//
//   - request conservation: every pooled request issued and not yet recycled
//     must sit in exactly one place the auditor can count (a delay slot, a
//     port egress queue, an MSC queue, or DRAM's response pipe);
//   - queue-capacity bounds: no queue may exceed its configured capacity;
//   - bandwidth credit: DRAM cannot have moved more lines since the last
//     stats reset than its channels' peak rate allows.
func (m *Machine) AuditNow() error {
	var v []string

	live := m.reqsIssued - m.reqsRecycled
	if acc := m.accountedReqs(); uint64(acc) != live {
		v = append(v, fmt.Sprintf("request conservation: %d live (issued %d - recycled %d) but %d accounted",
			live, m.reqsIssued, m.reqsRecycled, acc))
	}

	checkCap := func(name string, n, p, capN, capP int) {
		if n > capN {
			v = append(v, fmt.Sprintf("%s normal queue %d exceeds capacity %d", name, n, capN))
		}
		if p > capP {
			v = append(v, fmt.Sprintf("%s priority queue %d exceeds capacity %d", name, p, capP))
		}
	}
	icN, icP := m.ic.QueueLen()
	checkCap("interconnect", icN, icP, m.ic.Config().CapNormal, m.ic.Config().CapPrio)
	busN, busP := m.bus.QueueLen()
	checkCap("bus", busN, busP, m.bus.Config().CapNormal, m.bus.Config().CapPrio)
	bwN, bwP := m.bw.Station.QueueLen()
	checkCap("bwctrl", bwN, bwP, m.bw.Station.Config().CapNormal, m.bw.Station.Config().CapPrio)
	mcN, mcP := m.mc.QueueLen()
	checkCap("memctrl", mcN, mcP, m.mc.Config().CapNormal, m.mc.Config().CapPrio)
	// Egress admission is gated on len(out) < PortOutCap at issue time, but
	// the append lands a few cycles later via the delay wheel, so the queue
	// transiently overshoots the cap when downstream refuses to drain. The
	// structural bounds that DO hold: every demand load in the queue owns an
	// MSHR entry, stores are limited by the store queue, and prefetches are
	// admitted only below PortOutCap/2.
	outBound := m.Cfg.PortOutCap + m.Cfg.L1.MSHRs + m.Cfg.Core.SQSize + m.Cfg.PortOutCap/2
	for i, p := range m.ports {
		loads := 0
		for _, r := range p.out {
			if !r.IsWrite && !r.Prefetch {
				loads++
			}
		}
		if loads > m.Cfg.L1.MSHRs {
			v = append(v, fmt.Sprintf("core %d egress holds %d demand loads but only %d MSHRs exist", i, loads, m.Cfg.L1.MSHRs))
		}
		if len(p.out) > outBound {
			v = append(v, fmt.Sprintf("core %d egress queue %d exceeds structural bound %d", i, len(p.out), outBound))
		}
		if p.mshr.Len() > m.Cfg.L1.MSHRs {
			v = append(v, fmt.Sprintf("core %d MSHR occupancy %d exceeds %d", i, p.mshr.Len(), m.Cfg.L1.MSHRs))
		}
	}

	// Bandwidth credit: each channel moves at most one line per TBurst
	// cycles, with one in-flight burst of slack per channel at the window
	// edges.
	dcfg := m.mc.Config()
	elapsed := m.Engine.Now() - m.statsResetAt
	maxLines := (uint64(elapsed)/uint64(dcfg.TBurst) + 1) * uint64(dcfg.Channels)
	if moved := m.mc.Stats.LinesMoved; moved > maxLines {
		v = append(v, fmt.Sprintf("bandwidth credit: %d lines moved in %d cycles exceeds peak %d (%d channels, TBurst %d)",
			moved, elapsed, maxLines, dcfg.Channels, dcfg.TBurst))
	}

	if len(v) > 0 {
		return &AuditError{Violations: v, Diag: m.Diagnose()}
	}
	return nil
}
