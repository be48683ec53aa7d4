package machine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"pivot/internal/mem"
	"pivot/internal/sim"
	"pivot/internal/workload"
)

// wedgedMachine builds a co-location whose interconnect forwards nowhere:
// its downstream refuses every request, so no L2 miss is ever served,
// in-flight loads never complete and the cores stop committing once their
// ROBs back up behind the stalled heads.
func wedgedMachine(t *testing.T, opt Options) *Machine {
	t.Helper()
	tasks := append([]TaskSpec{lcTask(workload.Masstree, 2000)}, beTasks(workload.IBench, 3)...)
	m, err := New(KunpengConfig(4), opt, tasks)
	if err != nil {
		t.Fatal(err)
	}
	m.ic.SetDownstream(wedge{})
	return m
}

// wedge refuses every offer and never signals a retry.
type wedge struct{}

func (wedge) Accept(*mem.Req, sim.Cycle) bool    { return false }
func (wedge) SetRetry(func())                    {}
func (wedge) ChargeRefused(sim.Cycle, sim.Cycle) {}

func TestWatchdogAbortsStalledMachine(t *testing.T) {
	m := wedgedMachine(t, Options{Policy: PolicyDefault, WatchdogWindow: 5_000})
	err := m.StepChecked(context.Background(), 300_000)
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("wedged machine returned %v, want *StallError", err)
	}
	if se.Diag.Cycle == 0 || len(se.Diag.Cores) != 4 || se.Diag.IC.CapNormal == 0 {
		t.Fatalf("diagnostic snapshot incomplete: %+v", se.Diag)
	}
	// The operator dump must name the stations and show per-core ROB state.
	dump := se.Diag.String()
	for _, want := range []string{"core", "rob", "mshr", "interconnect", "memctrl"} {
		if !strings.Contains(dump, want) {
			t.Errorf("diagnostic dump missing %q:\n%s", want, dump)
		}
	}
	if d, ok := DiagOf(err); !ok || d.Cycle != se.Diag.Cycle {
		t.Fatal("DiagOf failed to extract the stall diagnostic")
	}
}

func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	tasks := append([]TaskSpec{lcTask(workload.Silo, 3000)}, beTasks(workload.IBench, 2)...)
	m, err := New(KunpengConfig(4), Options{Policy: PolicyDefault, WatchdogWindow: 5_000}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunChecked(context.Background(), 50_000, 100_000); err != nil {
		t.Fatalf("healthy run aborted: %v", err)
	}
	if m.MeasuredCycles() != 100_000 {
		t.Fatalf("measured %d cycles, want 100000", m.MeasuredCycles())
	}
}

func TestAuditHealthyRunConserves(t *testing.T) {
	tasks := append([]TaskSpec{lcTask(workload.Masstree, 3000)}, beTasks(workload.IBench, 3)...)
	m, err := New(KunpengConfig(4), Options{Policy: PolicyPIVOT, Audit: true}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunChecked(context.Background(), 100_000, 150_000); err != nil {
		t.Fatalf("audited healthy run failed: %v", err)
	}
	if err := m.AuditNow(); err != nil {
		t.Fatalf("final audit: %v", err)
	}
}

// TestAuditFlagsConservationViolation: a request the machine counts as
// issued but holds nowhere must fail the audit with a request-conservation
// violation and a populated diagnostic, both from AuditNow and from the
// audited stepping loop.
func TestAuditFlagsConservationViolation(t *testing.T) {
	tasks := append([]TaskSpec{lcTask(workload.Masstree, 3000)}, beTasks(workload.IBench, 3)...)
	m, err := New(KunpengConfig(4), Options{Policy: PolicyPIVOT, Audit: true}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunChecked(context.Background(), 10_000, 20_000); err != nil {
		t.Fatalf("audited healthy run failed: %v", err)
	}
	m.reqsIssued++ // a leaked request: issued, never recycled, queued nowhere
	check := func(what string, err error) {
		t.Helper()
		var ae *AuditError
		if !errors.As(err, &ae) {
			t.Fatalf("%s returned %v, want *AuditError", what, err)
		}
		if len(ae.Violations) == 0 || !strings.HasPrefix(ae.Violations[0], "request conservation") {
			t.Errorf("%s violations %q, want request conservation first", what, ae.Violations)
		}
		if ae.Diag.Cycle == 0 || len(ae.Diag.Cores) != 4 || ae.Diag.ReqsLive == 0 {
			t.Errorf("%s diagnostic incomplete: %+v", what, ae.Diag)
		}
	}
	check("AuditNow", m.AuditNow())
	check("StepChecked", m.StepChecked(context.Background(), 2*DefaultStatsEpoch))
}

func TestCycleBudgetAborts(t *testing.T) {
	tasks := beTasks(workload.IBench, 2)
	m, err := New(KunpengConfig(4), Options{Policy: PolicyDefault, MaxCycles: 20_000}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	err = m.StepChecked(context.Background(), 100_000)
	if !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("got %v, want cycle-budget abort", err)
	}
	if m.Engine.Now() > 25_000 {
		t.Fatalf("machine overran its budget to cycle %d", m.Engine.Now())
	}
}

func TestDeadlineAborts(t *testing.T) {
	tasks := beTasks(workload.IBench, 2)
	m, err := New(KunpengConfig(4), Options{Policy: PolicyDefault}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	time.Sleep(2 * time.Millisecond)
	err = m.StepChecked(ctx, 10_000_000)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", err)
	}
	if _, ok := DiagOf(err); !ok {
		t.Fatal("deadline abort carries no diagnostic")
	}
}

// StepChecked's granule stepping must not change simulated results: a
// checked run and a plain Run from the same seed produce identical stats.
func TestCheckedRunMatchesUnchecked(t *testing.T) {
	build := func() *Machine {
		tasks := append([]TaskSpec{lcTask(workload.Silo, 3000)}, beTasks(workload.IBench, 3)...)
		m, err := New(KunpengConfig(4), Options{Policy: PolicyPIVOT}, tasks)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := build()
	a.Run(60_000, 120_000)
	b := build()
	if err := b.RunChecked(context.Background(), 60_000, 120_000); err != nil {
		t.Fatal(err)
	}
	// Also an audited+watchdogged variant: guards are observers only.
	c := build()
	c.Opt.Audit = true
	c.Opt.WatchdogWindow = 5_000
	if err := c.RunChecked(context.Background(), 60_000, 120_000); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Machine{b, c} {
		if m.LCp95(0) != a.LCp95(0) || m.BECommitted() != a.BECommitted() || m.BWUtil() != a.BWUtil() {
			t.Fatalf("checked run diverged: p95 %d vs %d, BE %d vs %d, bw %v vs %v",
				m.LCp95(0), a.LCp95(0), m.BECommitted(), a.BECommitted(), m.BWUtil(), a.BWUtil())
		}
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := KunpengConfig(4)
	cfg.Cores = 0
	if _, err := New(cfg, Options{}, nil); err == nil {
		t.Fatal("zero-core config accepted")
	}
	cfg = KunpengConfig(4)
	cfg.L1.Ways = 0
	if _, err := New(cfg, Options{}, beTasks(workload.IBench, 1)); err == nil {
		t.Fatal("zero-way L1 accepted")
	}
	cfg = KunpengConfig(4)
	cfg.PortOutCap = 0
	if _, err := New(cfg, Options{}, beTasks(workload.IBench, 1)); err == nil {
		t.Fatal("zero egress capacity accepted")
	}
}
