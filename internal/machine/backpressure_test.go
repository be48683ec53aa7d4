package machine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"pivot/internal/interconnect"
	"pivot/internal/mem"
	"pivot/internal/sim"
)

// refusingLink sits between a station and its downstream and refuses an
// offer whenever a hash of the cycle falls under per1024/1024, so the
// station keeps its head: back-pressure that no queue's capacity caused.
// The verdict is a pure function of the cycle, so a dense and a skip-ahead
// run of the same machine see the same refusals. It keeps the refusal
// contract: a hash refusal calls the station's retry hook at once (the
// link may accept on the very next cycle), a refusal from behind the link
// is the downstream's promise, and skipped re-offers are charged cycle by
// cycle to whichever of the two a dense re-offer would have met.
type refusingLink struct {
	down    interconnect.Downstream
	per1024 uint64
	refused uint64
	retry   func()
}

func (l *refusingLink) refuses(now sim.Cycle) bool {
	x := uint64(now) * 0x9E3779B97F4A7C15
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return x%1024 < l.per1024
}

func (l *refusingLink) Accept(r *mem.Req, now sim.Cycle) bool {
	if l.refuses(now) {
		l.refused++
		l.retry()
		return false
	}
	return l.down.Accept(r, now)
}

func (l *refusingLink) SetRetry(retry func()) {
	l.retry = retry
	l.down.SetRetry(retry)
}

func (l *refusingLink) ChargeRefused(from, to sim.Cycle) {
	for c := from; c < to; c++ {
		if l.refuses(c) {
			l.refused++
		} else {
			l.down.ChargeRefused(c, c+1)
		}
	}
}

// memLinks names every station-to-downstream hop of the memory path and
// puts a refusingLink on it.
var memLinks = []struct {
	name    string
	install func(m *Machine, l *refusingLink)
}{
	{"ic-llc", func(m *Machine, l *refusingLink) {
		l.down = llcLink{m}
		m.ic.SetDownstream(l)
	}},
	{"bus-bwctrl", func(m *Machine, l *refusingLink) {
		l.down = m.bw
		m.bus.SetDownstream(l)
	}},
	{"bwctrl-dram", func(m *Machine, l *refusingLink) {
		l.down = m.mc
		m.bw.SetDownstream(l)
	}},
}

// TestDownstreamRefusalConservesRequests: refusals on any hop are
// back-pressure, not loss. An audited run with a quarter of one hop's
// offers refused stays invariant-clean, keeps committing, and the refusals
// actually happened.
func TestDownstreamRefusalConservesRequests(t *testing.T) {
	for _, tc := range mixCases()[:2] {
		for _, link := range memLinks {
			t.Run(tc.name+"/"+link.name, func(t *testing.T) {
				opt := tc.opt
				opt.Audit = true
				m, err := New(KunpengConfig(4), opt, tc.tasks)
				if err != nil {
					t.Fatal(err)
				}
				l := &refusingLink{per1024: 256}
				link.install(m, l)
				if err := m.RunChecked(context.Background(), 20_000, 40_000); err != nil {
					t.Fatalf("audited run under refusals failed: %v", err)
				}
				if err := m.AuditNow(); err != nil {
					t.Fatalf("final audit under refusals: %v", err)
				}
				if l.refused == 0 {
					t.Fatal("link refused nothing; test exercises nothing")
				}
				if m.BECommitted() == 0 {
					t.Fatal("BE cores committed nothing under partial refusal")
				}
			})
		}
	}
}

// TestWatchdogAbortsWedgedLink: whichever hop of the memory path stops
// accepting, the watchdog turns the hang into a StallError whose
// diagnostic shows the stations.
func TestWatchdogAbortsWedgedLink(t *testing.T) {
	tc := mixCases()[0]
	for _, link := range memLinks {
		t.Run(link.name, func(t *testing.T) {
			opt := tc.opt
			opt.WatchdogWindow = 5_000
			m, err := New(KunpengConfig(4), opt, tc.tasks)
			if err != nil {
				t.Fatal(err)
			}
			link.install(m, &refusingLink{per1024: 1024})
			err = m.StepChecked(context.Background(), 300_000)
			var se *StallError
			if !errors.As(err, &se) {
				t.Fatalf("wedged %s returned %v, want *StallError", link.name, err)
			}
			if se.Diag.Cycle == 0 || len(se.Diag.Cores) != 4 || se.Diag.MemCtrl.CapNormal == 0 {
				t.Fatalf("diagnostic snapshot incomplete: %+v", se.Diag)
			}
		})
	}
}

// TestDownstreamRefusalSkipEquivalence: a station blocked on a refused head
// sleeps under skip-ahead until the link or the queue behind it signals a
// retry, and charges the skipped re-offers' refusals, so with refusals on
// any hop both engines finish byte-identical — link refusals included.
func TestDownstreamRefusalSkipEquivalence(t *testing.T) {
	for _, tc := range mixCases()[:2] {
		for _, link := range memLinks {
			t.Run(tc.name+"/"+link.name, func(t *testing.T) {
				run := func(dense bool) (*Machine, uint64) {
					m := tc.buildMode(t, dense)
					l := &refusingLink{per1024: 256}
					link.install(m, l)
					m.Run(mixWarmup, mixMeasure)
					return m, l.refused
				}
				d, dRefused := run(true)
				s, sRefused := run(false)
				if dRefused == 0 {
					t.Fatal("link refused nothing; test exercises nothing")
				}
				if sRefused != dRefused {
					t.Errorf("refusals differ: dense %d, skip %d", dRefused, sRefused)
				}
				if got, ref := stateBytes(t, s), stateBytes(t, d); !bytes.Equal(got, ref) {
					t.Errorf("skip state differs from dense (%d vs %d bytes)", len(got), len(ref))
				}
				if a, b := snapshotJSON(t, s), snapshotJSON(t, d); !bytes.Equal(a, b) {
					t.Error(fmt.Sprintf("result snapshots differ:\nskip  %s\ndense %s", a, b))
				}
			})
		}
	}
}
