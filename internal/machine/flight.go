package machine

import (
	"pivot/internal/flight"
	"pivot/internal/mem"
	"pivot/internal/stats"
)

// This file wires the per-request flight recorder (internal/flight) into the
// machine, mirroring the EnableStats pattern: opt-in before the run starts,
// nil/flag fast path when disabled, purely observational when enabled.

// EnableFlight attaches a flight recorder. Call before running; calling twice
// keeps the first recorder. The recorder is an observer only: it never ticks,
// so it cannot affect quiescence or skip-ahead, and its presence is invisible
// to every simulated result.
func (m *Machine) EnableFlight(cfg flight.Config) {
	if m.flightRec != nil {
		return
	}
	m.flightRec = flight.New(cfg)
	m.flightOn = true
}

// FlightEnabled reports whether a flight recorder is attached.
func (m *Machine) FlightEnabled() bool { return m.flightRec != nil }

// FlightReport builds the tail-attribution report from everything recorded
// since the last ResetStats, or nil when the recorder is disabled.
func (m *Machine) FlightReport() *flight.Report {
	if m.flightRec == nil {
		return nil
	}
	return m.flightRec.Report()
}

// SetProgress attaches a live telemetry feed: StepChecked bumps it after
// every granule. The feed uses atomic counters, so an HTTP endpoint may read
// it concurrently with the simulation.
func (m *Machine) SetProgress(p *stats.Progress) { m.progress = p }

// forEachInFlight visits every live request the machine holds, in a fixed
// deterministic order (the delay wheel slot by slot, then per-core egress
// queues, then the MSC stations down the path, then DRAM). The walk is a pure
// function of simulated state, so two machines in the same state snapshot
// their in-flight span chains in the same order.
func (m *Machine) forEachInFlight(f func(*mem.Req)) {
	for slot := range m.delays.wheel {
		for _, e := range m.delays.wheel[slot] {
			if e.req != nil {
				f(e.req)
			}
		}
	}
	for _, p := range m.ports {
		for j := 0; j < p.out.Len(); j++ {
			f(*p.out.At(j))
		}
	}
	m.ic.EachReq(f)
	m.bus.EachReq(f)
	m.bw.Station.EachReq(f)
	m.mc.EachReq(f)
}

// flightSnapshot captures the recorder plus the span chains of in-flight
// requests (nil when the recorder is disabled).
func (m *Machine) flightSnapshot() *flight.RecorderState {
	if m.flightRec == nil {
		return nil
	}
	var live []*mem.Trace
	m.forEachInFlight(func(r *mem.Req) { live = append(live, r.Trace) })
	return m.flightRec.State(live)
}
