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

// FlightRecorder returns the attached recorder (nil when disabled).
func (m *Machine) FlightRecorder() *flight.Recorder { return m.flightRec }

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
// function of simulated state, so it enumerates identically before a
// checkpoint snapshot and after the matching restore — which is what lets the
// flight recorder detach span chains from in-flight requests on snapshot and
// reattach them on resume.
func (m *Machine) forEachInFlight(f func(*mem.Req)) {
	for slot := range m.delays.wheel {
		for _, e := range m.delays.wheel[slot] {
			if e.req != nil {
				f(e.req)
			}
		}
	}
	for _, p := range m.ports {
		for _, r := range p.out {
			f(r)
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

// flightRestore reattaches a snapshot's recorder state and in-flight span
// chains after the component states have been applied.
func (m *Machine) flightRestore(s *flight.RecorderState) {
	if m.flightRec == nil || s == nil {
		return
	}
	live := m.flightRec.Restore(s)
	i := 0
	m.forEachInFlight(func(r *mem.Req) {
		if i < len(live) {
			r.Trace = live[i]
		} else {
			// More live requests than recorded chains can only happen with a
			// hand-edited snapshot; give the extras empty chains rather than
			// nil so their completions still record.
			r.Trace = m.flightRec.StartTrace()
		}
		i++
	})
}
