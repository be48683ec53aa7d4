package machine

import (
	"fmt"

	"pivot/internal/mem"
	"pivot/internal/sim"
	"pivot/internal/stats"
)

// DefaultStatsEpoch is the sampling period used when EnableStats is given a
// zero epoch: fine enough to resolve the bandwidth-monitor windows (100k
// cycles) with ~20 points each, coarse enough that a full-scale run stays
// within the sample ring.
const DefaultStatsEpoch sim.Cycle = 5_000

// EnableStats builds the machine's gem5-style stats registry: every
// component registers its instruments, an epoch sampler snapshots them from
// the tick loop every epochCycles into a ring of ringCap samples (zeros
// select DefaultStatsEpoch / stats.DefaultRingCap), and StatsDump /
// BuildTimeline export the result. Instruments only *read* component state,
// so enabling stats cannot change any simulated outcome.
//
// Call after New and before Run; calling twice is a no-op.
func (m *Machine) EnableStats(epochCycles sim.Cycle, ringCap int) {
	if m.statsReg != nil {
		return
	}
	if epochCycles == 0 {
		epochCycles = DefaultStatsEpoch
	}
	reg := stats.NewRegistry()

	for i, c := range m.Cores {
		c.RegisterStats(reg, fmt.Sprintf("cpu%d", i))
	}
	for i, p := range m.ports {
		p.l1.RegisterStats(reg, fmt.Sprintf("cpu%d.l1", i))
		p.l2.RegisterStats(reg, fmt.Sprintf("cpu%d.l2", i))
		p.mshr.RegisterStats(reg, fmt.Sprintf("cpu%d.l1.mshr", i))
		port := p
		reg.Gauge(fmt.Sprintf("cpu%d.port_out", i),
			func() float64 { return float64(port.out.Len()) })
	}
	m.llc.RegisterStats(reg, "llc")
	m.ic.RegisterStats(reg, "ic")
	m.bus.RegisterStats(reg, "bus")
	m.bw.RegisterStats(reg, "bwctrl", len(m.tasks))
	m.mc.RegisterStats(reg, "dram")
	for _, lc := range m.lcs {
		if lc.RRBP != nil {
			lc.RRBP.RegisterStats(reg, fmt.Sprintf("rrbp%d", lc.Core))
		}
		src := lc.Source
		reg.Gauge(fmt.Sprintf("machine.lc%d.backlog", lc.Core),
			func() float64 { return float64(src.QueueDepth()) })
		reg.Counter(fmt.Sprintf("machine.lc%d.completed", lc.Core),
			func() uint64 { return src.Completed() })
		reg.Counter(fmt.Sprintf("machine.lc%d.lat_dropped", lc.Core),
			func() uint64 { return src.DroppedLatencies() })
		// Shaped load models additionally expose the instantaneous arrival
		// rate and per-phase completions, so timelines attribute tail shifts
		// to the load phase that caused them.
		if src.Model().NumPhases() > 1 {
			reg.Gauge(fmt.Sprintf("machine.lc%d.load_rate_mcycle", lc.Core),
				func() float64 { return src.RatePerMCycle(m.statsNow) })
			for p := 0; p < src.Model().NumPhases(); p++ {
				phase := p
				reg.Counter(fmt.Sprintf("machine.lc%d.phase%d.completed", lc.Core, phase),
					func() uint64 { return src.PhaseCompleted()[phase] })
			}
		}
	}
	m.latDist = reg.Distribution("machine.lc_mem_latency", 0)

	m.statsReg = reg
	m.statsOn = true
	m.sampler = stats.NewSampler(reg, uint64(epochCycles), ringCap)
	// Registered after every component, so each sample sees the cycle's
	// final state. The ticker forecasts its next epoch boundary so skip-ahead
	// never jumps over a sample point.
	m.Engine.Register(&samplerTicker{m: m, epoch: epochCycles})
}

// samplerTicker drives the epoch sampler and bounds engine skips to epoch
// boundaries: samples must land at exactly the same cycles as in a dense
// run, or the sampled time series (and therefore exported timelines) would
// diverge between the two modes.
type samplerTicker struct {
	m     *Machine
	epoch sim.Cycle
}

// Tick samples at each epoch boundary and sleeps until the next one.
func (s *samplerTicker) Tick(now sim.Cycle) sim.Cycle {
	if now%s.epoch == 0 {
		// The sample reads every component's counters: bring the sleepers'
		// compensation up to this cycle first.
		s.m.Engine.Settle()
		s.m.statsNow = now
		s.m.sampler.Sample(uint64(now))
	}
	return now + s.epoch - now%s.epoch
}

// StatsEnabled reports whether EnableStats has been called.
func (m *Machine) StatsEnabled() bool { return m.statsReg != nil }

// StatsRegistry exposes the instrument registry (nil until EnableStats).
func (m *Machine) StatsRegistry() *stats.Registry { return m.statsReg }

// StatsSampler exposes the epoch sampler (nil until EnableStats).
func (m *Machine) StatsSampler() *stats.Sampler { return m.sampler }

// StatsDump snapshots the registry and sampled series. It panics if
// EnableStats was never called.
func (m *Machine) StatsDump() stats.Dump {
	if m.statsReg == nil {
		panic("machine: StatsDump before EnableStats")
	}
	return m.statsReg.Dump(m.sampler)
}

// BuildTimeline renders the run as a Chrome trace-event timeline under the
// given pid/name: one duration event per sampled LC memory request
// (Options.SampleRequests bounds how many were recorded), plus one counter
// track per gauge/rate instrument charting the epoch series. The result
// loads directly in ui.perfetto.dev or chrome://tracing.
func (m *Machine) BuildTimeline(pid int, name string) *stats.Timeline {
	tl := stats.NewTimeline()
	m.AppendTimeline(tl, pid, name)
	return tl
}

// AppendTimeline adds this run's tracks to an existing timeline (multi-run
// comparisons distinguish runs by pid).
func (m *Machine) AppendTimeline(tl *stats.Timeline, pid int, name string) {
	tl.ProcessName(pid, name)
	named := map[int]bool{}
	for _, rec := range m.sampled {
		core := rec.CoreID
		if !named[core] {
			named[core] = true
			tl.ThreadName(pid, core, fmt.Sprintf("core %d LC requests", core))
		}
		cat := "lc-load"
		if rec.Critical {
			cat = "lc-load-critical"
		}
		args := map[string]any{"critical": rec.Critical}
		for c := mem.CompL1; c < mem.NumComponents; c++ {
			if v := rec.Split[c]; v > 0 {
				args[c.String()] = v
			}
		}
		tl.Complete(pid, core, fmt.Sprintf("pc %#x", rec.PC), cat,
			rec.IssuedAt, rec.CompletedAt-rec.IssuedAt, args)
	}
	if m.sampler != nil {
		tl.AddSeries(pid, m.statsReg, m.sampler, func(in *stats.Instrument) bool {
			return in.Kind() == stats.KindGauge || in.Kind() == stats.KindRate
		})
	}
}
