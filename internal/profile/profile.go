// Package profile implements PIVOT's offline profiling phase (§IV-B): run
// the LC task against a stress BE workload, record per-static-load execution
// counts, LLC miss rates and ROB stall cycles, and select the *potential*
// performance-critical set. The selected set plays the role of the rewritten
// binary: a load "carries the extra instruction bit" iff its PC is in the
// set.
package profile

import (
	"sort"

	"pivot/internal/sim"
)

// LoadStat aggregates one static load's observed behaviour.
type LoadStat struct {
	PC          uint64
	Execs       uint64
	LLCMisses   uint64
	StallCycles uint64 // ROB-head stall cycles attributed to this PC
}

// MissRate returns the load's LLC miss rate.
func (s LoadStat) MissRate() float64 {
	if s.Execs == 0 {
		return 0
	}
	return float64(s.LLCMisses) / float64(s.Execs)
}

// Params are the three user-provided selection criteria with the paper's
// defaults (§IV-B).
type Params struct {
	// MinExecFreq is the minimal execution frequency relative to all loads
	// (default 0.5%): rarer loads are flagged normal regardless.
	MinExecFreq float64
	// MinLLCMissRate flags loads whose miss rate exceeds it (default 10%).
	MinLLCMissRate float64
	// TopStallFrac flags loads ranking in the top fraction by total ROB
	// stall cycles (default 5%).
	TopStallFrac float64
	// MaxSet caps the selected set, keeping the highest-stall loads. The
	// RRBP is a 64-entry tagless table, and §VI-C observes that at most ~64
	// potential loads are ever resident; a cap keeps a miss-heavy
	// application from flooding the table with aliases. Zero = uncapped.
	MaxSet int
}

// DefaultParams returns the paper's defaults: 0.5%, 10%, 5%, capped at the
// RRBP's 64 entries.
func DefaultParams() Params {
	return Params{MinExecFreq: 0.005, MinLLCMissRate: 0.10, TopStallFrac: 0.05, MaxSet: 64}
}

// CriticalSet is the output of offline profiling: the set of static loads
// whose potential-critical instruction bit is set by binary rewriting.
type CriticalSet map[uint64]bool

// Contains reports whether pc carries the potential-critical bit.
func (cs CriticalSet) Contains(pc uint64) bool { return cs[pc] }

// Profiler collects per-PC load statistics. Wire its OnLoadRetire into a
// core's hooks during the offline run.
type Profiler struct {
	stats      map[uint64]*LoadStat
	totalLoads uint64
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{stats: make(map[uint64]*LoadStat, 256)}
}

// OnLoadRetire records one retired load. It matches cpu.Hooks.OnLoadRetire.
func (p *Profiler) OnLoadRetire(pc uint64, stall sim.Cycle, llcMiss bool) {
	s := p.stats[pc]
	if s == nil {
		s = &LoadStat{PC: pc}
		p.stats[pc] = s
	}
	s.Execs++
	if llcMiss {
		s.LLCMisses++
	}
	s.StallCycles += uint64(stall)
	p.totalLoads++
}

// Stats returns the per-PC statistics sorted by descending stall cycles.
func (p *Profiler) Stats() []LoadStat {
	out := make([]LoadStat, 0, len(p.stats))
	for _, s := range p.stats {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StallCycles != out[j].StallCycles {
			return out[i].StallCycles > out[j].StallCycles
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// Select applies the paper's three-step selection (§IV-B Step 2):
//  1. loads below the minimal execution frequency are flagged normal;
//  2. remaining loads are flagged potentially critical if their LLC miss
//     rate exceeds MinLLCMissRate, or
//  3. if they rank within the top TopStallFrac of loads by stall cycles.
func (p *Profiler) Select(params Params) CriticalSet {
	out := make(CriticalSet)
	if p.totalLoads == 0 {
		return out
	}
	stats := p.Stats() // sorted by stall cycles, descending
	minExecs := params.MinExecFreq * float64(p.totalLoads)

	// Rank cut: top TopStallFrac of static loads by stall cycles.
	cut := int(params.TopStallFrac * float64(len(stats)))
	if cut < 1 {
		cut = 1
	}
	for rank, s := range stats {
		if params.MaxSet > 0 && len(out) >= params.MaxSet {
			break // stats are stall-sorted: everything below ranks lower
		}
		if float64(s.Execs) < minExecs {
			continue // insignificant to LC performance
		}
		if s.MissRate() > params.MinLLCMissRate || rank < cut {
			out[s.PC] = true
		}
	}
	return out
}

// CDF returns (loadFrac, stallFrac) pairs for the Figure 8 plot: the
// cumulative share of ROB stall cycles covered by the top-k static loads,
// k = 1..n, both axes as fractions.
func (p *Profiler) CDF() (loadFrac, stallFrac []float64) {
	stats := p.Stats()
	var total uint64
	for _, s := range stats {
		total += s.StallCycles
	}
	if total == 0 || len(stats) == 0 {
		return nil, nil
	}
	var cum uint64
	for i, s := range stats {
		cum += s.StallCycles
		loadFrac = append(loadFrac, float64(i+1)/float64(len(stats)))
		stallFrac = append(stallFrac, float64(cum)/float64(total))
	}
	return loadFrac, stallFrac
}
