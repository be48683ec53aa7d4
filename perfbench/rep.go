package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"pivot/internal/stats"
)

// op is one operation of a repetition: a simulation run (a machine run, a
// calibration, a profiling pass or a ctx.Run) with its output checks.
type op struct {
	name string
	// fp renders every simulated output the operation produced; a later
	// repetition of the same seed must reproduce it exactly.
	fp  string
	err error
}

// rep is one repetition: the workload's set-up, then its timed phase once.
type rep struct {
	seed  uint64
	spans *spanLog // nil in untraced repetitions

	ops []op

	start, timedAt       time.Time
	setup, timed         time.Duration
	setupSpan, timedSpan int

	// The workload's simulated outcome.
	p95      uint32
	requests uint64
	beIPC    float64
	verdict  string // paper-claim summary, where the workload has one

	// Traced repetitions only.
	cycles     uint64 // simulated cycles in the timed phase
	counts     map[string]float64
	fold       layerFold
	allocBytes uint64
	gcCycles   uint32
	profBuf    bytes.Buffer
	ms0        runtime.MemStats
}

// check records one operation.
func (r *rep) check(name, fp string, errs ...error) {
	r.ops = append(r.ops, op{name: name, fp: fp, err: errors.Join(errs...)})
}

// fail adds a failure to the repetition's last operation.
func (r *rep) fail(err error) {
	if len(r.ops) == 0 {
		r.ops = append(r.ops, op{name: "repetition"})
	}
	last := &r.ops[len(r.ops)-1]
	last.err = errors.Join(last.err, err)
}

// traced reports whether the repetition records spans, a CPU profile and
// stats.
func (r *rep) traced() bool { return r.spans != nil }

// span runs f, recording it as a span in traced repetitions.
func (r *rep) span(name string, f func()) {
	id := r.spans.begin(name)
	f()
	r.spans.end(id)
}

// beginSetup marks the start of the repetition.
func (r *rep) beginSetup() {
	r.start = time.Now()
	r.setupSpan = r.spans.begin("setup")
}

// beginTimed ends set-up and starts the timed phase; traced repetitions also
// start the CPU profile here.
func (r *rep) beginTimed() error {
	if r.traced() {
		runtime.ReadMemStats(&r.ms0)
		if err := pprof.StartCPUProfile(&r.profBuf); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	r.timedAt = time.Now()
	r.setup = r.timedAt.Sub(r.start)
	r.spans.end(r.setupSpan)
	r.timedSpan = r.spans.begin("timed")
	return nil
}

// endTimed ends the timed phase, which simulated the given cycles.
func (r *rep) endTimed(cycles uint64) error {
	r.timed = time.Since(r.timedAt)
	r.spans.end(r.timedSpan)
	r.cycles = cycles
	if !r.traced() {
		return nil
	}
	pprof.StopCPUProfile()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	r.allocBytes = ms1.TotalAlloc - r.ms0.TotalAlloc
	r.gcCycles = ms1.NumGC - r.ms0.NumGC
	f, err := foldProfile(r.profBuf.Bytes())
	r.fold = f
	return err
}

// span is one timed call the benchmark made into a layer. Times are seconds
// since the run started; Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
}

// spanLog keeps a repetition's spans in memory; they are written out when
// the run ends. A nil log records nothing.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int
}

func (l *spanLog) begin(name string) int {
	if l == nil {
		return -1
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{Name: name, Start: time.Since(l.t0).Seconds(), Parent: parent})
	id := len(l.spans) - 1
	l.open = append(l.open, id)
	return id
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	l.spans[id].End = time.Since(l.t0).Seconds()
	l.open = l.open[:len(l.open)-1]
}

// totals sums span durations by name.
func (l *spanLog) totals() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range l.spans {
		out[s.Name] += s.End - s.Start
	}
	return out
}

// simCounts are one machine's stats registry values by instrument name,
// covering its measured region.
type simCounts map[string]float64

func newSimCounts(d stats.Dump) simCounts {
	c := make(simCounts, len(d.Instruments))
	for _, in := range d.Instruments {
		c[in.Name] = in.Value
	}
	return c
}

// sum adds every instrument whose name matches pattern, where a "#" in the
// pattern stands for a decimal index ("cpu#.committed").
func (c simCounts) sum(pattern string) float64 {
	var s float64
	for name, v := range c {
		if matchIndexed(pattern, name) {
			s += v
		}
	}
	return s
}

// matchIndexed matches name against pattern, a "#" matching one or more
// digits.
func matchIndexed(pattern, name string) bool {
	pre, post, ok := strings.Cut(pattern, "#")
	if !ok {
		return pattern == name
	}
	if !strings.HasPrefix(name, pre) || !strings.HasSuffix(name, post) || len(name) < len(pre)+len(post)+1 {
		return false
	}
	_, err := strconv.ParseUint(name[len(pre):len(name)-len(post)], 10, 32)
	return err == nil
}

// count reports how many instruments match pattern.
func (c simCounts) count(pattern string) int {
	n := 0
	for name := range c {
		if matchIndexed(pattern, name) {
			n++
		}
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounts derives the per-layer count metrics. measured is the measured
// region in cycles, busy the DRAM bus utilisation over it, and timedCycles
// the cycles the timed phase simulated (warm-up included).
func (c simCounts) layerCounts(measured uint64, busy float64, timedCycles uint64) map[string]float64 {
	cores := float64(c.count("cpu#.committed"))
	l1Miss := c.sum("cpu#.l1.misses")
	return map[string]float64{
		"interconnect.mean_wait_cycles": ratio(c["ic.wait_cycles"]+c["bus.wait_cycles"], c["ic.forwarded"]+c["bus.forwarded"]),
		"bwctrl.mean_wait_cycles":       ratio(c["bwctrl.wait_cycles"], c["bwctrl.forwarded"]),
		"dram.lc_mean_wait_cycles":      ratio(c["dram.wait_cycles_lc"], c["dram.served"]),
		"dram.be_mean_wait_cycles":      ratio(c["dram.wait_cycles_be"], c["dram.served"]),
		"dram.row_hit_rate":             ratio(c["dram.row_hits"], c["dram.row_hits"]+c["dram.row_misses"]),
		"dram.bus_busy_frac":            busy,
		"cache.l1_miss_rate":            ratio(l1Miss, l1Miss+c.sum("cpu#.l1.hits")),
		"cache.llc_miss_rate":           ratio(c["llc.misses"], c["llc.misses"]+c["llc.hits"]),
		"cpu.load_stall_frac":           ratio(c.sum("cpu#.load_stall_cycles"), cores*float64(measured)),
		"cpu.committed_minstr":          c.sum("cpu#.committed") / 1e6,
		"sim.cycles":                    float64(timedCycles),
		"loadgen.requests":              c.sum("machine.lc#.completed"),
		"loadgen.backlog_end":           c.sum("machine.lc#.backlog"),
	}
}

// lcCheck is the output check every LC task must pass: it completed
// requests and kept every latency record.
func (c simCounts) lcCheck() error {
	var errs []error
	if c.count("machine.lc#.completed") == 0 {
		errs = append(errs, errors.New("no LC task in the stats registry"))
	}
	for name, v := range c {
		switch {
		case matchIndexed("machine.lc#.completed", name) && v == 0:
			errs = append(errs, fmt.Errorf("%s = 0", name))
		case matchIndexed("machine.lc#.lat_dropped", name) && v != 0:
			errs = append(errs, fmt.Errorf("%s = %v", name, v))
		}
	}
	return errors.Join(errs...)
}
