package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"pivot/internal/exp"
	"pivot/internal/machine"
	"pivot/internal/profile"
	"pivot/internal/sim"
	"pivot/internal/workload"
)

// benchWorkload is one set of inputs the benchmark runs. rep performs one
// repetition: set-up, then the timed phase between beginTimed and endTimed.
type benchWorkload struct {
	name string
	why  string
	rep  func(r *rep)
}

var workloads = []benchWorkload{
	{"colo-copy", "Silo at a fixed open-loop rate plus 3 iBench copy threads under PIVOT: the memory path " +
		"stays saturated with sequential copies, so dram, interconnect, bwctrl and rrbp queues are deep", coloCopy},
	{"lc-idle", "Masstree alone on 8 cores at one request per 20k cycles: most cycles are idle, so the " +
		"engine's quiescence forecasts and clock jumps do the work and the memory queues sit empty", lcIdle},
	{"policy-sweep", "the exp harness users run: calibration, offline profiling, then six methods on Masstree " +
		"plus 3 graph-analytics threads, whose random gathers load dram unlike colo-copy", policySweep},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// statsEpoch is the stats sampling period of traced runs: longer than any
// run, so the registry's counters are read once at the end and the sampler
// never bounds a skip-ahead jump.
const statsEpoch sim.Cycle = 1 << 50

// Simulated windows of the plain-machine workloads, in cycles.
const (
	coloWarmup, coloMeasure = 200_000, 2_800_000
	idleWarmup, idleMeasure = 10_000_000, 190_000_000
	coloInterarrival        = 5_000
	idleInterarrival        = 20_000
)

// sweepMeasure lengthens the harness's measured window from Quick's 250k
// cycles (about 50 LC requests in the PIVOT run) to about 570 requests, so
// the QoS verdicts the sweep checks do not hinge on a handful of samples.
const sweepMeasure sim.Cycle = 3_000_000

// sweepMethods are the policy-sweep's methods in run order.
var sweepMethods = []exp.Method{
	exp.MethodDefault(), exp.MethodMPAM(), exp.MethodFullPath(),
	exp.MethodPIVOT(), exp.MethodPARTIES(), exp.MethodCLITE(),
}

func coloCopy(r *rep) {
	cfg := machine.KunpengConfig(4)
	silo := workload.LCApps()[workload.Silo]
	r.beginSetup()
	var pot profile.CriticalSet
	r.span("machine.ProfileLC", func() { pot = machine.ProfileLC(cfg, silo, 3, r.seed) })
	r.check("machine.ProfileLC", setFP(pot), nonEmpty(pot))
	tasks := []machine.TaskSpec{{Kind: machine.TaskLC, LC: silo,
		MeanInterarrival: coloInterarrival, Potential: pot, Seed: r.seed}}
	ibench := workload.BEApps()[workload.IBench]
	for i := 0; i < 3; i++ {
		tasks = append(tasks, machine.TaskSpec{Kind: machine.TaskBE, BE: ibench, Seed: r.seed + uint64(11+i)})
	}
	runMachine(r, cfg, machine.Options{Policy: machine.PolicyPIVOT}, tasks, coloWarmup, coloMeasure)
}

func lcIdle(r *rep) {
	tasks := []machine.TaskSpec{{Kind: machine.TaskLC, LC: workload.LCApps()[workload.Masstree],
		MeanInterarrival: idleInterarrival, Seed: r.seed}}
	r.beginSetup()
	runMachine(r, machine.KunpengConfig(8), machine.Options{Policy: machine.PolicyDefault}, tasks, idleWarmup, idleMeasure)
}

// runMachine builds a machine (the end of set-up), runs it as the timed
// phase and checks its outputs. be_ipc is the BE cores' aggregate IPC; on a
// machine with no BE task it is the whole machine's IPC instead, so the
// throughput axis is still reported.
func runMachine(r *rep, cfg machine.Config, opt machine.Options, tasks []machine.TaskSpec, warmup, measure sim.Cycle) {
	var m *machine.Machine
	var err error
	r.span("machine.New", func() { m, err = machine.New(cfg, opt, tasks) })
	if err != nil {
		r.check("Machine.Run", "", err)
		return
	}
	if r.traced() {
		m.EnableStats(statsEpoch, 1)
	}
	if err := r.beginTimed(); err != nil {
		r.check("Machine.Run", "", err)
		return
	}
	r.span("Machine.Run", func() { m.Run(warmup, measure) })
	errs := []error{r.endTimed(uint64(warmup + measure)), m.AuditNow()}

	var committed []uint64
	var all, be uint64
	for i, c := range m.Cores {
		committed = append(committed, c.Stats.Committed)
		all += c.Stats.Committed
		if m.Tasks()[i].Kind == machine.TaskBE {
			be += c.Stats.Committed
		}
	}
	var lat []string
	for i, lc := range m.LCTasks() {
		src := lc.Source
		if src.Completed() == 0 {
			errs = append(errs, fmt.Errorf("LC task %d completed no requests", i))
		}
		if n := src.DroppedLatencies(); n != 0 {
			errs = append(errs, fmt.Errorf("LC task %d dropped %d latency records", i, n))
		}
		r.requests += src.Completed()
		lat = append(lat, fmt.Sprintf("p95=%d completed=%d backlog=%d", m.LCp95(i), src.Completed(), src.QueueDepth()))
	}
	if len(m.LCTasks()) > 0 {
		r.p95 = m.LCp95(0)
	}
	r.beIPC = float64(be) / float64(m.MeasuredCycles())
	if be == 0 {
		r.beIPC = float64(all) / float64(m.MeasuredCycles())
	}
	if r.traced() {
		c := newSimCounts(m.StatsDump())
		r.counts = c.layerCounts(uint64(measure), m.BWUtil(), uint64(warmup+measure))
		errs = append(errs, c.lcCheck())
	}
	fp := fmt.Sprintf("%s committed=%v dram=%+v llc=%+v bwutil=%v",
		strings.Join(lat, " "), committed, m.DRAMStats(), m.LLC().Stats, m.BWUtil())
	r.check("Machine.Run", fp, errs...)
}

func policySweep(r *rep) {
	r.beginSetup()
	ctx := exp.NewContext(machine.KunpengConfig(4), exp.Quick())
	if r.traced() {
		ctx.StatsEpoch = statsEpoch
	}
	var cal *exp.AppCalib
	var err error
	r.span("ctx.Calib", func() { cal, err = ctx.Calib(workload.Masstree) })
	if err != nil {
		r.check("ctx.Calib", "", err)
		return
	}
	r.check("ctx.Calib", fmt.Sprintf("%+v", *cal), nil)
	var pot profile.CriticalSet
	r.span("ctx.Potential", func() { pot = ctx.Potential(workload.Masstree) })
	r.check("ctx.Potential", setFP(pot), nonEmpty(pot))

	if err := r.beginTimed(); err != nil {
		r.check("ctx.Run", "", err)
		return
	}
	res := make([]exp.RunResult, len(sweepMethods))
	errs := make([][]error, len(sweepMethods))
	cycles := uint64(ctx.Scale.Warmup+sweepMeasure) * uint64(len(sweepMethods))
	for i, mth := range sweepMethods {
		spec := exp.RunSpec{Method: mth, Seed: r.seed, Measure: sweepMeasure,
			LCs: []exp.LCSpec{{App: workload.Masstree, LoadPct: 70}},
			BEs: []exp.BESpec{{App: workload.GraphAn, Threads: 3}}}
		var err error
		r.span("ctx.Run/"+mth.Name, func() { res[i], err = ctx.Run(spec) })
		errs[i] = append(errs[i], err)
		if err == nil && (len(res[i].P95) == 0 || res[i].P95[0] == 0) {
			errs[i] = append(errs[i], errors.New("LC task recorded no latencies"))
		}
		if r.traced() && err == nil {
			c := newSimCounts(*ctx.LastStats())
			errs[i] = append(errs[i], c.lcCheck())
			if mth.Policy == machine.PolicyPIVOT {
				r.counts = c.layerCounts(uint64(sweepMeasure), res[i].BWUtil, cycles)
			}
		}
	}
	timedErr := r.endTimed(cycles)

	claim, verdict := sweepClaim(res)
	r.verdict = verdict
	for i, mth := range sweepMethods {
		errs[i] = append(errs[i], claim[i])
		r.check("ctx.Run/"+mth.Name, fmt.Sprintf("%+v", res[i]), errs[i]...)
	}
	r.fail(timedErr)
	pivot := res[methodIndex("PIVOT")]
	if len(pivot.P95) > 0 {
		r.p95, r.beIPC = pivot.P95[0], pivot.BEIPC
	}
}

func methodIndex(name string) int {
	for i, m := range sweepMethods {
		if m.Name == name {
			return i
		}
	}
	panic("unknown method " + name)
}

// sweepClaim checks the paper's Fig 1/Fig 13 ordering on one sweep and
// returns one error per method (nil where it holds) plus a verdict line.
// Gated: Default and MPAM miss QoS, FullPath and PIVOT meet it, and PIVOT
// leaves BE more throughput than FullPath. Recorded but not gated: whether
// PARTIES and CLITE meet QoS and whether PIVOT's be_ipc is the highest among
// all methods that do, since the managers' verdicts change with the seed.
func sweepClaim(res []exp.RunResult) ([]error, string) {
	errs := make([]error, len(res))
	met := func(i int) bool { return len(res[i].QoSMet) > 0 && res[i].AllQoS }
	for _, name := range []string{"Default", "MPAM"} {
		if i := methodIndex(name); met(i) {
			errs[i] = fmt.Errorf("claim: %s meets QoS (p95 %v), expected a miss", name, res[i].P95)
		}
	}
	for _, name := range []string{"FullPath", "PIVOT"} {
		if i := methodIndex(name); !met(i) {
			errs[i] = fmt.Errorf("claim: %s misses QoS (p95 %v)", name, res[i].P95)
		}
	}
	pv, fp := methodIndex("PIVOT"), methodIndex("FullPath")
	if res[pv].BEIPC <= res[fp].BEIPC {
		errs[pv] = errors.Join(errs[pv], fmt.Errorf("claim: PIVOT be_ipc %.4f not above FullPath's %.4f",
			res[pv].BEIPC, res[fp].BEIPC))
	}

	best := true
	var parts []string
	for i, m := range sweepMethods {
		verdict := "misses"
		if met(i) {
			verdict = "meets"
		}
		parts = append(parts, fmt.Sprintf("%s %s be_ipc %.4f", m.Name, verdict, res[i].BEIPC))
		if i != pv && met(i) && res[i].BEIPC >= res[pv].BEIPC {
			best = false
		}
	}
	return errs, fmt.Sprintf("claim: %s; PIVOT highest be_ipc among methods meeting QoS: %v",
		strings.Join(parts, ", "), best)
}

func nonEmpty(s profile.CriticalSet) error {
	if len(s) == 0 {
		return errors.New("empty potential-critical set")
	}
	return nil
}

// setFP renders a potential-critical set in PC order.
func setFP(s profile.CriticalSet) string {
	pcs := make([]uint64, 0, len(s))
	for pc, on := range s {
		if on {
			pcs = append(pcs, pc)
		}
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	return fmt.Sprintf("%x", pcs)
}
