// Command perfbench is the repository's benchmark: it runs one workload
// through the public APIs of the machine and exp packages for a fixed host
// time, checks every simulation's output, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics) as one JSON line.
//
//	go build -o perfbench . && ./perfbench -workload colo-copy -seed 1 -seconds 20 -trace 0
//
// Every repetition sets the workload up and runs its timed phase once; the
// reported host times are medians over repetitions. All simulations use the
// serial skip-ahead engine.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of an untraced run (-trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"lc_p95_cycles", "cycles", "lower"},
	{"be_ipc", "IPC", "higher"},
}

// perLayer are the metrics of a traced run (-trace 1). A layer that does not
// run on a workload reads 0.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{l + ".host_ns_per_cycle", "ns/cycle", "lower"})
	}
	return append(out, []metricDef{
		{"manager.run_host_s", "s", "lower"},
		{"profile.host_s", "s", "lower"},
		{"exp.calib_host_s", "s", "lower"},
		{"machine.new_host_ms", "ms", "lower"},
		{"runtime.alloc_mb", "MiB", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"interconnect.mean_wait_cycles", "cycles", "lower"},
		{"bwctrl.mean_wait_cycles", "cycles", "lower"},
		{"dram.lc_mean_wait_cycles", "cycles", "lower"},
		{"dram.be_mean_wait_cycles", "cycles", "lower"},
		{"dram.row_hit_rate", "frac", "higher"},
		{"dram.bus_busy_frac", "frac", "higher"},
		{"cache.l1_miss_rate", "frac", "lower"},
		{"cache.llc_miss_rate", "frac", "lower"},
		{"cpu.load_stall_frac", "frac", "lower"},
		{"cpu.committed_minstr", "Minstr", "higher"},
		{"sim.cycles", "cycles", "higher"},
		{"loadgen.requests", "count", "higher"},
		{"loadgen.backlog_end", "count", "lower"},
		{"pprof.samples", "count", "higher"},
		{"trace.run_s", "s", "lower"},
		{"trace.overhead_s", "s", "lower"},
	}...)
}()

// spanMetrics derive per-layer host times from the spans of traced
// repetitions: the metric is the summed duration of the named spans, scaled.
var spanMetrics = []struct {
	metric string
	spans  []string
	scale  float64
}{
	{"manager.run_host_s", []string{"ctx.Run/PARTIES", "ctx.Run/CLITE"}, 1},
	{"profile.host_s", []string{"machine.ProfileLC", "ctx.Potential"}, 1},
	{"exp.calib_host_s", []string{"ctx.Calib"}, 1},
	{"machine.new_host_ms", []string{"machine.New"}, 1e3},
}

// minReps and minTraced are the fewest untraced and traced repetitions a
// run makes, however long they take.
const (
	minReps   = 3
	minTraced = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fl.Uint64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 10, "host seconds to keep repeating the workload")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced repetitions")
	traceDir := fl.String("trace-dir", "", "directory for the traced run's span and fold record (none when empty)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}

	host := hostStamp()
	hj, _ := json.Marshal(host) // a map of strings always marshals
	fmt.Fprintf(stdout, "# host %s\n", hj)
	fmt.Fprintf(stdout, "# workload %s seed %d: %s\n", w.name, *seed, w.why)

	reps := repeat(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	checkDeterminism(reps)
	for _, r := range reps {
		for _, o := range r.ops {
			if o.err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.name, o.err)
			}
		}
	}

	var metrics map[string]float64
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		var err error
		if metrics, err = layerMetrics(reps); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		if *traceDir != "" {
			if err := writeTrace(*traceDir, w.name, *seed, host, reps, metrics); err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
		}
	} else {
		metrics = endToEndMetrics(reps)
	}
	if n := reps[0].requests; n > 0 {
		fmt.Fprintf(stdout, "# lc_p95_cycles is over %d LC requests\n", n)
	}
	if v := reps[0].verdict; v != "" {
		fmt.Fprintf(stdout, "# %s\n", v)
	}
	res := summarize(reps, defs, metrics)
	for _, d := range defs {
		fmt.Fprintf(stdout, "# %-32s %14.6g %s\n", d.Name, metrics[d.Name], d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// repeat runs repetitions until the budget is spent and the minimum
// repetitions are done. In trace mode untraced and traced repetitions
// alternate, so host drift hits both alike and their difference is the
// tracing overhead.
func repeat(w benchWorkload, seed uint64, budget time.Duration, trace bool) []*rep {
	var reps []*rep
	start := time.Now()
	plain, traced := 0, 0
	for i := 0; ; i++ {
		r := &rep{seed: seed}
		if trace && i%2 == 1 {
			r.spans = &spanLog{t0: start}
			traced++
		} else {
			plain++
		}
		runtime.GC() // every repetition starts from a collected heap
		w.rep(r)
		reps = append(reps, r)
		if time.Since(start) >= budget && plain >= minReps && (!trace || traced >= minTraced) {
			return reps
		}
	}
}

// checkDeterminism fails every operation whose simulated outputs differ from
// the same operation in the first repetition, and every traced repetition
// whose simulated per-layer counts differ from the first traced one's.
func checkDeterminism(reps []*rep) {
	first := reps[0]
	var firstTraced *rep
	for _, r := range reps[1:] {
		if len(r.ops) != len(first.ops) {
			r.fail(fmt.Errorf("determinism: %d operations, first repetition had %d", len(r.ops), len(first.ops)))
			continue
		}
		for i := range r.ops {
			if r.ops[i].fp != first.ops[i].fp {
				r.ops[i].err = errors.Join(r.ops[i].err,
					fmt.Errorf("determinism: outputs differ from the first repetition:\n  %s\n  %s", r.ops[i].fp, first.ops[i].fp))
			}
		}
	}
	for _, r := range reps {
		if r.spans == nil {
			continue
		}
		if firstTraced == nil {
			firstTraced = r
			continue
		}
		for k, v := range firstTraced.counts {
			if r.counts[k] != v {
				r.fail(fmt.Errorf("determinism: count %s = %v, first traced repetition had %v", k, r.counts[k], v))
			}
		}
	}
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func summarize(reps []*rep, defs []metricDef, vals map[string]float64) result {
	res := result{Metrics: make(map[string]metricValue, len(defs))}
	for _, r := range reps {
		for _, o := range r.ops {
			res.Attempted++
			if o.err != nil {
				res.Failed++
			}
		}
	}
	res.Correct = res.Attempted > 0 && res.Failed == 0
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return res
}

// endToEndMetrics reports the untraced repetitions: median host times, the
// process's peak resident memory, and the simulated outcome (identical in
// every repetition, or checkDeterminism has failed the run).
func endToEndMetrics(reps []*rep) map[string]float64 {
	var setup, timed []float64
	for _, r := range reps {
		if r.spans == nil {
			setup = append(setup, r.setup.Seconds())
			timed = append(timed, r.timed.Seconds())
		}
	}
	return map[string]float64{
		"setup_s":       median(setup),
		"run_s":         median(timed),
		"peak_rss_mb":   peakRSSMiB(),
		"lc_p95_cycles": float64(reps[0].p95),
		"be_ipc":        reps[0].beIPC,
	}
}

// layerMetrics reports the traced repetitions: profile time per layer over
// simulated cycles, span and allocation medians, the simulated counts and
// the tracing overhead against the interleaved untraced repetitions.
func layerMetrics(reps []*rep) (map[string]float64, error) {
	out := make(map[string]float64)
	var fold layerFold
	var cycles uint64
	var plain, traced, alloc, gcs []float64
	spanSums := make(map[string][]float64)
	var counts map[string]float64
	for _, r := range reps {
		if r.spans == nil {
			plain = append(plain, r.timed.Seconds())
			continue
		}
		// The folded layers must account for every sample of the phase.
		if r.fold.Samples == 0 || r.fold.foldedNS() != r.fold.TotalNS {
			return nil, fmt.Errorf("profile fold: %d samples, %d of %d ns folded",
				r.fold.Samples, r.fold.foldedNS(), r.fold.TotalNS)
		}
		fold.add(r.fold)
		cycles += r.cycles
		traced = append(traced, r.timed.Seconds())
		alloc = append(alloc, float64(r.allocBytes)/(1<<20))
		gcs = append(gcs, float64(r.gcCycles))
		byName := r.spans.totals()
		for _, sm := range spanMetrics {
			var s float64
			for _, n := range sm.spans {
				s += byName[n]
			}
			spanSums[sm.metric] = append(spanSums[sm.metric], s*sm.scale)
		}
		if counts == nil {
			counts = r.counts
		}
	}
	if cycles == 0 {
		return nil, errors.New("traced repetitions simulated no cycles")
	}
	for _, l := range layers {
		out[l+".host_ns_per_cycle"] = float64(fold.NS[l]) / float64(cycles)
	}
	for m, v := range spanSums {
		out[m] = median(v)
	}
	for k, v := range counts {
		out[k] = v
	}
	out["runtime.alloc_mb"] = median(alloc)
	out["runtime.gc_cycles"] = median(gcs)
	out["pprof.samples"] = float64(fold.Samples)
	out["trace.run_s"] = median(traced)
	out["trace.overhead_s"] = median(traced) - median(plain)
	return out, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMiB is the process's peak resident set size (ru_maxrss is in KiB
// on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostStamp identifies the host, toolchain, code and engine behind a result,
// so later comparisons can be checked to be like for like.
func hostStamp() map[string]string {
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit(),
		"src_sha256": srcDigest("."),
		"engine":     "serial skip-ahead (Options.Parallel=0, Dense=false)",
	}
}

// commit is the VCS revision stamped into the binary ("none" when it was
// built outside a repository).
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "none"
	}
	rev, dirty := "none", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// srcDigest hashes the simulator's Go sources and go.mod under root (the
// repository root; hidden directories and the benchmark's own are skipped),
// identifying the code even where no VCS revision exists.
func srcDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// writeTrace saves the traced run's record: host stamp, every repetition's
// spans and profile fold, and the per-layer metrics.
func writeTrace(dir, name string, seed uint64, host map[string]string, reps []*rep, metrics map[string]float64) error {
	type repRecord struct {
		Traced  bool             `json:"traced"`
		SetupS  float64          `json:"setup_s"`
		RunS    float64          `json:"run_s"`
		Spans   []span           `json:"spans,omitempty"`
		FoldNS  map[string]int64 `json:"fold_ns,omitempty"`
		Cycles  uint64           `json:"sim_cycles"`
		Verdict string           `json:"verdict,omitempty"`
	}
	rec := struct {
		Host     map[string]string  `json:"host"`
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		Reps     []repRecord        `json:"repetitions"`
		Metrics  map[string]float64 `json:"metrics"`
	}{Host: host, Workload: name, Seed: seed, Metrics: metrics}
	for _, r := range reps {
		rr := repRecord{Traced: r.spans != nil, SetupS: r.setup.Seconds(), RunS: r.timed.Seconds(),
			Cycles: r.cycles, Verdict: r.verdict}
		if r.spans != nil {
			rr.Spans, rr.FoldNS = r.spans.spans, r.fold.NS
		}
		rec.Reps = append(rec.Reps, rr)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(rec); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", name, seed)), buf.Bytes(), 0o644)
}
