package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"pivot/internal/exp"
)

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"pivot/internal/dram.(*Controller).startActivates":                         "dram",
		"pivot/internal/interconnect.(*Station).pickNormal":                        "interconnect",
		"pivot/internal/machine.(*Machine).retireHook.func1":                       "machine",
		"pivot/internal/load.(*stationaryModel).NextArrival":                       "loadgen",
		"pivot/internal/workload.(*ReqGen).Next":                                   "loadgen",
		"pivot/internal/sim.(*Engine).Step":                                        "sim",
		"pivot/internal/mem.(*Req).Hop":                                            "other",
		"runtime.mallocgc":                                                         "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                             "runtime",
		"runtime/internal/atomic.Xadd":                                             "runtime",
		"sort.Slice":                                                               "other",
		"slices.SortFunc[go.shape.[]pivot/internal/dram.entry,go.shape.struct {}]": "other",
		"pivot/internal/cache.(*Set[go.shape.int]).Lookup":                         "cache",
		"": "other",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(num int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(num int, vs ...uint64) {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	p.bytes(num, inner)
}

// testProfile encodes a CPU profile with three functions. Location 1 is
// dram code inlined into a machine function, location 2 is runtime code
// and location 3 a package the fold does not know.
func testProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"pivot/internal/dram.(*Controller).claim",
		"pivot/internal/machine.(*Machine).auxTick",
		"runtime.mallocgc", "math.Exp"}
	var p pb
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} {
		var vt pb
		vt.varint(1, st[0])
		vt.varint(2, st[1])
		p.bytes(1, vt.b)
	}
	// Samples: location ids (leaf first) and [count, cpu ns]; the first is
	// packed, the second written as repeated fields.
	var s1 pb
	s1.packed(1, 1, 2, 3)
	s1.packed(2, 3, 30_000_000)
	p.bytes(2, s1.b)
	var s2 pb
	s2.varint(1, 2)
	s2.varint(2, 1)
	s2.varint(2, 10_000_000)
	p.bytes(2, s2.b)
	var s3 pb
	s3.varint(1, 3)
	s3.varint(2, 2)
	s3.varint(2, 20_000_000)
	p.bytes(2, s3.b)
	for _, loc := range []struct {
		id  uint64
		fns []uint64
	}{{1, []uint64{1, 2}}, {2, []uint64{3}}, {3, []uint64{4}}} {
		var l pb
		l.varint(1, loc.id)
		for _, f := range loc.fns {
			var line pb
			line.varint(1, f)
			line.varint(2, 42)
			l.bytes(4, line.b)
		}
		p.bytes(4, l.b)
	}
	for id, name := range []uint64{5, 6, 7, 8} {
		var f pb
		f.varint(1, uint64(id+1))
		f.varint(2, name)
		p.bytes(5, f.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFoldProfile(t *testing.T) {
	f, err := foldProfile(testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"dram": 30_000_000, "runtime": 10_000_000, "other": 20_000_000}
	for k, v := range want {
		if f.NS[k] != v {
			t.Errorf("fold[%s] = %d, want %d", k, f.NS[k], v)
		}
	}
	if len(f.NS) != len(want) || f.TotalNS != 60_000_000 || f.Samples != 3 || f.foldedNS() != f.TotalNS {
		t.Errorf("fold = %+v", f)
	}
}

// TestFoldRuntimeProfile folds a real CPU profile and checks that the layers
// account for every sample.
func TestFoldRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 1.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	pprof.StopCPUProfile()
	f, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.Samples == 0 || f.foldedNS() != f.TotalNS {
		t.Fatalf("fold = %+v (x=%v)", f, x)
	}
	for k := range f.NS {
		if !strings.Contains(" "+strings.Join(layers, " ")+" ", " "+k+" ") {
			t.Errorf("fold bucket %q is not a layer", k)
		}
	}
}

func TestFoldRejectsTruncatedProfile(t *testing.T) {
	raw := []byte{0x12, 0x10, 0x01} // a sample field claiming 16 bytes
	if _, err := foldProfile(raw); err == nil {
		t.Fatal("truncated profile folded without error")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric name and unit against the result
// format and that BENCHMARK.json declares exactly the metrics printed.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("bad or duplicate metric name %q", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, sm := range spanMetrics {
		if !seen[sm.metric] {
			t.Errorf("span metric %s is not a per-layer metric", sm.metric)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("bad workload name %q", w.name)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
		Work     []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	sameDefs(t, "end_to_end", spec.EndToEnd, endToEnd)
	sameDefs(t, "per_layer", spec.PerLayer, perLayer)
	if len(spec.Work) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Work), len(workloads))
	}
	for i, w := range spec.Work {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
}

func sameDefs(t *testing.T, what string, got, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
		}
	}
}

// runFake runs the command line with one extra workload whose repetition is
// rep, returning the parsed last line of output.
func runFake(t *testing.T, trace string, rep func(r *rep)) result {
	t.Helper()
	saved := workloads
	workloads = append(append([]benchWorkload(nil), saved...), benchWorkload{name: "fake", why: "test", rep: rep})
	defer func() { workloads = saved }()
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "fake", "--seed", "3", "--seconds", "1", "--trace", trace}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

func TestForcedFailingCheckIsCounted(t *testing.T) {
	res := runFake(t, "0", func(r *rep) {
		r.beginSetup()
		r.check("setup-op", "same", nil)
		if err := r.beginTimed(); err != nil {
			t.Error(err)
		}
		if err := r.endTimed(1); err != nil {
			t.Error(err)
		}
		r.check("forced", "same", errors.New("forced failure"))
		r.p95, r.beIPC = 7, 0.5
	})
	if res.Correct || res.Attempted < 2*minReps || res.Failed != res.Attempted/2 {
		t.Fatalf("result = %+v, want one failed operation per repetition", res)
	}
	for _, d := range endToEnd {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("metric %s missing", d.Name)
		}
	}
}

func TestNondeterministicOutputFails(t *testing.T) {
	n := 0
	res := runFake(t, "0", func(r *rep) {
		r.beginSetup()
		if err := r.beginTimed(); err != nil {
			t.Error(err)
		}
		if err := r.endTimed(1); err != nil {
			t.Error(err)
		}
		n++
		fp := "first"
		if n > 1 {
			fp = "later"
		}
		r.check("run", fp, nil)
	})
	if res.Correct || res.Attempted < minReps || res.Failed != res.Attempted-1 {
		t.Fatalf("result = %+v, want every repetition after the first failed", res)
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	res := runFake(t, "1", func(r *rep) {
		r.beginSetup()
		r.span("machine.New", func() {})
		if err := r.beginTimed(); err != nil {
			t.Error(err)
		}
		x := 1.0
		for start := time.Now(); time.Since(start) < 100*time.Millisecond; {
			x = x*1.0000001 + 1e-9
		}
		if err := r.endTimed(1000); err != nil {
			t.Error(err)
		}
		if r.traced() {
			r.counts = map[string]float64{"sim.cycles": 1000}
		}
		r.check("run", "same", nil)
		r.beIPC = x
	})
	if !res.Correct {
		t.Fatalf("result = %+v", res)
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("metric %s missing", d.Name)
		}
	}
	if res.Metrics["sim.cycles"].Value != 1000 || res.Metrics["pprof.samples"].Value == 0 {
		t.Errorf("metrics = %+v", res.Metrics)
	}
}

func TestSweepClaim(t *testing.T) {
	mk := func(met bool, ipc float64) exp.RunResult {
		return exp.RunResult{P95: []uint32{100}, QoSMet: []bool{met}, AllQoS: met, BEIPC: ipc}
	}
	// Default, MPAM, FullPath, PIVOT, PARTIES, CLITE.
	good := []exp.RunResult{mk(false, .36), mk(false, .36), mk(true, .29), mk(true, .30), mk(true, .05), mk(false, .28)}
	errs, verdict := sweepClaim(good)
	if err := errors.Join(errs...); err != nil {
		t.Fatalf("claim failed on the paper's ordering: %v", err)
	}
	if !strings.Contains(verdict, "PIVOT highest be_ipc among methods meeting QoS: true") {
		t.Errorf("verdict = %q", verdict)
	}

	bad := append([]exp.RunResult(nil), good...)
	bad[methodIndex("Default")] = mk(true, .36)
	bad[methodIndex("PIVOT")] = mk(true, .28)
	errs, _ = sweepClaim(bad)
	for i, m := range sweepMethods {
		wantFail := m.Name == "Default" || m.Name == "PIVOT"
		if (errs[i] != nil) != wantFail {
			t.Errorf("%s: err = %v, want failure %v", m.Name, errs[i], wantFail)
		}
	}
}

func TestMatchIndexed(t *testing.T) {
	cases := []struct {
		pattern, name string
		want          bool
	}{
		{"cpu#.committed", "cpu0.committed", true},
		{"cpu#.committed", "cpu12.committed", true},
		{"cpu#.committed", "cpu.committed", false},
		{"cpu#.committed", "cpu0.l1.committed", false},
		{"cpu#.l1.misses", "cpu3.l1.misses", true},
		{"machine.lc#.completed", "machine.lc0.phase1.completed", false},
		{"llc.misses", "llc.misses", true},
	}
	for _, c := range cases {
		if got := matchIndexed(c.pattern, c.name); got != c.want {
			t.Errorf("matchIndexed(%q, %q) = %v", c.pattern, c.name, got)
		}
	}
}
