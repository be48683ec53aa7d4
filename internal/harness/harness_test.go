package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pivot/internal/exp"
	"pivot/internal/machine"
	"pivot/internal/metrics"
	"pivot/internal/scenario"
	"pivot/internal/workload"
)

// --- pure harness mechanics (no simulation) ---------------------------------

func TestPanicBecomesRunError(t *testing.T) {
	r := New(Config{})
	results := r.Run([]Job{{ID: "boom", Run: func(context.Context) (any, error) {
		panic("kaboom")
	}}})
	if Failed(results) != 1 {
		t.Fatalf("Failed = %d, want 1", Failed(results))
	}
	var re *RunError
	if !errors.As(results[0].Err, &re) || re.JobID != "boom" {
		t.Fatalf("got %v, want *RunError for job boom", results[0].Err)
	}
	var pe *machine.PanicError
	if !errors.As(re, &pe) {
		t.Fatalf("RunError does not wrap *machine.PanicError: %v", re)
	}
	if pe.Value != "kaboom" || !strings.Contains(pe.Stack, "harness") {
		t.Fatalf("panic payload lost: value=%v stack has %d bytes", pe.Value, len(pe.Stack))
	}
}

func TestTimeoutReachesJob(t *testing.T) {
	r := New(Config{Timeout: 10 * time.Millisecond})
	results := r.Run([]Job{{ID: "slow", Run: func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}})
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", results[0].Err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := WriteFileAtomic(path, []byte("first"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second"), 0o600); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "second" {
		t.Fatalf("read back %q (%v)", data, err)
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil || len(ents) != 1 {
		t.Fatalf("temp files leaked: %v (%v)", ents, err)
	}
}

// --- simulation-backed sweeps ----------------------------------------------

var (
	tinyOnce sync.Once
	tinyCtx  *exp.Context
)

// testCtx returns a shared experiment context at a deliberately tiny scale:
// large enough for closed-loop calibration to converge, small enough that
// the whole file stays test-suite friendly.
func testCtx(t *testing.T) *exp.Context {
	t.Helper()
	tinyOnce.Do(func() {
		scale := exp.Scale{
			Warmup:       150_000,
			Measure:      150_000,
			CalMeasure:   120_000,
			LoadFracs:    []float64{0.2, 0.6},
			Epoch:        25_000,
			MaxBEThreads: 3,
			Seed:         1,
		}
		tinyCtx = exp.NewContext(machine.KunpengConfig(4), scale)
	})
	return tinyCtx
}

// rigged is the index of the sweepSpecs run whose job panics mid-simulation.
const rigged = 4

// sweepSpecs is the acceptance campaign: ten co-location runs, one of which
// (rigged) runs under a panicking context (see runSweep). The rigged run
// pins its arrival rate and uses no profile, so the panicking context
// drives only its own simulation, never a shared calibration.
func sweepSpecs() []exp.RunSpec {
	methods := []exp.Method{exp.MethodDefault(), exp.MethodPIVOT()}
	var specs []exp.RunSpec
	for i := 0; i < 10; i++ {
		spec := exp.RunSpec{
			Method: methods[i%len(methods)],
			LCs:    []exp.LCSpec{{App: workload.Masstree, LoadPct: 40 + 10*(i%3)}},
			BEs:    []exp.BESpec{{App: workload.IBench, Threads: 1 + i%2}},
		}
		if i == rigged {
			spec.LCs[0] = exp.LCSpec{App: workload.Masstree, Interarrival: 3000}
		}
		specs = append(specs, spec)
	}
	return specs
}

// panicCtx is a run context whose Err panics after n calls. StepChecked
// polls Err between granules, so the panic fires inside the simulation.
type panicCtx struct {
	context.Context
	n int
}

func (c *panicCtx) Err() error {
	if c.n--; c.n < 0 {
		panic("rigged run: panic mid-simulation")
	}
	return c.Context.Err()
}

// SpecLabel renders a stable, human-readable identity for a RunSpec, used as
// the job ID suffix.
func SpecLabel(spec exp.RunSpec) string {
	var b strings.Builder
	b.WriteString(spec.Method.Name)
	for _, lc := range spec.LCs {
		fmt.Fprintf(&b, "+%s@%d", lc.App, lc.LoadPct)
	}
	for _, be := range spec.BEs {
		fmt.Fprintf(&b, "+%sx%d", be.App, be.Threads)
	}
	return b.String()
}

// SpecJobs builds one unkeyed job per RunSpec against a shared Context. Each
// job derives a deadline-bounded view of ctx from its run context, so the
// harness timeout reaches down into the simulation loop. Job IDs are
// "<index>:<label>" — index keeps IDs unique when a sweep repeats a spec.
func SpecJobs(ctx *exp.Context, specs []exp.RunSpec) []Job {
	jobs := make([]Job, len(specs))
	for i, spec := range specs {
		jobs[i] = Job{
			ID: fmt.Sprintf("%03d:%s", i, SpecLabel(spec)),
			Run: func(rc context.Context) (any, error) {
				return ctx.WithRunContext(rc).Run(spec)
			},
		}
	}
	return jobs
}

// runSweep runs specs under cfg, through cache when one is given, with the
// rigged job under a panicCtx. SpecJobs leaves jobs unkeyed, so each is
// keyed here by its ID, which names its spec uniquely within sweepSpecs. It
// also returns the IDs of the jobs that actually ran (the cache misses).
func runSweep(t *testing.T, cfg Config, specs []exp.RunSpec, cache *Cache) ([]Result, []string) {
	t.Helper()
	ctx := testCtx(t)
	jobs := SpecJobs(ctx, specs)
	var mu sync.Mutex
	var ran []string
	for i, j := range jobs {
		jobs[i].Key = CacheKey("sweep-test", []byte(strconv.Quote(j.ID)), ctx.Scale, ctx.Cfg.Cores, false)
		jobs[i].Run = func(rc context.Context) (any, error) {
			mu.Lock()
			ran = append(ran, j.ID)
			mu.Unlock()
			if i == rigged {
				rc = &panicCtx{Context: rc, n: 10}
			}
			return j.Run(rc)
		}
	}
	return New(cfg).Run(CachedJobs(cache, jobs)), ran
}

func decodeRun(t *testing.T, res Result) exp.RunResult {
	t.Helper()
	v, err := ValueAs[exp.RunResult](res)
	if err != nil {
		t.Fatalf("decoding %s: %v", res.ID, err)
	}
	return v
}

// TestSweepSurvivesPanic is the end-to-end acceptance scenario: a 10-run
// sweep where one run panics mid-simulation. The harness must complete
// every healthy run, report the poisoned one as a structured failure with a
// machine diagnostic, and — run again in parallel into a result cache, then
// rerun against that cache with half its entries deleted — reproduce the
// serial baseline exactly.
func TestSweepSurvivesPanic(t *testing.T) {
	specs := sweepSpecs()
	baseline, _ := runSweep(t, Config{}, specs, nil)
	if n := Failed(baseline); n != 1 {
		t.Fatalf("serial sweep: %d failures, want exactly the rigged run", n)
	}
	var re *RunError
	if !errors.As(baseline[rigged].Err, &re) {
		t.Fatalf("rigged run error is %v, want *RunError", baseline[rigged].Err)
	}
	var pe *machine.PanicError
	if !errors.As(re, &pe) {
		t.Fatalf("rigged run did not surface the panic: %v", re)
	}
	if d, ok := re.Diag(); !ok || d.Cycle == 0 {
		t.Fatal("panic diagnostic missing the machine snapshot")
	}

	// Parallel sweep into a cache: identical results, in order, and only
	// the healthy runs stored.
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	par, _ := runSweep(t, Config{Parallel: 4}, specs, cache)
	if Failed(par) != 1 || par[rigged].Err == nil {
		t.Fatalf("parallel sweep failures diverged: %d", Failed(par))
	}
	for i := range specs {
		if i == rigged {
			continue
		}
		if a, b := decodeRun(t, baseline[i]), decodeRun(t, par[i]); !reflect.DeepEqual(a, b) {
			t.Fatalf("run %d diverged under -parallel 4:\nserial:   %+v\nparallel: %+v", i, a, b)
		}
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil || len(entries) != len(specs)-1 {
		t.Fatalf("cache holds %d entries (%v), want one per healthy run (%d)", len(entries), err, len(specs)-1)
	}

	// Interrupt: delete half the entries, then rerun against the cache. The
	// remaining entries hit, the rest recompute, the rigged run fails again,
	// and every value still matches the serial baseline.
	slices.Sort(entries)
	deleted := entries[:len(entries)/2]
	for _, e := range deleted {
		if err := os.Remove(e); err != nil {
			t.Fatal(err)
		}
	}
	cache, err = OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed, ran := runSweep(t, Config{}, specs, cache)
	if Failed(resumed) != 1 || resumed[rigged].Err == nil {
		t.Fatalf("resumed sweep failures diverged: %d", Failed(resumed))
	}
	if kept := len(entries) - len(deleted); cache.Hits() != uint64(kept) || len(ran) != len(deleted)+1 {
		t.Fatalf("resumed sweep: %d hit(s), ran %v; want %d hits and the %d deleted runs plus the rigged one",
			cache.Hits(), ran, kept, len(deleted))
	}
	if !slices.Contains(ran, resumed[rigged].ID) {
		t.Fatalf("rigged run %s was not re-run (ran %v)", resumed[rigged].ID, ran)
	}
	for i := range specs {
		if i == rigged {
			continue
		}
		if a, b := decodeRun(t, baseline[i]), decodeRun(t, resumed[i]); !reflect.DeepEqual(a, b) {
			t.Fatalf("run %d diverged after resume:\nserial:  %+v\nresumed: %+v", i, a, b)
		}
	}
}

// TestParallelMatchesSerialFaultFree pins the determinism contract on a
// sweep in which no job fails: serial and parallel runs agree unit for unit.
func TestParallelMatchesSerialFaultFree(t *testing.T) {
	var specs []exp.RunSpec
	for _, m := range []exp.Method{exp.MethodDefault(), exp.MethodPIVOT()} {
		for _, load := range []int{40, 70} {
			specs = append(specs, exp.RunSpec{
				Method: m,
				LCs:    []exp.LCSpec{{App: workload.Masstree, LoadPct: load}},
				BEs:    []exp.BESpec{{App: workload.IBench, Threads: 2}},
			})
		}
	}
	serial, _ := runSweep(t, Config{}, specs, nil)
	par, _ := runSweep(t, Config{Parallel: 4}, specs, nil)
	if Failed(serial) != 0 || Failed(par) != 0 {
		t.Fatalf("healthy sweep failed: serial %d, parallel %d", Failed(serial), Failed(par))
	}
	for i := range specs {
		if a, b := decodeRun(t, serial[i]), decodeRun(t, par[i]); !reflect.DeepEqual(a, b) {
			t.Fatalf("spec %d (%s) diverged under parallelism", i, SpecLabel(specs[i]))
		}
	}
}

// TestExperimentResumeByteIdentical drives the same path pivot-exp uses:
// experiment tables are what gets cached, so a rerun against the cache
// prints byte-for-byte what an uncached sweep prints, in text and in CSV,
// without recomputing anything.
func TestExperimentResumeByteIdentical(t *testing.T) {
	ids := []string{"table1", "table2", "storage"}
	jobs, err := ExperimentJobs(testCtx(t), ids)
	if err != nil {
		t.Fatal(err)
	}
	render := func(rs []Result) (text, csv string) {
		t.Helper()
		for _, res := range rs {
			if res.Err != nil {
				t.Fatalf("experiment %s failed: %v", res.ID, res.Err)
			}
			tables, err := ValueAs[[]*metrics.Table](res)
			if err != nil || len(tables) == 0 {
				t.Fatalf("experiment %s: %d table(s) (%v)", res.ID, len(tables), err)
			}
			for _, tb := range tables {
				text += tb.String() + "\n"
				csv += fmt.Sprintf("# %s\n%s\n", tb.Title, tb.CSV())
			}
		}
		return text, csv
	}
	wantText, wantCSV := render(New(Config{}).Run(jobs))

	runs := 0
	for i, j := range jobs {
		jobs[i].Run = func(rc context.Context) (any, error) { runs++; return j.Run(rc) }
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for pass, wantRuns := range []int{len(ids), 0} {
		runs = 0
		text, csv := render(New(Config{}).Run(CachedJobs(cache, jobs)))
		if text != wantText || csv != wantCSV {
			t.Fatalf("pass %d: cached output differs from uncached:\n--- uncached ---\n%s\n--- cached ---\n%s",
				pass, wantText, text)
		}
		if runs != wantRuns {
			t.Fatalf("pass %d ran %d experiment(s), want %d", pass, runs, wantRuns)
		}
	}
}

func TestSpecLabel(t *testing.T) {
	spec := exp.RunSpec{
		Method: exp.MethodPIVOT(),
		LCs:    []exp.LCSpec{{App: workload.Masstree, LoadPct: 60}},
		BEs:    []exp.BESpec{{App: workload.IBench, Threads: 3}},
	}
	if got := SpecLabel(spec); got != "PIVOT+masstree@60+ibenchx3" {
		t.Fatalf("SpecLabel = %q", got)
	}
}

// TestScenarioMBASearchesLadder: a scenario's MBA unit with no mba_level
// runs the throttle-ladder search, not the unthrottled level 100.
func TestScenarioMBASearchesLadder(t *testing.T) {
	ctx := exp.NewContext(machine.KunpengConfig(8), exp.Quick())
	sc, err := scenario.Parse([]byte(`{
  "version": 1, "name": "mba-ladder", "machine": {"cores": 4}, "policy": "MBA",
  "warmup": 100000, "measure": 150000,
  "tasks": [
    {"kind": "lc", "app": "masstree", "load_pct": 70},
    {"kind": "be", "app": "ibench", "threads": 3}
  ]
}`))
	if err != nil {
		t.Fatal(err)
	}
	jobs, _, err := ScenarioJobs(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeRun(t, New(Config{}).Run(jobs)[0])

	spec, err := ctx.SpecForUnit(sc.MustExpand()[0])
	if err != nil {
		t.Fatal(err)
	}
	best, _, err := ctx.RunBestMBA(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Method = exp.MethodMBA(100)
	unthrottled, err := ctx.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, best) {
		t.Errorf("MBA unit = %+v, want RunBestMBA's %+v", got, best)
	}
	if reflect.DeepEqual(got, unthrottled) {
		t.Errorf("MBA unit equals the unthrottled level-100 run %+v", unthrottled)
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	if _, err := ExperimentJobs(testCtx(t), []string{"fig99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunContextCancellation(t *testing.T) {
	r := New(Config{})

	// Already-cancelled sweep: jobs fail fast without running.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	results := r.RunContext(cancelled, []Job{{ID: "a", Run: func(ctx context.Context) (any, error) {
		ran = true
		return nil, ctx.Err()
	}}})
	if ran {
		t.Error("job ran under an already-cancelled sweep")
	}
	if results[0].Err == nil || !errors.Is(results[0].Err, context.Canceled) {
		t.Errorf("cancelled job error = %v, want context.Canceled", results[0].Err)
	}

	// Mid-sweep cancellation reaches the in-flight job's context.
	ctx2, cancel2 := context.WithCancel(context.Background())
	results = r.RunContext(ctx2, []Job{{ID: "b", Run: func(ctx context.Context) (any, error) {
		cancel2()
		<-ctx.Done()
		return nil, ctx.Err()
	}}})
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Errorf("cancelled in-flight job error = %v, want context.Canceled", results[0].Err)
	}
}
