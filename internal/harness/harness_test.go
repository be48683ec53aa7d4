package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pivot/internal/exp"
	"pivot/internal/faultinject"
	"pivot/internal/machine"
	"pivot/internal/mem"
	"pivot/internal/workload"
)

// --- pure harness mechanics (no simulation) ---------------------------------

func TestPanicBecomesRunError(t *testing.T) {
	r, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
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

func TestTransientFailuresRetry(t *testing.T) {
	r, err := New(Config{Retries: 5, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	results := r.Run([]Job{{ID: "flaky", Run: func(context.Context) (any, error) {
		calls++
		if calls < 3 {
			return nil, fmt.Errorf("host hiccup: %w", ErrTransient)
		}
		return "ok", nil
	}}})
	if results[0].Err != nil {
		t.Fatalf("transient job never recovered: %v", results[0].Err)
	}
	if calls != 3 || results[0].Attempts != 3 {
		t.Fatalf("calls=%d attempts=%d, want 3/3", calls, results[0].Attempts)
	}
}

func TestDeterministicFailuresDoNotRetry(t *testing.T) {
	r, err := New(Config{Retries: 5, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	results := r.Run([]Job{{ID: "det", Run: func(context.Context) (any, error) {
		calls++
		return nil, errors.New("same seed, same crash")
	}}})
	if calls != 1 || results[0].Attempts != 1 {
		t.Fatalf("deterministic failure retried: calls=%d attempts=%d", calls, results[0].Attempts)
	}
	if results[0].Err == nil {
		t.Fatal("failure swallowed")
	}
}

func TestTimeoutReachesJob(t *testing.T) {
	r, err := New(Config{Timeout: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	results := r.Run([]Job{{ID: "slow", Run: func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}})
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", results[0].Err)
	}
}

func TestJournalResumeSkipsCompletedJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	r1, err := New(Config{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	echo := func(s string) func(context.Context) (any, error) {
		return func(context.Context) (any, error) { return s, nil }
	}
	r1.Run([]Job{{ID: "a", Run: echo("alpha")}, {ID: "b", Run: echo("beta")}})

	r2, err := New(Config{JournalPath: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	poison := func(context.Context) (any, error) {
		t.Error("journaled job re-ran on resume")
		return nil, errors.New("re-ran")
	}
	results := r2.Run([]Job{
		{ID: "a", Run: poison},
		{ID: "b", Run: poison},
		{ID: "c", Run: echo("gamma")},
	})
	for i, want := range []string{"alpha", "beta", "gamma"} {
		got, err := ValueAs[string](results[i])
		if err != nil || got != want {
			t.Fatalf("result %d = %q (%v), want %q", i, got, err, want)
		}
	}
	if !results[0].Resumed || !results[1].Resumed || results[2].Resumed {
		t.Fatalf("resume flags wrong: %v %v %v",
			results[0].Resumed, results[1].Resumed, results[2].Resumed)
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

// sweepSpecs is the acceptance campaign: ten co-location runs with
// seed-derived faults at every MSC station, one of which is rigged to panic
// mid-simulation.
func sweepSpecs() []exp.RunSpec {
	methods := []exp.Method{exp.MethodDefault(), exp.MethodPIVOT()}
	var specs []exp.RunSpec
	for i := 0; i < 10; i++ {
		spec := exp.RunSpec{
			Method: methods[i%len(methods)],
			LCs:    []exp.LCSpec{{App: workload.Masstree, LoadPct: 40 + 10*(i%3)}},
			BEs:    []exp.BESpec{{App: workload.IBench, Threads: 1 + i%2}},
		}
		cfg := faultinject.Config{DropProb: 0.005, SpikeProb: 0.01, SpikeCycles: 30}
		if i == 4 {
			// Rigged run: enough injected events to trip the panic mid-sweep.
			cfg.SpikeProb = 0.5
			cfg.PanicAfter = 200
		}
		// The same rates at all four stations.
		spec.FaultPlan = &faultinject.Plan{Seed: uint64(100 + i), Stations: map[mem.Component]faultinject.Config{}}
		for _, comp := range mem.MSCs {
			spec.FaultPlan.Stations[comp] = cfg
		}
		specs = append(specs, spec)
	}
	return specs
}

func runSweep(t *testing.T, cfg Config, specs []exp.RunSpec) []Result {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r.Run(SpecJobs(testCtx(t), specs))
}

func decodeRun(t *testing.T, res Result) exp.RunResult {
	t.Helper()
	v, err := ValueAs[exp.RunResult](res)
	if err != nil {
		t.Fatalf("decoding %s: %v", res.ID, err)
	}
	return v
}

// TestSweepSurvivesFaultsAndPanic is the end-to-end acceptance scenario: a
// 10-run sweep under seeded fault injection where one run panics. The
// harness must complete every healthy run, report the poisoned one as a
// structured failure with a machine diagnostic, and — run again in parallel
// and resumed from a truncated journal — reproduce the serial baseline
// exactly.
func TestSweepSurvivesFaultsAndPanic(t *testing.T) {
	specs := sweepSpecs()
	baseline := runSweep(t, Config{}, specs)
	if n := Failed(baseline); n != 1 {
		t.Fatalf("serial sweep: %d failures, want exactly the rigged run", n)
	}
	var re *RunError
	if !errors.As(baseline[4].Err, &re) {
		t.Fatalf("rigged run error is %v, want *RunError", baseline[4].Err)
	}
	var pe *machine.PanicError
	if !errors.As(re, &pe) {
		t.Fatalf("rigged run did not surface the panic: %v", re)
	}
	if d, ok := re.Diag(); !ok || d.Cycle == 0 {
		t.Fatal("panic diagnostic missing the machine snapshot")
	}

	// Parallel sweep with a journal: identical results, in order.
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	par := runSweep(t, Config{Parallel: 4, JournalPath: path}, specs)
	if Failed(par) != 1 || par[4].Err == nil {
		t.Fatalf("parallel sweep failures diverged: %d", Failed(par))
	}
	for i := range specs {
		if i == 4 {
			continue
		}
		if a, b := decodeRun(t, baseline[i]), decodeRun(t, par[i]); !reflect.DeepEqual(a, b) {
			t.Fatalf("run %d diverged under -parallel 4:\nserial:   %+v\nparallel: %+v", i, a, b)
		}
	}

	// Interrupt: keep only the first half of the journal, then resume. The
	// journaled runs replay, the rest recompute, the rigged run fails again,
	// and every value still matches the serial baseline.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimRight(string(data), "\n"), "\n")
	cut := filepath.Join(t.TempDir(), "interrupted.jsonl")
	if err := os.WriteFile(cut, []byte(strings.Join(lines[:len(lines)/2], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed := runSweep(t, Config{JournalPath: cut, Resume: true}, specs)
	if Failed(resumed) != 1 || resumed[4].Err == nil {
		t.Fatalf("resumed sweep failures diverged: %d", Failed(resumed))
	}
	anyResumed := false
	for i := range specs {
		if i == 4 {
			continue
		}
		anyResumed = anyResumed || resumed[i].Resumed
		if a, b := decodeRun(t, baseline[i]), decodeRun(t, resumed[i]); !reflect.DeepEqual(a, b) {
			t.Fatalf("run %d diverged after resume:\nserial:  %+v\nresumed: %+v", i, a, b)
		}
	}
	if !anyResumed {
		t.Fatal("truncated journal replayed nothing — resume path untested")
	}
}

// TestParallelMatchesSerialFaultFree pins the determinism contract without
// any fault injection in the way.
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
	serial := runSweep(t, Config{}, specs)
	par := runSweep(t, Config{Parallel: 4}, specs)
	if Failed(serial) != 0 || Failed(par) != 0 {
		t.Fatalf("fault-free sweep failed: serial %d, parallel %d", Failed(serial), Failed(par))
	}
	for i := range specs {
		if a, b := decodeRun(t, serial[i]), decodeRun(t, par[i]); !reflect.DeepEqual(a, b) {
			t.Fatalf("spec %d (%s) diverged under parallelism", i, SpecLabel(specs[i]))
		}
	}
}

// TestExperimentResumeByteIdentical drives the same path pivot-exp uses:
// rendered table text is what gets journaled, so a resumed sweep prints
// byte-for-byte what the original would have.
func TestExperimentResumeByteIdentical(t *testing.T) {
	ids := []string{"table1", "table2", "storage"}
	jobs, err := ExperimentJobs(testCtx(t), ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "exp.jsonl")
	r1, err := New(Config{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	first := r1.Run(jobs)
	if Failed(first) != 0 {
		t.Fatalf("static experiments failed: %+v", first)
	}
	r2, err := New(Config{JournalPath: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	second := r2.Run(jobs)
	for i := range jobs {
		if !second[i].Resumed {
			t.Fatalf("experiment %s recomputed despite journal", jobs[i].ID)
		}
		a, err1 := ValueAs[string](first[i])
		b, err2 := ValueAs[string](second[i])
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("experiment %s output changed across resume (%v, %v)", jobs[i].ID, err1, err2)
		}
		if a == "" {
			t.Fatalf("experiment %s rendered empty output", jobs[i].ID)
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

func TestUnknownExperimentRejected(t *testing.T) {
	if _, err := ExperimentJobs(testCtx(t), []string{"fig99"}, nil); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunContextCancellation(t *testing.T) {
	r, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}

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

	// Mid-sweep cancellation reaches the in-flight job's context, and a
	// cancelled failure is never retried even when marked transient.
	ctx2, cancel2 := context.WithCancel(context.Background())
	r2, err := New(Config{Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	attempts := 0
	results = r2.RunContext(ctx2, []Job{{ID: "b", Run: func(ctx context.Context) (any, error) {
		attempts++
		cancel2()
		<-ctx.Done()
		return nil, fmt.Errorf("aborted: %w: %w", ctx.Err(), ErrTransient)
	}}})
	if results[0].Err == nil {
		t.Error("cancelled in-flight job reported success")
	}
	if attempts != 1 {
		t.Errorf("cancelled job attempted %d times, want 1", attempts)
	}
}
