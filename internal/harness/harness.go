// Package harness is the resilient sweep runner: a worker pool that executes
// experiment jobs in parallel, converts panics into structured errors with a
// machine diagnostic attached, bounds each run with a wall-clock deadline,
// and logs each job's outcome. A failed job is never retried: a simulation
// is deterministic, so the same seed reproduces its failure exactly. Its one
// store of finished results is the content-addressed Cache: a rerun of an
// interrupted sweep against the same cache replays the finished jobs, and a
// rerun of an edited sweep — or of an edited build — recomputes only the
// jobs whose inputs changed.
//
// Determinism: each simulation's state lives entirely inside its own
// machine, and the exp.Context caches are synchronised, so a sweep run with
// Parallel=N produces results identical to a serial run of the same jobs.
package harness

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"runtime/debug"
	"sync"
	"time"

	"pivot/internal/machine"
	"pivot/internal/stats"
)

// Config parameterises one sweep.
type Config struct {
	// Parallel is the worker count; values < 1 mean serial.
	Parallel int
	// Timeout is the per-run wall-clock deadline (0 = unbounded).
	Timeout time.Duration
	// Logger, when set, receives structured progress notes; nil silences
	// them. Use stats-free handlers only: the harness logs from worker
	// goroutines.
	Logger *slog.Logger
	// Progress, when set, is fed live sweep telemetry (units done/failed and
	// the current job label) for the /progress debug endpoint.
	Progress *stats.Progress
}

// Job is one unit of work. Run receives a context carrying the per-run
// deadline. Key, when set, is the content address of the job's result
// (CacheKey); CachedJobs serves keyed jobs from a Cache, so a keyed job's
// value must be JSON-marshalable.
type Job struct {
	ID  string
	Run func(ctx context.Context) (any, error)
	Key string
	// Refresh makes CachedJobs run a keyed job even when its result is
	// cached, storing the fresh result: for a job whose run has effects
	// beyond its value, like the per-run artifacts a sweep exports.
	Refresh bool
}

// Result is the outcome of one job, in job order.
type Result struct {
	ID string
	// Value is what Run returned — a json.RawMessage for jobs wrapped by
	// CachedJobs (decode with ValueAs).
	Value any
	// Err is nil on success; otherwise a *RunError.
	Err     error
	Elapsed time.Duration
}

// RunError wraps a job failure with its identity. The
// underlying cause may be a *machine.StallError, *machine.AuditError,
// *machine.PanicError, *machine.AbortError or any host error.
type RunError struct {
	JobID string
	Err   error
}

func (e *RunError) Error() string {
	return fmt.Sprintf("harness: job %s failed: %v", e.JobID, e.Err)
}

func (e *RunError) Unwrap() error { return e.Err }

// Diag extracts the machine diagnostic snapshot from the failure, if the
// underlying error carries one.
func (e *RunError) Diag() (machine.Diagnostic, bool) { return machine.DiagOf(e.Err) }

// Runner executes sweeps. Zero value is unusable; build with New.
type Runner struct {
	cfg Config
	log *slog.Logger
}

// New builds a runner.
func New(cfg Config) *Runner {
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Runner{cfg: cfg, log: log}
}

// Run executes all jobs and returns one Result per job, in job order. It
// never returns early: failed jobs are reported in their Result while the
// remaining jobs keep running. Failed reports whether any job failed.
func (r *Runner) Run(jobs []Job) []Result {
	return r.RunContext(context.Background(), jobs)
}

// RunContext is Run bounded by a parent context: cancelling it aborts
// in-flight jobs and fails not-yet-started jobs immediately with the
// cancellation cause; jobs that already finished keep their results (and,
// through CachedJobs, their cache entries). Per-job timeouts still apply on
// top of the parent deadline.
func (r *Runner) RunContext(ctx context.Context, jobs []Job) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	r.cfg.Progress.SetUnits(uint64(len(jobs)))
	results := make([]Result, len(jobs))
	workers := r.cfg.Parallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = r.runOne(ctx, jobs[i])
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// Failed counts the failures in a result set.
func Failed(results []Result) int {
	n := 0
	for _, res := range results {
		if res.Err != nil {
			n++
		}
	}
	return n
}

func (r *Runner) runOne(ctx context.Context, job Job) Result {
	if err := ctx.Err(); err != nil {
		// Sweep cancelled before this job started: fail fast instead of
		// burning a full simulation that would abort at its first check.
		r.cfg.Progress.UnitDone(true)
		return Result{ID: job.ID, Err: &RunError{JobID: job.ID, Err: err}}
	}
	r.cfg.Progress.SetLabel(job.ID)
	start := time.Now()
	var hit bool
	v, err := r.exec(context.WithValue(ctx, hitKey{}, &hit), job)
	if err != nil {
		r.log.Error("job failed", "job", job.ID, "err", err)
		r.cfg.Progress.UnitDone(true)
		return Result{ID: job.ID, Err: &RunError{JobID: job.ID, Err: err}, Elapsed: time.Since(start)}
	}
	if hit {
		r.log.Info("job cached", "job", job.ID)
	} else {
		r.log.Info("job ok", "job", job.ID, "elapsedSec", round1(time.Since(start).Seconds()))
	}
	r.cfg.Progress.UnitDone(false)
	return Result{ID: job.ID, Value: v, Elapsed: time.Since(start)}
}

// round1 keeps elapsed-seconds log attrs readable (one decimal).
func round1(v float64) float64 { return float64(int64(v*10+0.5)) / 10 }

// exec runs the job once under its deadline, converting an escaped panic
// into a *machine.PanicError so one poisoned run cannot kill the sweep. The
// per-run deadline nests inside the sweep's parent context, so cancelling
// the sweep (graceful shutdown) reaches every in-flight simulation.
func (r *Runner) exec(parent context.Context, job Job) (v any, err error) {
	ctx := parent
	if r.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.cfg.Timeout)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			v, err = nil, &machine.PanicError{Value: p, Stack: string(debug.Stack())}
		}
	}()
	return job.Run(ctx)
}
