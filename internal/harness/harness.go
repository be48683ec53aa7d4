// Package harness is the resilient sweep runner: a worker pool that executes
// experiment jobs in parallel, converts panics into structured errors with a
// machine diagnostic attached, bounds each run with a wall-clock deadline,
// and retries transient host failures with backoff. Its one store of finished
// results is the content-addressed Cache: a rerun of an interrupted sweep
// against the same cache replays the finished jobs, and a rerun of an edited
// sweep — or of an edited build — recomputes only the jobs whose inputs
// changed.
//
// Determinism: each simulation's state lives entirely inside its own
// machine, and the exp.Context caches are synchronised, so a sweep run with
// Parallel=N produces results identical to a serial run of the same jobs.
package harness

import (
	"context"
	"errors"
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
	// Retries is how many times a job is re-attempted after a transient
	// failure (deterministic simulation failures are never retried).
	Retries int
	// Backoff is the wait before the first retry; it doubles per attempt.
	Backoff time.Duration
	// Out receives progress notes; nil silences them. Ignored when Logger is
	// set.
	Out io.Writer
	// Logger, when set, receives structured progress notes instead of the
	// plain-text lines written to Out. Use stats-free handlers only: the
	// harness logs from worker goroutines.
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
	Err      error
	Attempts int
	Elapsed  time.Duration
}

// RunError wraps a job failure with its identity and attempt count. The
// underlying cause may be a *machine.StallError, *machine.AuditError,
// *machine.PanicError, *machine.AbortError or any host error.
type RunError struct {
	JobID    string
	Attempts int
	Err      error
}

func (e *RunError) Error() string {
	return fmt.Sprintf("harness: job %s failed after %d attempt(s): %v", e.JobID, e.Attempts, e.Err)
}

func (e *RunError) Unwrap() error { return e.Err }

// Diag extracts the machine diagnostic snapshot from the failure, if the
// underlying error carries one.
func (e *RunError) Diag() (machine.Diagnostic, bool) { return machine.DiagOf(e.Err) }

// ErrTransient marks an error as a transient host failure worth retrying;
// wrap it (fmt.Errorf("...: %w", harness.ErrTransient)) or implement
// `Transient() bool` on the error type.
var ErrTransient = errors.New("transient failure")

// transient reports whether err should be retried. Simulation failures are
// deterministic — the same seed reproduces them exactly — so retrying them
// burns time to learn nothing; only errors explicitly marked transient
// (host-level flakiness) qualify.
func transient(err error) bool {
	if errors.Is(err, ErrTransient) {
		return true
	}
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// Runner executes sweeps. Zero value is unusable; build with New.
type Runner struct {
	cfg Config
	log *slog.Logger
}

// New builds a runner.
func New(cfg Config) *Runner {
	return &Runner{cfg: cfg, log: resolveLogger(cfg)}
}

// resolveLogger picks the diagnostic sink: an explicit structured logger wins;
// otherwise Out gets human-readable text lines; otherwise silence.
func resolveLogger(cfg Config) *slog.Logger {
	if cfg.Logger != nil {
		return cfg.Logger
	}
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	return slog.New(slog.NewTextHandler(out, &slog.HandlerOptions{
		// Drop the timestamp: sweep logs are compared across runs in tests
		// and by humans diffing reruns, and wall-clock stamps are pure noise
		// there (Elapsed is reported explicitly where it matters).
		ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		},
	}))
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
	var lastErr error
	attempts := 0
	var hit bool
	ctx = context.WithValue(ctx, hitKey{}, &hit)
	for attempt := 0; attempt <= r.cfg.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(r.cfg.Backoff << (attempt - 1))
			r.log.Warn("retrying", "job", job.ID, "attempt", attempt, "retries", r.cfg.Retries)
		}
		attempts++
		v, err := r.attempt(ctx, job)
		if err == nil {
			if hit {
				r.log.Info("job cached", "job", job.ID)
			} else {
				r.log.Info("job ok", "job", job.ID, "elapsedSec", round1(time.Since(start).Seconds()))
			}
			r.cfg.Progress.UnitDone(false)
			return Result{ID: job.ID, Value: v, Attempts: attempts, Elapsed: time.Since(start)}
		}
		lastErr = err
		if !transient(err) || ctx.Err() != nil {
			break
		}
	}
	r.log.Error("job failed", "job", job.ID, "attempts", attempts, "err", lastErr)
	r.cfg.Progress.UnitDone(true)
	return Result{
		ID:       job.ID,
		Err:      &RunError{JobID: job.ID, Attempts: attempts, Err: lastErr},
		Attempts: attempts,
		Elapsed:  time.Since(start),
	}
}

// round1 keeps elapsed-seconds log attrs readable (one decimal).
func round1(v float64) float64 { return float64(int64(v*10+0.5)) / 10 }

// attempt runs the job once under its deadline, converting an escaped panic
// into a *machine.PanicError so one poisoned run cannot kill the sweep. The
// per-run deadline nests inside the sweep's parent context, so cancelling
// the sweep (graceful shutdown) reaches every in-flight simulation.
func (r *Runner) attempt(parent context.Context, job Job) (v any, err error) {
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
