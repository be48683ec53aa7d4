// Package scenfuzz turns the simulator's strictest contracts into an
// automated bug-finding machine. A deterministic generator derives random —
// but valid by construction — scenario.Scenario values from a campaign seed;
// a bank of differential oracles then executes each one several ways and
// demands byte-identical answers:
//
//   - codec: encode → strict decode → re-encode is a byte-identical fixed
//     point, and the strict codec accepts its own output;
//   - equiv: a skip-ahead run and a -dense run finish with byte-identical
//     serialised machine state, result snapshot and stats dump;
//   - flight: attaching the per-request flight recorder changes nothing
//     observable (state minus the recorder's own section, snapshot);
//   - stationary: a task without a load stanza runs byte-identical to one
//     shaped by the neutral flat load program;
//   - audit: the run completes cleanly under the invariant auditor, the
//     forward-progress watchdog and a cycle budget.
//
// A failing scenario is handed to a greedy shrinker (Shrink) that minimises
// it while preserving the failing oracle, and the minimized spec plus a full
// diagnostic transcript land in a replayable corpus directory (corpus.go).
// cmd/pivot-fuzz drives campaigns and corpus replay from the command line.
package scenfuzz

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"pivot/internal/harness"
	"pivot/internal/scenario"
)

// Config parameterises one fuzzing campaign.
type Config struct {
	// Seed derives every generated scenario; the same (Seed, N, Oracles)
	// campaign reproduces exactly.
	Seed uint64
	// N is the number of scenarios to generate and check.
	N int
	// Duration, when > 0, bounds the campaign wall-clock: scenarios not
	// started before the deadline are skipped (reported, not failed).
	Duration time.Duration
	// Oracles selects which oracles run, by name; empty means all.
	Oracles []string
	// Corpus, when set, receives one replayable directory per finding
	// (minimized scenario + finding metadata + oracle transcript).
	Corpus string
	// Parallel is the harness worker count; < 1 means serial.
	Parallel int
	// Env carries the defect hook into oracle checks (see Defects).
	Env Env
	// Out receives progress notes; nil silences them.
	Out io.Writer
}

// Finding is one oracle violation, already shrunk.
type Finding struct {
	Oracle string `json:"oracle"`
	// Seed and Index locate the generating campaign position; Index is -1
	// for findings on replayed or externally supplied scenarios.
	Seed  uint64 `json:"seed"`
	Index int    `json:"index"`
	// Detail is the oracle's failure message (from the minimized scenario).
	Detail string `json:"detail"`
	// Defect records the active defect hook, if any ("" = real finding).
	Defect string `json:"defect,omitempty"`
	// Transcript is the oracle's diagnostic log from the minimizing run.
	Transcript []string `json:"transcript,omitempty"`
	// Scenario is the minimized failing scenario; Original the generated one.
	Scenario *scenario.Scenario `json:"-"`
	Original *scenario.Scenario `json:"-"`
	// Dir is the corpus entry directory, when one was written.
	Dir string `json:"-"`
}

// Summary is the outcome of one campaign.
type Summary struct {
	Checked  int // scenarios fully checked
	Skipped  int // scenarios not started before the deadline
	Findings []*Finding
}

// Run executes a fuzzing campaign: generate cfg.N scenarios, check each
// against the selected oracles in parallel harness workers (panics become
// structured findings), shrink and record
// every failure. The error reports campaign-infrastructure problems only;
// oracle violations are Findings in the Summary.
func Run(ctx context.Context, cfg Config) (*Summary, error) {
	oracles, err := OraclesByName(cfg.Oracles)
	if err != nil {
		return nil, err
	}
	if cfg.N <= 0 {
		return nil, errors.New("scenfuzz: campaign needs N > 0")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	var mu sync.Mutex
	var findings []*Finding
	jobs := make([]harness.Job, cfg.N)
	for i := range jobs {
		index := i
		jobs[i] = harness.Job{
			ID: fmt.Sprintf("%04d", index),
			Run: func(rc context.Context) (any, error) {
				sc := Generate(cfg.Seed, index)
				f := CheckAll(rc, sc, oracles, cfg.Env)
				if rc.Err() != nil {
					// The deadline landed mid-check: an aborted oracle run is
					// a skip, not a finding.
					return nil, rc.Err()
				}
				if f == nil {
					return "ok", nil
				}
				f.Seed, f.Index = cfg.Seed, index
				f.Shrink(rc, cfg.Env)
				if cfg.Corpus != "" {
					dir, werr := WriteEntry(cfg.Corpus, f)
					if werr != nil {
						return nil, fmt.Errorf("scenfuzz: writing corpus entry: %w", werr)
					}
					f.Dir = dir
				}
				mu.Lock()
				findings = append(findings, f)
				mu.Unlock()
				return "finding:" + f.Oracle, nil
			},
		}
	}

	hcfg := harness.Config{Parallel: cfg.Parallel}
	if cfg.Out != nil {
		hcfg.Logger = slog.New(slog.NewTextHandler(cfg.Out, nil))
	}
	r := harness.New(hcfg)
	results := r.RunContext(ctx, jobs)

	sum := &Summary{Findings: findings}
	for _, res := range results {
		switch {
		case res.Err == nil:
			sum.Checked++
		case errors.Is(res.Err, context.DeadlineExceeded) || errors.Is(res.Err, context.Canceled):
			sum.Skipped++
		default:
			// A job-level error survived CheckAll's panic capture: surface it
			// as a finding rather than dropping it.
			sum.Checked++
			mu.Lock()
			sum.Findings = append(sum.Findings, &Finding{
				Oracle: "harness",
				Seed:   cfg.Seed,
				Detail: res.Err.Error(),
				Defect: cfg.Env.Defect,
			})
			mu.Unlock()
		}
	}
	return sum, nil
}

// CheckAll runs the oracles against one scenario, in order, and returns the
// first violation (nil when all pass). A panic inside an oracle becomes a
// finding attributed to that oracle.
func CheckAll(ctx context.Context, sc *scenario.Scenario, oracles []Oracle, env Env) *Finding {
	for _, o := range oracles {
		if ctx != nil && ctx.Err() != nil {
			return nil
		}
		tr := &Transcript{}
		if err := runOracle(ctx, o, sc, env, tr); err != nil {
			return &Finding{
				Oracle:     o.Name,
				Index:      -1,
				Detail:     err.Error(),
				Defect:     env.Defect,
				Transcript: tr.Lines,
				Scenario:   sc.Clone(),
				Original:   sc.Clone(),
			}
		}
	}
	return nil
}

// runOracle invokes one oracle check, recovering a panic into an ordinary
// violation so a poisoned scenario is still shrunk and recorded instead of
// killing its worker.
func runOracle(ctx context.Context, o Oracle, sc *scenario.Scenario, env Env, tr *Transcript) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("oracle panicked: %v", p)
		}
	}()
	return o.check(ctx, sc, env, tr)
}

// Shrink minimises the finding's scenario while preserving its oracle
// failure, refreshing Detail and Transcript from the minimized reproduction.
func (f *Finding) Shrink(ctx context.Context, env Env) {
	o, ok := oracleByName(f.Oracle)
	if !ok {
		return // harness/panic findings have no re-runnable oracle
	}
	var lastErr error
	var lastTr *Transcript
	min := Shrink(f.Scenario, func(cand *scenario.Scenario) bool {
		tr := &Transcript{}
		err := runOracle(ctx, o, cand, env, tr)
		if err != nil {
			lastErr, lastTr = err, tr
		}
		return err != nil
	})
	f.Scenario = min
	if lastErr != nil {
		f.Detail = lastErr.Error()
		f.Transcript = lastTr.Lines
	}
}
