package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"pivot/internal/exp"
	"pivot/internal/metrics"
	"pivot/internal/scenario"
)

// SpecLabel renders a stable, human-readable identity for a RunSpec, used as
// the job ID suffix and in failure summaries.
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

// SpecJobs builds one job per RunSpec against a shared Context. Each job
// derives a deadline-bounded view of ctx from its run context, so the
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

// UnitPayload is the serialisable description of one scenario run unit: the
// canonical encoding of the unit's resolved scenario plus the execution
// settings that shape its result. It is everything a worker process needs to
// reproduce the run bit-identically, and everything a result cache needs to
// key on. Fields deliberately mirror the inputs of exp.Context.Run for a
// scenario unit; anything that can change the result must be here.
type UnitPayload struct {
	// Index and Label locate the unit within its sweep (display only; the
	// cache key excludes them so duplicate units dedupe).
	Index int    `json:"index"`
	Label string `json:"label"`
	// Scenario is the unit's resolved (sweep-free) scenario, canonically
	// encoded; workers strict-parse it back.
	Scenario json.RawMessage `json:"scenario"`
	// Scale, Cores and Dense pin the executing context's configuration.
	Scale exp.Scale `json:"scale"`
	Cores int       `json:"cores"`
	Dense bool      `json:"dense,omitempty"`
	// CkptEvery is the checkpoint interval (simulated cycles) workers apply;
	// 0 means the machine default.
	CkptEvery uint64 `json:"ckpt_every,omitempty"`
}

// ScenarioJobs expands a validated scenario into one job per run unit,
// against the context the scenario's machine stanza selects. The returned
// labels parallel the jobs (labels[i] names jobs[i]'s unit) and feed
// exp.ScenarioTable once the harness delivers the results. Each job also
// carries a UnitPayload so a fabric executor can ship it to worker
// processes instead of running it here.
func ScenarioJobs(ctx *exp.Context, sc *scenario.Scenario) ([]Job, []string, error) {
	if err := sc.Validate(); err != nil {
		return nil, nil, err
	}
	units, err := sc.Expand()
	if err != nil {
		return nil, nil, err
	}
	resolve := ctx.UnitResolver()
	jobs := make([]Job, len(units))
	labels := make([]string, len(units))
	for i, u := range units {
		// Machine-parameter axes give units different configurations; the
		// resolver hands each unit the memoised context for its machine.
		rctx := resolve(u)
		spec, err := rctx.SpecForUnit(u)
		if err != nil {
			return nil, nil, err
		}
		labels[i] = exp.UnitLabel(sc, u)
		jobs[i] = Job{
			ID: fmt.Sprintf("%03d:%s", i, labels[i]),
			Run: func(rc context.Context) (any, error) {
				return rctx.WithRunContext(rc).Run(spec)
			},
			Payload: &UnitPayload{
				Index:     i,
				Label:     labels[i],
				Scenario:  json.RawMessage(u.Scenario.MustEncode()),
				Scale:     ctx.Scale,
				Cores:     ctx.Cfg.Cores,
				Dense:     ctx.Dense,
				CkptEvery: uint64(ctx.CheckpointInterval),
			},
		}
	}
	return jobs, labels, nil
}

// ExperimentJobs builds one job per registered experiment ID. Each job's
// value is the experiment's fully rendered table text (render formats one
// table; nil renders the default text form), so a journal replay reproduces
// the sweep's output byte-for-byte without recomputation.
func ExperimentJobs(ctx *exp.Context, ids []string, render func(*metrics.Table) string) ([]Job, error) {
	if render == nil {
		render = func(t *metrics.Table) string { return t.String() + "\n" }
	}
	reg := exp.Registry()
	jobs := make([]Job, 0, len(ids))
	for _, id := range ids {
		e, ok := reg[id]
		if !ok {
			return nil, fmt.Errorf("harness: unknown experiment %q", id)
		}
		jobs = append(jobs, Job{
			ID: e.ID,
			Run: func(rc context.Context) (any, error) {
				tables, err := e.Run(ctx.WithRunContext(rc))
				if err != nil {
					return nil, err
				}
				var b strings.Builder
				for _, t := range tables {
					b.WriteString(render(t))
				}
				return b.String(), nil
			},
		})
	}
	return jobs, nil
}
