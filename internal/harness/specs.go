package harness

import (
	"context"
	"encoding/json"
	"fmt"

	"pivot/internal/exp"
	"pivot/internal/scenario"
)

// ScenarioJobs expands a validated scenario into one job per run unit,
// against the context the scenario's machine stanza selects. The returned
// labels parallel the jobs (labels[i] names jobs[i]'s unit) and feed
// exp.ScenarioTable once the harness delivers the results. Each unit runs
// as the figures run it (exp.RunBestMBA): an MBA unit with no mba_level
// searches the throttle ladder for the best level meeting QoS. Each job is
// keyed for the result cache (CachedJobs) by its unit's content; when the
// running executable cannot be read for a build key the jobs stay unkeyed,
// and OpenCache refuses to open, so no unkeyed job ever meets a cache.
func ScenarioJobs(ctx *exp.Context, sc *scenario.Scenario) ([]Job, []string, error) {
	if err := sc.Validate(); err != nil {
		return nil, nil, err
	}
	units, err := sc.Expand()
	if err != nil {
		return nil, nil, err
	}
	build, buildErr := buildKey()
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
				r, _, err := rctx.WithRunContext(rc).RunBestMBA(spec)
				return r, err
			},
		}
		if buildErr == nil {
			jobs[i].Key = CacheKey(build, u.Scenario.MustEncode(), ctx.Scale, ctx.Cfg.Cores, ctx.Dense)
		}
	}
	return jobs, labels, nil
}

// ExperimentJobs builds one job per registered experiment ID. Each job's
// value is the experiment's []*metrics.Table, so the caller renders text or
// CSV after the sweep and one cached entry serves both formats. Each job is
// keyed for the result cache like a scenario unit (see ScenarioJobs), with
// the experiment ID as the unit (experimentUnit).
func ExperimentJobs(ctx *exp.Context, ids []string) ([]Job, error) {
	build, buildErr := buildKey()
	reg := exp.Registry()
	jobs := make([]Job, 0, len(ids))
	for _, id := range ids {
		e, ok := reg[id]
		if !ok {
			return nil, fmt.Errorf("harness: unknown experiment %q", id)
		}
		job := Job{
			ID: e.ID,
			Run: func(rc context.Context) (any, error) {
				return e.Run(ctx.WithRunContext(rc))
			},
		}
		if buildErr == nil {
			job.Key = CacheKey(build, experimentUnit(e.ID), ctx.Scale, ctx.Cfg.Cores, ctx.Dense)
		}
		jobs = append(jobs, job)
	}
	return jobs, nil
}

// experimentUnit is an experiment's cache-key unit: its ID as a JSON
// string, which can never equal a scenario unit's JSON object.
func experimentUnit(id string) []byte {
	raw, _ := json.Marshal(id) // a string always marshals
	return raw
}
