package scenfuzz

import (
	"pivot/internal/scenario"
)

// maxShrinkSteps bounds the number of accepted simplifications; each step
// strictly shrinks the scenario, so real shrinks converge far earlier — the
// bound only guards against a pathological predicate.
const maxShrinkSteps = 200

// Predicate reports whether a candidate scenario still triggers the failure
// being minimised (the same oracle failing, under the same Env).
type Predicate func(*scenario.Scenario) bool

// Shrink greedily minimises a failing scenario: it proposes simplifications
// in decreasing order of aggressiveness — drop the sweep, drop tasks,
// collapse thread counts, zero options, halve the run windows — and accepts
// any candidate that still fails, until no candidate does (a fixed point).
// The input must satisfy keep; the result does too, and is valid.
func Shrink(sc *scenario.Scenario, keep Predicate) *scenario.Scenario {
	cur := sc.Clone()
	for step := 0; step < maxShrinkSteps; step++ {
		accepted := false
		for _, cand := range candidates(cur) {
			if cand.Validate() != nil {
				continue
			}
			if keep(cand) {
				cur = cand
				accepted = true
				break
			}
		}
		if !accepted {
			return cur
		}
	}
	return cur
}

// candidates proposes one-step simplifications of sc, most aggressive first.
// Every candidate is a fresh clone; none aliases sc's mutable parts.
func candidates(sc *scenario.Scenario) []*scenario.Scenario {
	var out []*scenario.Scenario
	mut := func(fn func(*scenario.Scenario)) {
		c := sc.Clone()
		fn(c)
		out = append(out, c)
	}

	// Whole-stanza drops first: one accepted candidate here removes an
	// entire dimension of the search space.
	if len(sc.Sweep) > 0 {
		mut(func(c *scenario.Scenario) { c.Sweep = nil })
		for i := range sc.Sweep {
			i := i
			if len(sc.Sweep) > 1 {
				mut(func(c *scenario.Scenario) {
					c.Sweep = append(append([]scenario.Axis{}, c.Sweep[:i]...), c.Sweep[i+1:]...)
				})
			}
		}
	}
	if len(sc.Tasks) > 1 {
		for i := range sc.Tasks {
			i := i
			mut(func(c *scenario.Scenario) {
				// Dropping a task can invalidate task-indexed sweep axes;
				// drop the sweep along with it (the sweep-only candidates
				// above try keeping it).
				c.Tasks = append(append([]scenario.Task{}, c.Tasks[:i]...), c.Tasks[i+1:]...)
				c.Sweep = nil
			})
		}
	}
	for i := range sc.Tasks {
		i := i
		if sc.Tasks[i].Threads > 1 {
			mut(func(c *scenario.Scenario) { c.Tasks[i].Threads = 1 })
		}
		if sc.Tasks[i].ExpectedBW != 0 {
			mut(func(c *scenario.Scenario) { c.Tasks[i].ExpectedBW = 0 })
		}
	}
	o := sc.Options
	if o.ExpectedLCBW != 0 {
		mut(func(c *scenario.Scenario) { c.Options.ExpectedLCBW = 0 })
	}
	if o.RRBPEntries != 0 {
		mut(func(c *scenario.Scenario) { c.Options.RRBPEntries = 0 })
	}
	if o.MBALevel != 0 {
		mut(func(c *scenario.Scenario) { c.Options.MBALevel = 0 })
	}
	if o.DisableMSC != "" {
		mut(func(c *scenario.Scenario) { c.Options.DisableMSC = "" })
	}
	if o.Prefetch {
		mut(func(c *scenario.Scenario) { c.Options.Prefetch = false })
	}
	if o.NoStarvationGuard {
		mut(func(c *scenario.Scenario) { c.Options.NoStarvationGuard = false })
	}
	if sc.Machine.BEWays != 0 {
		mut(func(c *scenario.Scenario) { c.Machine.BEWays = 0 })
	}
	if sc.Warmup/2 >= 1_000 {
		mut(func(c *scenario.Scenario) { c.Warmup = c.Warmup / 2 })
	}
	if sc.Measure/2 >= 2_000 {
		mut(func(c *scenario.Scenario) { c.Measure = c.Measure / 2 })
	}
	if sc.Seed > 1 {
		mut(func(c *scenario.Scenario) { c.Seed = 1 })
	}
	if sc.Brief != "" {
		mut(func(c *scenario.Scenario) { c.Brief = "" })
	}
	return out
}
