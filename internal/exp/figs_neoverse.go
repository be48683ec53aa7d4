package exp

import (
	"pivot/internal/machine"
	"pivot/internal/metrics"
	"pivot/internal/scenario"
)

// sibling builds a context over another machine configuration: every knob
// (scale, robustness, observability, checkpointing, run context) carries
// over, but the calibration caches start empty — knees shift with the deeper
// ROB and faster LLC. The capture of the most recent instrumented run is
// shared, so LastStats/LastTimeline/LastFlight on the original context see
// runs executed on the sibling.
func (ctx *Context) sibling(cfg machine.Config) *Context {
	out := *ctx
	out.Cfg = cfg
	out.sh = newShared(ctx.sh.cap)
	return &out
}

// neoverse is the Table III sibling machine.
func (ctx *Context) neoverse() *Context {
	return ctx.sibling(machine.NeoverseConfig(ctx.Cfg.Cores))
}

// Fig23 — Figure 13's 1 LC + iBench sweep on the ARM Neoverse-like CPU,
// PIVOT vs CLITE.
func (ctx *Context) Fig23() (*metrics.Table, error) {
	return ctx.grid("fig23", "Figure 23 (Neoverse): max iBench throughput (%) vs LC load",
		byAppLoad, byPolicy, maxBE(true))
}

// Fig24 — Figure 16's CloudSuite single-BE scenarios on Neoverse.
func (ctx *Context) Fig24() (*metrics.Table, error) {
	sc := scenario.MustBuiltin("fig24")
	t := &metrics.Table{
		Title:   "Figure 24 (Neoverse): CloudSuite BE throughput (norm), 2 LC @40%",
		Headers: []string{"scenario", "method", "BE tput", "BW util", "QoS"},
	}
	if err := ctx.ForScenario(sc).fig16Body(t, sc); err != nil {
		return nil, err
	}
	return t, nil
}

// Fig25 — Figure 17's 2 LC + 2 BE scenarios on Neoverse.
func (ctx *Context) Fig25() (*metrics.Table, error) {
	sc := scenario.MustBuiltin("fig25")
	t := &metrics.Table{
		Title:   "Figure 25 (Neoverse): 2 LC + 2 BE throughput (norm) + bandwidth",
		Headers: []string{"scenario", "method", "BE tput", "BW util", "QoS"},
	}
	if err := ctx.ForScenario(sc).fig17Body(t, sc); err != nil {
		return nil, err
	}
	return t, nil
}
