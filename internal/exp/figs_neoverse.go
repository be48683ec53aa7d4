package exp

import "pivot/internal/metrics"

// Fig23 — Figure 13's 1 LC + iBench sweep on the ARM Neoverse-like CPU,
// PIVOT vs CLITE.
func (ctx *Context) Fig23() (*metrics.Table, error) {
	return ctx.grid(ctx.builtin("fig23"), "Figure 23 (Neoverse): max iBench throughput (%) vs LC load",
		byAppLoad, byPolicy, maxBE(true))
}

// Fig24 — Figure 16's CloudSuite single-BE scenarios on Neoverse.
func (ctx *Context) Fig24() (*metrics.Table, error) {
	return ctx.cloudSuite(ctx.builtin("fig24"),
		"Figure 24 (Neoverse): CloudSuite BE throughput (norm), 2 LC @40%")
}

// Fig25 — Figure 17's 2 LC + 2 BE scenarios on Neoverse.
func (ctx *Context) Fig25() (*metrics.Table, error) {
	return ctx.cloudSuite(ctx.builtin("fig25"),
		"Figure 25 (Neoverse): 2 LC + 2 BE throughput (norm) + bandwidth")
}
