package exp

import (
	"fmt"
	"sort"

	"pivot/internal/machine"
	"pivot/internal/metrics"
	"pivot/internal/workload"
)

// Experiment is one reproducible unit: a paper figure, table or text result.
type Experiment struct {
	ID    string
	Brief string
	Run   func(ctx *Context) ([]*metrics.Table, error)
}

func one(f func(ctx *Context) (*metrics.Table, error)) func(ctx *Context) ([]*metrics.Table, error) {
	return func(ctx *Context) ([]*metrics.Table, error) {
		t, err := f(ctx)
		if err != nil {
			return nil, err
		}
		return []*metrics.Table{t}, nil
	}
}

// Registry returns every experiment by id.
func Registry() map[string]Experiment {
	return map[string]Experiment{
		"fig1":      {"fig1", "normalized p95 under Default/MBA/MPAM/PIVOT", one((*Context).Fig01)},
		"fig2":      {"fig2", "bandwidth utilisation per approach", one((*Context).Fig02)},
		"fig3":      {"fig3", "max iBench throughput under QoS", one((*Context).Fig03)},
		"fig5":      {"fig5", "cycle split of Masstree critical loads", one((*Context).Fig05)},
		"fig6":      {"fig6", "p95 vs BE threads under FullPath", one((*Context).Fig06)},
		"fig7":      {"fig7", "leave-one-out MSC priority", one((*Context).Fig07)},
		"fig8":      {"fig8", "CDF of loads vs ROB stall cycles", one((*Context).Fig08)},
		"fig12":     {"fig12", "load-latency curves, knees, max load", one((*Context).Fig12)},
		"fig13":     {"fig13", "1 LC + iBench: BE throughput per method", one((*Context).Fig13)},
		"fig13emu":  {"fig13emu", "EMU summary of fig13", one((*Context).Fig13EMU)},
		"fig14":     {"fig14", "normalized p95 behind fig13", one((*Context).Fig14)},
		"fig15":     {"fig15", "2 LC + iBench heatmaps", (*Context).Fig15},
		"fig16":     {"fig16", "CloudSuite single-BE scenarios", one((*Context).Fig16)},
		"fig17":     {"fig17", "2 LC + 2 BE CloudSuite scenarios", one((*Context).Fig17)},
		"fig18":     {"fig18", "2-LC co-location frontiers", (*Context).Fig18},
		"fig19":     {"fig19", "3-LC co-location frontier", one((*Context).Fig19)},
		"fig20":     {"fig20", "criticality predictor comparison", one((*Context).Fig20)},
		"fig21":     {"fig21", "run-alone IPC and p95 at 70%", one((*Context).Fig21)},
		"fig22":     {"fig22", "RRBP table-size sensitivity", one((*Context).Fig22)},
		"sens":      {"sens", "refresh interval + profiling parameter sensitivity", (*Context).Sensitivity},
		"fig23":     {"fig23", "fig13 on Neoverse (PIVOT vs CLITE)", one((*Context).Fig23)},
		"fig24":     {"fig24", "fig16 on Neoverse", one((*Context).Fig24)},
		"fig25":     {"fig25", "fig17 on Neoverse", one((*Context).Fig25)},
		"hybrid":    {"hybrid", "extension (§VII): hybrid strong isolation", one((*Context).Hybrid)},
		"noprofile": {"noprofile", "extension (§VII): PIVOT without offline profiling", one((*Context).NoProfile)},
		"prefetch":  {"prefetch", "ablation: explicit stride prefetcher", one((*Context).PrefetchAblation)},
		"table1":    {"table1", "workload inventory", one((*Context).Table1)},
		"table2":    {"table2", "Kunpeng-like configuration", one((*Context).Table2)},
		"table3":    {"table3", "Neoverse-like configuration", one((*Context).Table3)},
		"storage":   {"storage", "§IV-E per-PE storage budget", one((*Context).Storage)},
	}
}

// IDs returns the registered experiment ids, sorted for stable CLI output.
func IDs() []string {
	reg := Registry()
	out := make([]string, 0, len(reg))
	for id := range reg {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Table1 — the workload inventory of Table I.
func (ctx *Context) Table1() (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Table I: LC and BE workloads",
		Headers: []string{"kind", "name", "stands in for"},
	}
	desc := map[string]string{
		workload.ImgDNN:   "image recognition (Tailbench)",
		workload.Moses:    "real-time translation (Tailbench)",
		workload.Xapian:   "online search (Tailbench)",
		workload.Silo:     "in-memory transaction database (Tailbench)",
		workload.Masstree: "key-value store (Tailbench)",
	}
	for _, name := range workload.LCNames() {
		t.AddRow("LC", name, desc[name])
	}
	t.AddRow("BE", workload.DataAn, "Bayes classification on Wikimedia (CloudSuite)")
	t.AddRow("BE", workload.GraphAn, "PageRank on Twitter (CloudSuite)")
	t.AddRow("BE", workload.InMemAn, "collaborative filtering (CloudSuite)")
	t.AddRow("BE", workload.IBench, "massive streaming read/write (iBench)")
	t.AddRow("BE", workload.StressCopy, "offline-profiling stress task (§V-B)")
	return t, nil
}

// Table2 — the Kunpeng-like configuration actually instantiated.
func (ctx *Context) Table2() (*metrics.Table, error) {
	return configTable("Table II (Kunpeng-like)", ctx.Cfg), nil
}

// Table3 — the Neoverse-like configuration actually instantiated.
func (ctx *Context) Table3() (*metrics.Table, error) {
	return configTable("Table III (Neoverse-like)", machine.NeoverseConfig(ctx.Cfg.Cores)), nil
}

func configTable(title string, cfg machine.Config) *metrics.Table {
	t := &metrics.Table{Title: title, Headers: []string{"parameter", "value"}}
	t.AddRow("cores", fmt.Sprint(cfg.Cores))
	t.AddRow("L1D", fmt.Sprintf("%dKB %d-way, %d-cycle hit, %d MSHRs",
		cfg.L1.SizeBytes>>10, cfg.L1.Ways, cfg.L1.HitCycles, cfg.L1.MSHRs))
	t.AddRow("L2", fmt.Sprintf("%dKB %d-way, %d-cycle hit, %d MSHRs",
		cfg.L2.SizeBytes>>10, cfg.L2.Ways, cfg.L2.HitCycles, cfg.L2.MSHRs))
	t.AddRow("LLC", fmt.Sprintf("%dMB %d-way, %d-cycle hit, %d MSHRs",
		cfg.LLC.SizeBytes>>20, cfg.LLC.Ways, cfg.LLC.HitCycles, cfg.LLC.MSHRs))
	t.AddRow("ROB", fmt.Sprint(cfg.Core.ROBSize))
	t.AddRow("fetch/issue/commit", fmt.Sprintf("%d/%d/%d",
		cfg.Core.FetchWidth, cfg.Core.IssueWidth, cfg.Core.CommitWidth))
	t.AddRow("LQ/SQ", fmt.Sprintf("%d/%d", cfg.Core.LQSize, cfg.Core.SQSize))
	t.AddRow("DRAM", fmt.Sprintf("%d banks, burst %d cyc, CAS %d, RP %d, RCD %d",
		cfg.DRAM.Banks, cfg.DRAM.TBurst, cfg.DRAM.TCAS, cfg.DRAM.TRP, cfg.DRAM.TRCD))
	return t
}

// Storage — the §IV-E per-PE storage budget (1045 bits).
func (ctx *Context) Storage() (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "§IV-E: PIVOT per-PE storage budget (bits)",
		Headers: []string{"component", "bits"},
	}
	t.AddRow("sequence-number register", "8")
	t.AddRow("RRBP index register", "5")
	t.AddRow("sequence comparator", "8")
	t.AddRow("ROB potential-critical bits (192x1)", "192")
	t.AddRow("RRBP table (64x6)", "384")
	t.AddRow("load-queue bits (64x7)", "448")
	t.AddRow("total", fmt.Sprint(8+5+8+192+384+448))
	return t, nil
}
