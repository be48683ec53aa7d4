package machine

import (
	"testing"

	"pivot/internal/workload"
)

// TestStallCDF inspects the per-static-load ROB stall distribution, which
// must reproduce Figure 8's shape: a small fraction of static loads causes
// the overwhelming majority of ROB stall cycles.
func TestStallCDF(t *testing.T) {
	for _, app := range []string{workload.ImgDNN, workload.Silo, workload.Moses} {
		prof := RunProfilerOpt(KunpengConfig(8), workload.LCApps()[app], 7, 1, 600_000, Options{})
		stats := prof.Stats()
		var total uint64
		for _, s := range stats {
			total += s.StallCycles
		}
		var cum uint64
		top := len(stats) / 10
		if top < 1 {
			top = 1
		}
		for i := 0; i < top; i++ {
			cum += stats[i].StallCycles
		}
		t.Logf("%-8s staticLoads=%3d top10%%ofLoads=%2d stallShare=%.3f", app, len(stats), top, float64(cum)/float64(total))
		for i := 0; i < 8 && i < len(stats); i++ {
			s := stats[i]
			t.Logf("   pc=%#x execs=%7d missRate=%.2f stall=%9d (%.3f)",
				s.PC, s.Execs, s.MissRate(), s.StallCycles, float64(s.StallCycles)/float64(total))
		}
	}
}
