package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"

	"pivot/internal/stats"
)

// TestProgressEndpointDuringSweep hits the /progress HTTP endpoint
// continuously while a parallel sweep feeds the telemetry counters from
// several worker goroutines — under `go test -race` this proves live
// telemetry reads never race the run. It also checks the snapshot arithmetic:
// after the sweep, units and cycles must add up.
func TestProgressEndpointDuringSweep(t *testing.T) {
	p := stats.NewProgress()
	addr, err := stats.ServeDebugWith("127.0.0.1:0", p)
	if err != nil {
		t.Fatalf("ServeDebugWith: %v", err)
	}
	url := "http://" + addr + "/progress"

	const jobs, cyclesPerJob = 12, 2000
	r := New(Config{Parallel: 4, Progress: p})
	var js []Job
	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("unit-%02d", i)
		js = append(js, Job{ID: id, Run: func(context.Context) (any, error) {
			p.SetGoal(cyclesPerJob)
			for c := 0; c <= cyclesPerJob; c += 100 {
				p.SetCycle(uint64(c))
			}
			return id, nil
		}})
	}

	stop := make(chan struct{})
	var polls atomic.Int64
	go func() {
		defer close(stop)
		for polls.Load() == 0 || p.Snapshot().UnitsDone < jobs {
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("GET /progress: %v", err)
				return
			}
			var snap stats.ProgressSnapshot
			if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
				t.Errorf("decode /progress: %v", err)
				resp.Body.Close()
				return
			}
			resp.Body.Close()
			if snap.UnitsDone > snap.UnitsTotal {
				t.Errorf("snapshot reports %d/%d units", snap.UnitsDone, snap.UnitsTotal)
				return
			}
			polls.Add(1)
		}
	}()

	results := r.Run(js)
	<-stop
	if n := Failed(results); n != 0 {
		t.Fatalf("%d jobs failed", n)
	}
	if polls.Load() == 0 {
		t.Fatal("the poller never read /progress")
	}

	snap := p.Snapshot()
	if snap.UnitsDone != jobs || snap.UnitsTotal != jobs || snap.UnitsFailed != 0 {
		t.Errorf("final snapshot %d/%d done (%d failed), want %d/%d (0)",
			snap.UnitsDone, snap.UnitsTotal, snap.UnitsFailed, jobs, jobs)
	}
	// Parallel workers share the active-cycle counter (last writer wins by
	// design), so the folded total is a lower bound, not an exact sum.
	if snap.TotalCycles == 0 {
		t.Error("no cycles folded into the completed-units base")
	}
}

// TestProgressNilSafe: every telemetry hook must be callable on a nil feed,
// because the harness and machine call them unconditionally.
func TestProgressNilSafe(t *testing.T) {
	var p *stats.Progress
	p.SetCycle(1)
	p.SetGoal(1)
	p.SetUnits(1)
	p.UnitDone(true)
	p.SetLabel("x")
}
