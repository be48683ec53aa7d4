package exp

import (
	"bytes"
	"testing"

	"pivot/internal/workload"
)

// fig1Spec is the Fig 1 motivation mix (one LC vs the iBench stressor) with a
// pinned inter-arrival so no calibration sweep runs.
func fig1Spec() RunSpec {
	return RunSpec{
		Method: MethodDefault(),
		LCs:    []LCSpec{{App: workload.ImgDNN, Interarrival: 5000}},
		BEs:    []BESpec{{App: workload.IBench, Threads: 2}},
	}
}

// flightCtx is a tiny harness context with the flight recorder armed.
func flightCtx() *Context {
	ctx := tinyCtx()
	ctx.FlightTop = 16
	ctx.FlightSample = 128
	return ctx
}

// reportJSON runs the spec on ctx and renders the captured report.
func reportJSON(t *testing.T, ctx *Context, spec RunSpec) []byte {
	t.Helper()
	if _, err := ctx.Run(spec); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := ctx.LastFlight()
	if rep == nil {
		t.Fatal("flight-armed run captured no report")
	}
	if rep.Demand == 0 || len(rep.Slowest) == 0 {
		t.Fatalf("degenerate report: %d demand, %d slow", rep.Demand, len(rep.Slowest))
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFlightReportStableAcrossModes: at the harness level, the Fig 1 mix's
// tail-attribution report must be byte-identical whether the run executed
// dense or skip-ahead.
func TestFlightReportStableAcrossModes(t *testing.T) {
	spec := fig1Spec()

	dense := flightCtx()
	dense.Dense = true
	denseRep := reportJSON(t, dense, spec)

	skip := flightCtx()
	skipRep := reportJSON(t, skip, spec)

	if !bytes.Equal(denseRep, skipRep) {
		t.Errorf("report differs dense vs skip-ahead:\n--- dense ---\n%s\n--- skip ---\n%s", denseRep, skipRep)
	}
}
