package machine

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"pivot/internal/flight"
	"pivot/internal/mem"
	"pivot/internal/workload"
)

// flightCfg keeps the tests' recorder small but non-trivial.
var flightCfg = flight.Config{TopK: 16, SampleCap: 128}

// buildFlight builds a ckptCase machine with a flight recorder attached.
func (tc ckptCase) buildFlight(t *testing.T, dense bool) *Machine {
	t.Helper()
	m := tc.buildMode(t, dense)
	m.EnableFlight(flightCfg)
	return m
}

// stateBytesNoFlight serialises the machine state with the recorder's own
// section stripped, leaving exactly the bytes a recorder-less machine writes.
func stateBytesNoFlight(t *testing.T, m *Machine) []byte {
	t.Helper()
	s := m.SnapshotState()
	s.Flight = nil
	b, err := encodeState(s)
	if err != nil {
		t.Fatalf("encodeState: %v", err)
	}
	return b
}

// flightJSON renders the machine's tail-attribution report for byte compare.
func flightJSON(t *testing.T, m *Machine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.FlightReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFlightObservationalPurity is the recorder's first contract: attaching it
// must not change one bit of simulated state. For every workload mix, a run
// with the recorder on finishes with machine state (minus the recorder's own
// checkpoint section), result snapshot, and stats dump byte-identical to a run
// with it off.
func TestFlightObservationalPurity(t *testing.T) {
	for _, tc := range ckptCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			off := tc.build(t)
			on := tc.build(t)
			on.EnableFlight(flightCfg)
			if err := off.RunChecked(ctx, ckptWarmup, ckptMeasure); err != nil {
				t.Fatalf("recorder-off run: %v", err)
			}
			if err := on.RunChecked(ctx, ckptWarmup, ckptMeasure); err != nil {
				t.Fatalf("recorder-on run: %v", err)
			}

			if got, want := stateBytesNoFlight(t, on), stateBytes(t, off); !bytes.Equal(got, want) {
				t.Errorf("recorder changed machine state (%d vs %d bytes)", len(got), len(want))
			}
			if on.Fingerprint() != off.Fingerprint() {
				t.Errorf("fingerprints differ: %#x vs %#x", on.Fingerprint(), off.Fingerprint())
			}
			var oj, fj bytes.Buffer
			if err := on.Snapshot().WriteJSON(&oj); err != nil {
				t.Fatal(err)
			}
			if err := off.Snapshot().WriteJSON(&fj); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(oj.Bytes(), fj.Bytes()) {
				t.Error("result snapshot differs with the recorder on")
			}
			if tc.stats {
				var os, fs bytes.Buffer
				if err := on.StatsDump().WriteJSON(&os); err != nil {
					t.Fatal(err)
				}
				if err := off.StatsDump().WriteJSON(&fs); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(os.Bytes(), fs.Bytes()) {
					t.Error("stats dump differs with the recorder on")
				}
			}
			// And the recorder must actually have recorded the measured window.
			if rep := on.FlightReport(); rep.Demand == 0 || len(rep.Slowest) == 0 {
				t.Errorf("recorder saw nothing: %d demand, %d slow", rep.Demand, len(rep.Slowest))
			}
		})
	}
}

// TestFlightDisabledHasNoFootprint mirrors the stats-framework gate test:
// without EnableFlight the machine holds no recorder, requests carry no trace,
// and the per-transition hooks on an untraced request never allocate.
func TestFlightDisabledHasNoFootprint(t *testing.T) {
	tasks := append([]TaskSpec{lcTask(workload.Silo, 5000)}, beTasks(workload.IBench, 3)...)
	m := MustNew(KunpengConfig(4), Options{Policy: PolicyDefault}, tasks)
	if m.flightOn || m.FlightEnabled() || m.flightRec != nil {
		t.Fatal("flight machinery present before EnableFlight")
	}
	m.Run(10_000, 20_000)
	if m.flightOn || m.FlightReport() != nil {
		t.Fatal("running the machine materialised flight machinery")
	}
	m.forEachInFlight(func(r *mem.Req) {
		if r.Trace != nil {
			t.Fatal("in-flight request carries a trace with the recorder off")
		}
	})

	r := &mem.Req{PC: 0x400, Issued: 100}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Enter(mem.CompInterconnect, 100)
		r.Depart(mem.CompInterconnect, 100, 110, 4)
		r.Hop(mem.CompDRAM, 110, 18)
		r.Split = [mem.NumComponents]uint32{}
	})
	if allocs != 0 {
		t.Fatalf("disabled-path span hooks allocate %.2f objects/op, want 0", allocs)
	}
}

// TestFlightReportSkipAheadEquivalence extends the dense-vs-skip-ahead proof
// to the recorder: both modes must finish with byte-identical serialised
// machine state (now including the recorder section) and a byte-identical
// tail-attribution report.
func TestFlightReportSkipAheadEquivalence(t *testing.T) {
	for _, tc := range ckptCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dense := tc.buildFlight(t, true)
			skip := tc.buildFlight(t, false)
			if err := dense.RunChecked(ctx, ckptWarmup, ckptMeasure); err != nil {
				t.Fatalf("dense run: %v", err)
			}
			if err := skip.RunChecked(ctx, ckptWarmup, ckptMeasure); err != nil {
				t.Fatalf("skip run: %v", err)
			}
			if got, want := stateBytes(t, skip), stateBytes(t, dense); !bytes.Equal(got, want) {
				t.Errorf("machine+recorder state differs between modes (%d vs %d bytes)", len(got), len(want))
			}
			got, want := flightJSON(t, skip), flightJSON(t, dense)
			if !bytes.Equal(got, want) {
				t.Errorf("flight report differs between modes:\n--- skip ---\n%s\n--- dense ---\n%s", got, want)
			}
			if rep := skip.FlightReport(); rep.Demand == 0 {
				t.Error("recorder saw no demand requests")
			}
		})
	}
}

// TestFlightReportKillResume proves the recorder is checkpoint-aware: a
// skip-ahead run killed mid-measure and resumed from its checkpoints must
// produce the exact report of an uninterrupted dense run — including the span
// chains of requests that were in flight at the kill point.
func TestFlightReportKillResume(t *testing.T) {
	tc := ckptCases()[0]
	ctx := context.Background()

	ref := tc.buildFlight(t, true)
	if err := ref.RunChecked(ctx, ckptWarmup, ckptMeasure); err != nil {
		t.Fatalf("dense reference: %v", err)
	}

	dir := t.TempDir()
	cc := CheckpointConfig{Dir: dir, Interval: ckptInterval, Keep: 3}

	killed := tc.buildFlight(t, false)
	killed.Opt.MaxCycles = 72_000 // mid-measure, off any interval boundary
	if _, err := killed.RunCheckpointed(ctx, ckptWarmup, ckptMeasure, cc); !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("killed run: err = %v, want cycle-budget abort", err)
	}

	resumed := tc.buildFlight(t, false)
	from, err := resumed.RunCheckpointed(ctx, ckptWarmup, ckptMeasure, cc)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if from < 72_000 {
		t.Fatalf("resumed from cycle %d, want the abort flush at >= 72000", from)
	}
	if !bytes.Equal(stateBytes(t, resumed), stateBytes(t, ref)) {
		t.Error("kill-and-resume machine+recorder state differs from uninterrupted run")
	}
	got, want := flightJSON(t, resumed), flightJSON(t, ref)
	if !bytes.Equal(got, want) {
		t.Errorf("kill-and-resume flight report differs:\n--- resumed ---\n%s\n--- reference ---\n%s", got, want)
	}
}

// TestFlightRestoreRequiresRecorderState: a machine with a recorder must
// refuse (and fall back from) a snapshot that has no flight section, or a
// mid-run resume would silently drop the span history.
func TestFlightRestoreRequiresRecorderState(t *testing.T) {
	tc := ckptCases()[0]
	src := tc.build(t)
	src.Run(5_000, 5_000)
	s := src.SnapshotState()

	dst := tc.build(t)
	dst.EnableFlight(flightCfg)
	if err := dst.RestoreState(s); err == nil {
		t.Error("recorder-equipped machine accepted a snapshot without flight state")
	}

	// The reverse direction is observational: a recorder-less machine applies
	// a flight-carrying snapshot and simply drops the recording.
	srcF := tc.build(t)
	srcF.EnableFlight(flightCfg)
	srcF.Run(5_000, 5_000)
	sf := srcF.SnapshotState()
	plain := tc.build(t)
	if err := plain.RestoreState(sf); err != nil {
		t.Errorf("recorder-less machine rejected a flight-carrying snapshot: %v", err)
	}
}
