package machine

import (
	"bytes"
	"context"
	"testing"

	"pivot/internal/flight"
	"pivot/internal/mem"
	"pivot/internal/workload"
)

// flightCfg keeps the tests' recorder small but non-trivial.
var flightCfg = flight.Config{TopK: 16, SampleCap: 128}

// buildFlight builds a mixCase machine with a flight recorder attached.
func (tc mixCase) buildFlight(t *testing.T, dense bool) *Machine {
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
// state section), result snapshot, and stats dump byte-identical to a run
// with it off.
func TestFlightObservationalPurity(t *testing.T) {
	for _, tc := range mixCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			off := tc.build(t)
			on := tc.build(t)
			on.EnableFlight(flightCfg)
			if err := off.RunChecked(ctx, mixWarmup, mixMeasure); err != nil {
				t.Fatalf("recorder-off run: %v", err)
			}
			if err := on.RunChecked(ctx, mixWarmup, mixMeasure); err != nil {
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
	for _, tc := range mixCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dense := tc.buildFlight(t, true)
			skip := tc.buildFlight(t, false)
			if err := dense.RunChecked(ctx, mixWarmup, mixMeasure); err != nil {
				t.Fatalf("dense run: %v", err)
			}
			if err := skip.RunChecked(ctx, mixWarmup, mixMeasure); err != nil {
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
