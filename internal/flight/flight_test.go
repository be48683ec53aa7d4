package flight

import (
	"bytes"
	"encoding/gob"
	"testing"

	"pivot/internal/mem"
	"pivot/internal/sim"
)

// feed records one synthetic demand completion with the given span chain.
// Split is derived from the spans so lifecycle totals stay self-consistent.
func feed(rec *Recorder, pc uint64, issued, done sim.Cycle, spans ...mem.Span) {
	r := &mem.Req{PC: pc, Addr: pc ^ 0xabcd, CoreID: 1, LCTask: true, Issued: issued}
	tr := rec.StartTrace()
	for _, sp := range spans {
		tr.Spans = append(tr.Spans, sp)
		r.Split[sp.Comp] += uint32(sp.Wait + sp.Service)
	}
	r.Trace = tr
	rec.Complete(r, done)
}

func span(c mem.Component, start, wait, service sim.Cycle) mem.Span {
	return mem.Span{Comp: c, Start: start, Wait: wait, Service: service}
}

// gobBytes is the determinism yardstick: the machine's StateBytes gob-encode
// RecorderState, so equality here is equality in the differential oracles.
func gobBytes(t *testing.T, s *RecorderState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatalf("gob: %v", err)
	}
	return buf.Bytes()
}

// drive replays a fixed 200-request stream with a spread of latencies and PCs.
func drive(rec *Recorder) {
	for i := 0; i < 200; i++ {
		pc := uint64(0x400 + 8*(i%5))
		issued := sim.Cycle(100 * i)
		lat := sim.Cycle(40 + (i*37)%400)
		feed(rec, pc, issued, issued+lat,
			span(mem.CompL2, issued, 0, 10),
			span(mem.CompMemCtrl, issued+10, lat-30, 0),
			span(mem.CompDRAM, issued+lat-20, 0, 20))
	}
}

func TestTopKKeepsSlowestInOrder(t *testing.T) {
	rec := New(Config{TopK: 8, SampleCap: 64})
	drive(rec)
	rep := rec.Report()
	if rep.Demand != 200 {
		t.Fatalf("demand = %d, want 200", rep.Demand)
	}
	if len(rep.Slowest) != 8 {
		t.Fatalf("kept %d slow requests, want 8", len(rep.Slowest))
	}
	for i := 1; i < len(rep.Slowest); i++ {
		a, b := rep.Slowest[i-1], rep.Slowest[i]
		if a.Latency < b.Latency || (a.Latency == b.Latency && a.Seq > b.Seq) {
			t.Errorf("slowest[%d..%d] out of order: (lat %d, seq %d) then (lat %d, seq %d)",
				i-1, i, a.Latency, a.Seq, b.Latency, b.Seq)
		}
		if len(rep.Slowest[i].Spans) == 0 {
			t.Errorf("slowest[%d] lost its span chain", i)
		}
	}
	// The overall max must be the top entry: top-K saw every completion.
	if rep.Slowest[0].Latency != rep.Overall.Max {
		t.Errorf("slowest[0] latency %d != overall max %d", rep.Slowest[0].Latency, rep.Overall.Max)
	}
}

func TestIdenticalStreamsAreByteIdentical(t *testing.T) {
	a, b := New(Config{TopK: 4, SampleCap: 32}), New(Config{TopK: 4, SampleCap: 32})
	drive(a)
	drive(b)
	if !bytes.Equal(gobBytes(t, a.State(nil)), gobBytes(t, b.State(nil))) {
		t.Error("identical streams produced different recorder states")
	}
	var ra, rb bytes.Buffer
	if err := a.Report().WriteJSON(&ra); err != nil {
		t.Fatal(err)
	}
	if err := b.Report().WriteJSON(&rb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ra.Bytes(), rb.Bytes()) {
		t.Error("identical streams produced different reports")
	}
}

func TestResetRestoresDeterminism(t *testing.T) {
	rec := New(Config{TopK: 4, SampleCap: 32})
	drive(rec)
	first := gobBytes(t, rec.State(nil))
	rec.Reset()
	if rec.Demand() != 0 || len(rec.Report().Slowest) != 0 {
		t.Fatal("Reset left recordings behind")
	}
	drive(rec)
	if !bytes.Equal(first, gobBytes(t, rec.State(nil))) {
		t.Error("replay after Reset differs from the first recording (RNG not restored?)")
	}
}

func TestPrefetchesCountedNotAttributed(t *testing.T) {
	rec := New(Config{})
	r := &mem.Req{PC: 0x400, Prefetch: true, Issued: 10, Trace: rec.StartTrace()}
	rec.Complete(r, 50)
	if rec.Demand() != 0 || rec.Prefetches() != 1 {
		t.Fatalf("demand=%d prefetches=%d, want 0/1", rec.Demand(), rec.Prefetches())
	}
	if rep := rec.Report(); len(rep.PCs) != 0 || rep.Overall.Count != 0 {
		t.Error("prefetch leaked into the attribution report")
	}
}

func TestReportWaitAttribution(t *testing.T) {
	rec := New(Config{TopK: 4, SampleCap: 16})
	// One request: 10 cycles of L2 service, 30 queued + 0 served at the memory
	// controller, 20 of DRAM service.
	feed(rec, 0x400, 0, 60,
		span(mem.CompL2, 0, 0, 10),
		span(mem.CompMemCtrl, 10, 30, 0),
		span(mem.CompDRAM, 40, 0, 20))
	rep := rec.Report()
	mc := rep.Components[mem.CompMemCtrl]
	if mc.MeanCycles != 30 || mc.MeanWait != 30 || mc.TailWaitFrac != 1 {
		t.Errorf("MemCtrl row = %+v, want 30 cycles all wait", mc)
	}
	if l2 := rep.Components[mem.CompL2]; l2.MeanWait != 0 || l2.MeanCycles != 10 {
		t.Errorf("L2 row = %+v, want pure 10-cycle service", l2)
	}
	if len(rep.PCs) != 1 || rep.PCs[0].TopWait != "MemCtrl" {
		t.Errorf("per-PC rows = %+v, want top wait at MemCtrl", rep.PCs)
	}
	if rep.PCs[0].TopComp != "MemCtrl" {
		t.Errorf("top component = %s, want MemCtrl (30 of 60 cycles)", rep.PCs[0].TopComp)
	}
}
