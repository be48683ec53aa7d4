package flight

import (
	"sort"

	"pivot/internal/mem"
)

// TraceState is the serialised span chain of one still-in-flight request.
type TraceState struct {
	Spans []mem.Span
}

// RecorderState is the recorder's fully exported serialisable form. It holds
// no maps (per-PC aggregates are sorted by PC) so its gob encoding is
// deterministic, matching the machine state's byte-compare discipline. Live
// carries the span chains of requests that were in flight at snapshot time,
// in the machine's deterministic walk order, so two engines that disagree
// about an unfinished request's history produce different state.
type RecorderState struct {
	Cfg        Config
	Seq        uint64
	Prefetches uint64
	Writes     uint64
	SumLat     uint64
	MaxLat     uint64
	Split      [mem.NumComponents]uint64
	Wait       [mem.NumComponents]uint64
	Top        []SlowReq // heap order
	Res        []Life
	Rng        uint64
	PCs        []PCAgg
	Live       []TraceState
}

// State captures the recorder, including the given in-flight span chains.
func (rec *Recorder) State(live []*mem.Trace) *RecorderState {
	s := &RecorderState{
		Cfg: rec.cfg, Seq: rec.seq, Prefetches: rec.prefetches,
		Writes: rec.writes, SumLat: rec.sumLat, MaxLat: rec.maxLat,
		Split: rec.split, Wait: rec.wait, Rng: rec.rng,
	}
	s.Top = make([]SlowReq, len(rec.top))
	for i, t := range rec.top {
		s.Top[i] = t
		s.Top[i].Spans = append([]mem.Span(nil), t.Spans...)
	}
	s.Res = append([]Life(nil), rec.res...)
	s.PCs = make([]PCAgg, 0, len(rec.perPC))
	for _, agg := range rec.perPC {
		s.PCs = append(s.PCs, *agg)
	}
	sort.Slice(s.PCs, func(i, j int) bool { return s.PCs[i].PC < s.PCs[j].PC })
	s.Live = make([]TraceState, len(live))
	for i, t := range live {
		if t != nil {
			s.Live[i].Spans = append([]mem.Span(nil), t.Spans...)
		}
	}
	return s
}
