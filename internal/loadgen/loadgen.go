// Package loadgen drives latency-critical cores with a deterministic
// request arrival process described by an internal/load model — stationary
// open/closed-loop Poisson by default, or shaped (phase curves, on-off
// bursts, activity windows) for datacenter-realistic dynamics — and
// measures per-request service latency, from which the experiment harness
// derives 95th-percentile tail latency, load-latency curves, QoS knees and
// max load (Fig 12).
package loadgen

import (
	"sort"

	"pivot/internal/cpu"
	"pivot/internal/load"
	"pivot/internal/sim"
	"pivot/internal/workload"
)

// Source is an LC core's instruction stream: it queues request arrivals
// drawn from its load model and emits each queued request's program in FIFO
// order. It implements cpu.Stream; wire OnReqEnd into the core's hooks.
type Source struct {
	gen   *workload.ReqGen
	model load.Model
	now   func() sim.Cycle

	nextArrival sim.Cycle
	hasNext     bool // false once the model has ceased (open loop only)

	backlog  []uint64 // reqIDs awaiting service
	arrival  []sim.Cycle
	reqPhase []uint8 // load-model phase tag per admitted request

	buf    []cpu.MicroOp
	bufPos int

	latencies  []uint32 // completed request latencies (cycles)
	started    uint64
	completed  uint64
	latDropped uint64   // completions past the latency-record cap
	phaseDone  []uint64 // completions per load-model phase
	dropAfter  int      // cap on recorded latencies to bound memory
}

// New builds a source driving requests from model. clock supplies the
// current cycle. The model's first arrival is drawn here, eagerly, so the
// source can always quote its exact next-work cycle to the skip-ahead
// engine.
func New(gen *workload.ReqGen, model load.Model, clock func() sim.Cycle) *Source {
	s := &Source{
		gen: gen, model: model, now: clock,
		phaseDone: make([]uint64, model.NumPhases()),
		dropAfter: 1 << 20,
	}
	if !model.Closed() {
		s.nextArrival, s.hasNext = model.NextArrival(0)
	}
	return s
}

// Model exposes the source's load model (telemetry only — callers must not
// advance it).
func (s *Source) Model() load.Model { return s.model }

// RecentMean returns the mean latency over the last n completed requests
// (0 when nothing completed). The hybrid isolation controller (§VII future
// work) regulates on this: PIVOT protects the tail, strong isolation the
// average.
func (s *Source) RecentMean(n int) float64 {
	lat := s.latencies
	if len(lat) == 0 {
		return 0
	}
	if n > 0 && len(lat) > n {
		lat = lat[len(lat)-n:]
	}
	var sum float64
	for _, v := range lat {
		sum += float64(v)
	}
	return sum / float64(len(lat))
}

// RatePerMCycle converts the source's arrival rate at cycle now to requests
// per million cycles, the load unit used throughout the experiments. The
// cycle is explicit rather than read from the source's clock: the stats
// gauge reports the rate at the last epoch sample, not at dump time.
func (s *Source) RatePerMCycle(now sim.Cycle) float64 {
	return s.model.Rate(now) * 1e6
}

func (s *Source) pump(now sim.Cycle) {
	if s.model.Closed() {
		// Closed loop: keep exactly one request queued.
		if len(s.backlog) == 0 && s.bufPos >= len(s.buf) {
			s.admit(now)
		}
		return
	}
	for s.hasNext && s.nextArrival <= now {
		s.admit(s.nextArrival)
		s.nextArrival, s.hasNext = s.model.NextArrival(s.nextArrival)
	}
}

func (s *Source) admit(at sim.Cycle) {
	id := uint64(len(s.arrival))
	s.arrival = append(s.arrival, at)
	s.reqPhase = append(s.reqPhase, uint8(s.model.Phase()))
	s.backlog = append(s.backlog, id)
	s.started++
}

// Next implements cpu.Stream.
func (s *Source) Next(op *cpu.MicroOp) bool {
	now := s.now()
	s.pump(now)
	if s.bufPos >= len(s.buf) {
		if len(s.backlog) == 0 {
			return false // idle between requests
		}
		id := s.backlog[0]
		copy(s.backlog, s.backlog[1:])
		s.backlog = s.backlog[:len(s.backlog)-1]
		s.buf = s.gen.Generate(s.buf[:0], id)
		s.bufPos = 0
	}
	*op = s.buf[s.bufPos]
	s.bufPos++
	return true
}

// NextAvailable implements cpu.IdleStream. An open-loop source with the
// current request fully drained and no queued arrival is idle until its
// next arrival: Next would return false every cycle until then, and pump is
// pure while nextArrival lies in the future (the model's RNG is consumed
// only when an arrival is admitted, and the following arrival is already
// drawn). A closed-loop source always has work; a ceased source (all
// activity windows exhausted, or a phase program that ended at zero rate)
// never has work again.
func (s *Source) NextAvailable(now sim.Cycle) (next sim.Cycle, idle bool) {
	if s.model.Closed() {
		return 0, false
	}
	if s.bufPos < len(s.buf) || len(s.backlog) > 0 {
		return 0, false
	}
	if !s.hasNext {
		return sim.NeverWork, true
	}
	if s.nextArrival <= now {
		return 0, false
	}
	return s.nextArrival, true
}

// OnReqEnd records a completed request. Matches cpu.Hooks.OnReqEnd.
func (s *Source) OnReqEnd(reqID uint64, now sim.Cycle) {
	if reqID >= uint64(len(s.arrival)) {
		return
	}
	s.completed++
	if p := int(s.reqPhase[reqID]); p < len(s.phaseDone) {
		s.phaseDone[p]++
	}
	if len(s.latencies) >= s.dropAfter {
		s.latDropped++ // counted, stats-visible: long runs must not silently truncate the tail
		return
	}
	lat := now - s.arrival[reqID]
	s.latencies = append(s.latencies, uint32(lat))
}

// Latencies returns the recorded request latencies in completion order.
func (s *Source) Latencies() []uint32 { return s.latencies }

// DroppedLatencies reports completions whose latency record was discarded
// because the per-source cap (1Mi records) was reached. Any non-zero value
// means recorded percentiles cover a truncated prefix of the run.
func (s *Source) DroppedLatencies() uint64 { return s.latDropped }

// PhaseCompleted reports completed-request counts per load-model phase tag
// (a single element for stationary and closed-loop sources).
func (s *Source) PhaseCompleted() []uint64 { return s.phaseDone }

// RecentP95 returns the 95th-percentile latency over the last n completed
// requests — the online QoS signal software resource managers (PARTIES,
// CLITE) sample each decision epoch. It returns 0 when nothing completed.
func (s *Source) RecentP95(n int) uint32 {
	lat := s.latencies
	if len(lat) == 0 {
		return 0
	}
	if n > 0 && len(lat) > n {
		lat = lat[len(lat)-n:]
	}
	sorted := make([]uint32, len(lat))
	copy(sorted, lat)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(0.95*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Completed reports the number of completed requests.
func (s *Source) Completed() uint64 { return s.completed }

// QueueDepth reports requests admitted but not yet dequeued — a saturation
// signal: an open-loop source past the knee grows this without bound.
func (s *Source) QueueDepth() int { return len(s.backlog) }

// ResetMeasurement clears recorded latencies and completion counters (end
// of warm-up) while leaving the arrival process undisturbed.
func (s *Source) ResetMeasurement() {
	s.latencies = s.latencies[:0]
	s.completed = 0
	s.latDropped = 0
	for i := range s.phaseDone {
		s.phaseDone[i] = 0
	}
}
