// Package flight is the simulator's per-request flight recorder: an opt-in
// observer that turns every memory-path transition of a traced request into a
// cycle-stamped span (component, queue-wait vs service split) and keeps, in
// bounded memory, (a) the full span chains of the top-K slowest completed
// requests and (b) a deterministic reservoir sample of completed lifecycles,
// plus exact per-static-PC aggregates. From these it renders a
// tail-attribution report (which PCs dominate the P99, and at which MSC they
// queue) and a Perfetto/Chrome trace of the slowest requests' span chains.
//
// The recorder follows the stats framework's contracts: it is strictly
// observational (attaching it cannot change a simulated result), it is
// deterministic (identical request streams produce byte-identical reports —
// the reservoir RNG is a fixed-seed xorshift64 and every export sorts), and
// its State snapshot covers everything, including the span chains of
// still-in-flight requests, so the differential oracles compare it too.
package flight

import (
	"pivot/internal/mem"
	"pivot/internal/sim"
)

// Defaults for Config's zero values.
const (
	DefaultTopK      = 32
	DefaultSampleCap = 512
)

// Config bounds the recorder's memory.
type Config struct {
	// TopK is how many slowest-request span chains to keep (0 = DefaultTopK).
	TopK int
	// SampleCap is the lifecycle reservoir size (0 = DefaultSampleCap).
	SampleCap int
}

func (c Config) withDefaults() Config {
	if c.TopK <= 0 {
		c.TopK = DefaultTopK
	}
	if c.SampleCap <= 0 {
		c.SampleCap = DefaultSampleCap
	}
	return c
}

// Life is the compact record of one completed demand-request lifecycle.
type Life struct {
	Seq      uint64 // completion order among demand requests
	PC       uint64
	Addr     uint64
	CoreID   int
	Part     mem.PartID
	Critical bool
	LCTask   bool
	IsWrite  bool
	Issued   sim.Cycle
	Done     sim.Cycle
	Latency  sim.Cycle // Done - Issued
	// Split is the per-component residency and Wait the queue-wait portion
	// of it (from the span chain), both in cycles.
	Split [mem.NumComponents]uint32
	Wait  [mem.NumComponents]uint32
}

// SlowReq is a top-K entry: a lifecycle plus its full span chain.
type SlowReq struct {
	Life
	Spans []mem.Span
}

// PCAgg is the exact per-static-PC aggregate over every completed demand
// request (not just the sampled ones).
type PCAgg struct {
	PC       uint64
	Count    uint64
	Critical uint64 // completions with the critical bit set
	Sum      uint64 // total latency
	Max      uint64
	Split    [mem.NumComponents]uint64
	Wait     [mem.NumComponents]uint64
}

// Recorder accumulates completed request lifecycles. It is not safe for
// concurrent use; the simulator is single-goroutine.
type Recorder struct {
	cfg Config

	seq        uint64 // demand completions, also the reservoir's stream count
	prefetches uint64 // prefetch completions (excluded from attribution)
	writes     uint64
	sumLat     uint64
	maxLat     uint64
	split      [mem.NumComponents]uint64 // exact totals over demand requests
	wait       [mem.NumComponents]uint64

	top []SlowReq // min-heap: root is the weakest kept entry
	res []Life    // Vitter's algorithm R reservoir
	rng uint64    // fixed-seed xorshift64 for reservoir replacement

	perPC map[uint64]*PCAgg

	pool []*mem.Trace // recycled span buffers
}

// rngSeed is the fixed reservoir seed (FNV-1a of "flight"), so identical
// completion streams always keep identical samples.
const rngSeed uint64 = 0xa1033b25a7d26061

// New returns a recorder with the given bounds.
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg:   cfg,
		rng:   rngSeed,
		top:   make([]SlowReq, 0, cfg.TopK),
		res:   make([]Life, 0, cfg.SampleCap),
		perPC: make(map[uint64]*PCAgg),
	}
}

// StartTrace hands out a (pooled) span buffer to attach to a new request.
func (rec *Recorder) StartTrace() *mem.Trace {
	if n := len(rec.pool); n > 0 {
		t := rec.pool[n-1]
		rec.pool = rec.pool[:n-1]
		return t
	}
	return &mem.Trace{}
}

// recycleTrace returns a span buffer to the pool.
func (rec *Recorder) recycleTrace(t *mem.Trace) {
	if t == nil {
		return
	}
	t.Reset()
	rec.pool = append(rec.pool, t)
}

func (rec *Recorder) next() uint64 {
	x := rec.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	rec.rng = x
	return x
}

// weaker orders top-K entries: true when a should be evicted before b. Lower
// latency is weaker; on ties the later completion is weaker, so the earliest
// completions deterministically keep their slots.
func weaker(a, b *SlowReq) bool {
	if a.Latency != b.Latency {
		return a.Latency < b.Latency
	}
	return a.Seq > b.Seq
}

func (rec *Recorder) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !weaker(&rec.top[i], &rec.top[parent]) {
			return
		}
		rec.top[i], rec.top[parent] = rec.top[parent], rec.top[i]
		i = parent
	}
}

func (rec *Recorder) siftDown(i int) {
	n := len(rec.top)
	for {
		min, l, r := i, 2*i+1, 2*i+2
		if l < n && weaker(&rec.top[l], &rec.top[min]) {
			min = l
		}
		if r < n && weaker(&rec.top[r], &rec.top[min]) {
			min = r
		}
		if min == i {
			return
		}
		rec.top[i], rec.top[min] = rec.top[min], rec.top[i]
		i = min
	}
}

// Complete records a request whose response just reached the core (or, for a
// write absorbed by a cache, whose lifetime just ended) at cycle now. It
// consumes the request's trace buffer; the caller recycles the request
// afterwards as usual.
func (rec *Recorder) Complete(r *mem.Req, now sim.Cycle) {
	tr := r.Trace
	if r.Prefetch {
		// Prefetches fill caches but wake no instruction; they are counted
		// but excluded from tail attribution.
		rec.prefetches++
		rec.recycleTrace(tr)
		return
	}

	life := Life{
		Seq: rec.seq, PC: r.PC, Addr: r.Addr, CoreID: r.CoreID, Part: r.Part,
		Critical: r.Critical, LCTask: r.LCTask, IsWrite: r.IsWrite,
		Issued: r.Issued, Done: now, Split: r.Split,
	}
	if now > r.Issued {
		life.Latency = now - r.Issued
	}
	if tr != nil {
		for _, sp := range tr.Spans {
			life.Wait[sp.Comp] += uint32(sp.Wait)
		}
	}
	rec.seq++
	if r.IsWrite {
		rec.writes++
	}
	lat := uint64(life.Latency)
	rec.sumLat += lat
	if lat > rec.maxLat {
		rec.maxLat = lat
	}

	agg := rec.perPC[r.PC]
	if agg == nil {
		agg = &PCAgg{PC: r.PC}
		rec.perPC[r.PC] = agg
	}
	agg.Count++
	if r.Critical {
		agg.Critical++
	}
	agg.Sum += lat
	if lat > agg.Max {
		agg.Max = lat
	}
	for c := 0; c < int(mem.NumComponents); c++ {
		agg.Split[c] += uint64(life.Split[c])
		agg.Wait[c] += uint64(life.Wait[c])
		rec.split[c] += uint64(life.Split[c])
		rec.wait[c] += uint64(life.Wait[c])
	}

	// Reservoir (Vitter's algorithm R over the demand completion stream).
	if len(rec.res) < rec.cfg.SampleCap {
		rec.res = append(rec.res, life)
	} else if j := rec.next() % rec.seq; j < uint64(rec.cfg.SampleCap) {
		rec.res[j] = life
	}

	// Top-K slowest with full span chains.
	if tr == nil {
		return
	}
	cand := SlowReq{Life: life}
	if len(rec.top) < rec.cfg.TopK {
		cand.Spans = append([]mem.Span(nil), tr.Spans...)
		rec.top = append(rec.top, cand)
		rec.siftUp(len(rec.top) - 1)
		rec.recycleTrace(tr)
		return
	}
	if weaker(&rec.top[0], &cand) {
		// Reuse the evicted entry's span storage for the newcomer.
		cand.Spans = append(rec.top[0].Spans[:0], tr.Spans...)
		rec.top[0] = cand
		rec.siftDown(0)
	}
	rec.recycleTrace(tr)
}

// Demand reports the number of demand completions recorded.
func (rec *Recorder) Demand() uint64 { return rec.seq }

// Prefetches reports the number of prefetch completions seen (not recorded).
func (rec *Recorder) Prefetches() uint64 { return rec.prefetches }

// Reset discards everything recorded, restoring the reservoir RNG, so a
// post-warm-up measurement window is reproducible — the recorder's analogue
// of stats.Distribution.Reset.
func (rec *Recorder) Reset() {
	rec.seq = 0
	rec.prefetches = 0
	rec.writes = 0
	rec.sumLat = 0
	rec.maxLat = 0
	rec.split = [mem.NumComponents]uint64{}
	rec.wait = [mem.NumComponents]uint64{}
	for i := range rec.top {
		rec.top[i].Spans = nil
	}
	rec.top = rec.top[:0]
	rec.res = rec.res[:0]
	rec.rng = rngSeed
	rec.perPC = make(map[uint64]*PCAgg)
}
