package scenfuzz

import (
	"encoding/json"
	"fmt"

	"pivot/internal/scenario"
	"pivot/internal/sim"
	"pivot/internal/workload"
)

// Generation bounds. The windows are deliberately short: an oracle runs each
// scenario up to five times.
const (
	genMinWarmup  = 6_000
	genMinMeasure = 12_000
	genMinIA      = 1_500
	genMaxIA      = 8_000
)

// genPolicies are the directly executable methods: the manager-driven
// PARTIES/CLITE loops mutate allocation state from outside the machine, so
// the differential oracles (which demand snapshot equality) exclude them.
func genPolicies() []string {
	return []string{"Default", "MBA", "MPAM", "FullPath", "PIVOT", "CBP", "CBP+FullPath"}
}

// Generate derives scenario number `index` of the campaign keyed by `seed`.
// The result is deterministic in (seed, index), valid by construction
// (Generate panics on a generator bug, not the caller), and executable by
// the oracle bank without calibration: LC tasks always pin an explicit
// interarrival, never a load percentage.
func Generate(seed uint64, index int) *scenario.Scenario {
	rng := sim.NewRNG(seed + uint64(index)*0x9E3779B97F4A7C15 + 0x5F356495)
	s := &scenario.Scenario{
		Version: scenario.Version,
		Name:    fmt.Sprintf("fuzz-%x-%d", seed, index),
		Policy:  pick(rng, genPolicies()),
		Warmup:  uint64(genMinWarmup + 2_000*rng.Intn(6)),
		Measure: uint64(genMinMeasure + 4_000*rng.Intn(6)),
		Seed:    1 + rng.Uint64n(1<<16),
	}
	genMachine(rng, s)
	genOptions(rng, s)
	genTasks(rng, s)
	if rng.Float64() < 0.40 {
		genSweep(rng, s)
	}
	// Load stanzas draw last so the campaign prefix (machine, options, tasks,
	// sweep) of a given (seed, index) does not depend on load shaping.
	genLoads(rng, s)
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("scenfuzz: generated invalid scenario (seed %d, index %d): %v", seed, index, err))
	}
	return s
}

func genMachine(rng *sim.RNG, s *scenario.Scenario) {
	// Cache geometry constrains the core count to powers of two (LLC sets =
	// cores * 2048 must be a power of two); 2 and 4 are the smallest machines
	// that still co-locate.
	s.Machine.Cores = 2 << rng.Intn(2)
	if rng.Float64() < 0.30 {
		s.Machine.Preset = scenario.PresetNeoverse
	} else {
		s.Machine.Preset = scenario.PresetKunpeng
	}
	if rng.Float64() < 0.30 {
		s.Machine.BEWays = 1 + rng.Intn(3)
	}
}

func genOptions(rng *sim.RNG, s *scenario.Scenario) {
	o := &s.Options
	if rng.Float64() < 0.25 {
		o.ExpectedLCBW = 0.1 + 0.8*rng.Float64()
	}
	if rng.Float64() < 0.20 {
		if rng.Float64() < 0.3 {
			o.RRBPEntries = -1
		} else {
			o.RRBPEntries = 32 << rng.Intn(4)
		}
	}
	if s.Policy == "MBA" && rng.Float64() < 0.60 {
		o.MBALevel = pick(rng, []int{10, 20, 40, 60, 80})
	}
	if rng.Float64() < 0.15 {
		o.DisableMSC = pick(rng, scenario.MSCNames())
	}
	o.Prefetch = rng.Float64() < 0.20
	o.NoStarvationGuard = rng.Float64() < 0.10
}

func genTasks(rng *sim.RNG, s *scenario.Scenario) {
	cores := s.Machine.Cores
	nLC := 1
	if cores >= 3 && rng.Float64() < 0.35 {
		nLC = 2
	}
	for i := 0; i < nLC; i++ {
		t := scenario.Task{
			Kind:         scenario.KindLC,
			Interarrival: float64(genMinIA + rng.Intn(genMaxIA-genMinIA)),
		}
		if rng.Float64() < 0.20 {
			t.LCParams = genLCParams(rng, i)
		} else {
			t.App = pick(rng, append(workload.LCNames(), workload.Microservice))
		}
		if rng.Float64() < 0.20 {
			t.ExpectedBW = 0.1 + 0.5*rng.Float64()
		}
		s.Tasks = append(s.Tasks, t)
	}
	spare := cores - nLC
	nBE := rng.Intn(spare + 1)
	for i := 0; i < nBE && spare > 0; i++ {
		threads := 1 + rng.Intn(spare)
		t := scenario.Task{Kind: scenario.KindBE, Threads: threads}
		if rng.Float64() < 0.25 {
			t.BEParams = genBEParams(rng, i)
		} else {
			t.App = pick(rng, append(workload.BENames(), workload.IBench, workload.StressCopy))
		}
		s.Tasks = append(s.Tasks, t)
		spare -= threads
	}
}

// genLCParams emits a small-footprint custom LC app in the same parameter
// regime as the catalogue (DESIGN.md §1), so generated mixes exercise the
// inline-app path without dragging a run into pathological territory.
func genLCParams(rng *sim.RNG, i int) *scenario.LCParams {
	p := &scenario.LCParams{
		Name:       fmt.Sprintf("fz-lc-%d", i),
		ChaseDepth: 4 + rng.Intn(8),
		ChaseLines: 1 << (14 + rng.Intn(4)),
		ChasePCs:   4 + rng.Intn(5),
		ALUPerStep: 2 + rng.Intn(8),
		ALULat:     1,
	}
	if rng.Float64() < 0.6 {
		p.PayloadLoads = 1 + rng.Intn(3)
		p.PayloadLines = 1 << (10 + rng.Intn(4))
		p.PayloadSeq = rng.Float64() < 0.5
		p.PayloadPCs = 50 + rng.Intn(100)
	}
	if rng.Float64() < 0.5 {
		p.StoresPerReq = 1 + rng.Intn(6)
	}
	return p
}

func genBEParams(rng *sim.RNG, i int) *scenario.BEParams {
	return &scenario.BEParams{
		Name:        fmt.Sprintf("fz-be-%d", i),
		StreamFrac:  rng.Float64(),
		StreamLines: 1 << (15 + rng.Intn(3)),
		RandLines:   1 << (15 + rng.Intn(3)),
		StoreFrac:   0.4 * rng.Float64(),
		ALUPerMem:   1 + rng.Intn(6),
		MLP:         2 + rng.Intn(6),
		PCs:         4 + rng.Intn(8),
	}
}

// genLoads attaches a bounded load stanza to each LC task with modest
// probability: phase programs, on-off bursts and tenant windows sized to the
// run so shaped arrivals neither starve the mix nor saturate it, scales
// capped at 2x. When the first LC task gets a stanza and the scenario has no
// sweep yet, it sometimes gains a zipf_theta axis so campaigns exercise
// load-field sweeping.
func genLoads(rng *sim.RNG, s *scenario.Scenario) {
	for i := range s.Tasks {
		if s.Tasks[i].Kind != scenario.KindLC || rng.Float64() >= 0.35 {
			continue
		}
		s.Tasks[i].Load = genLoad(rng, s)
	}
	if s.Tasks[0].Load != nil && len(s.Sweep) == 0 && rng.Float64() < 0.30 {
		s.Sweep = []scenario.Axis{{
			Param:  "tasks[0].load.zipf_theta",
			Values: []json.RawMessage{json.RawMessage("0"), json.RawMessage("0.9")},
		}}
	}
}

func genLoad(rng *sim.RNG, s *scenario.Scenario) *scenario.LoadSpec {
	l := &scenario.LoadSpec{}
	if rng.Float64() < 0.40 {
		l.ZipfTheta = 0.2 + 0.7*rng.Float64()
	}
	total := s.Warmup + s.Measure
	if rng.Float64() < 0.70 {
		n := 1 + rng.Intn(3)
		for p := 0; p < n; p++ {
			cycles := total/4 + rng.Uint64n(total/2)
			var ph scenario.LoadPhase
			switch rng.Intn(4) {
			case 0:
				ph = scenario.LoadPhase{Shape: scenario.ShapeFlat, Cycles: cycles,
					Scale: 0.5 + 1.5*rng.Float64()}
			case 1:
				ph = scenario.LoadPhase{Shape: scenario.ShapeRamp, Cycles: cycles,
					Scale: 0.5 + 0.5*rng.Float64(), To: 1 + rng.Float64()}
			case 2:
				ph = scenario.LoadPhase{Shape: scenario.ShapeSine, Cycles: cycles,
					Scale: 0.6 + 0.8*rng.Float64(), Amp: 0.2 + 0.5*rng.Float64(),
					Period: cycles/2 + 1}
			default:
				ph = scenario.LoadPhase{Shape: scenario.ShapeOff, Cycles: 1 + cycles/8}
			}
			l.Phases = append(l.Phases, ph)
		}
		if l.Phases[0].Shape == scenario.ShapeOff {
			// Guarantee an audible phase (and on non-repeat programs a live
			// terminal phase) regardless of the shape draws above.
			l.Phases[0] = scenario.LoadPhase{Shape: scenario.ShapeFlat,
				Cycles: l.Phases[0].Cycles, Scale: 1}
		}
		l.Repeat = rng.Float64() < 0.80
	}
	if rng.Float64() < 0.25 {
		l.OnOff = &scenario.LoadOnOff{
			OnMean:   float64(2_000 + rng.Intn(6_000)),
			OffMean:  float64(1_000 + rng.Intn(3_000)),
			OnScale:  1 + 0.5*rng.Float64(),
			OffScale: 0.5 * rng.Float64(),
		}
	}
	if rng.Float64() < 0.20 {
		cut := total/2 + rng.Uint64n(total/4)
		l.Windows = []scenario.LoadWindow{
			{Until: cut},
			{From: cut + total/8, Until: 2 * total},
		}
	}
	if l.ZipfTheta == 0 && len(l.Phases) == 0 && l.OnOff == nil && len(l.Windows) == 0 {
		l.ZipfTheta = 0.5 // never emit an empty stanza
	}
	return l
}

// genSweep adds one two-value sweep axis, chosen so every expanded unit
// stays within the machine's core budget.
func genSweep(rng *sim.RNG, s *scenario.Scenario) {
	type axisGen func() (string, []any)
	gens := []axisGen{
		func() (string, []any) {
			pool := genPolicies()
			a := pick(rng, pool)
			b := pick(rng, pool)
			for b == a {
				b = pick(rng, pool)
			}
			return "policy", []any{a, b}
		},
		func() (string, []any) {
			return "seed", []any{s.Seed, s.Seed + 1 + rng.Uint64n(1000)}
		},
		func() (string, []any) {
			return "warmup", []any{s.Warmup, s.Warmup + 4_000}
		},
		func() (string, []any) {
			return "measure", []any{s.Measure, s.Measure + 8_000}
		},
		func() (string, []any) {
			// Growing the machine can never break the core budget; doubling
			// keeps the LLC set count a power of two.
			return "machine.cores", []any{s.Machine.Cores, s.Machine.Cores * 2}
		},
		func() (string, []any) {
			return "machine.be_ways", []any{1, 2}
		},
		func() (string, []any) {
			return "options.prefetch", []any{false, true}
		},
		func() (string, []any) {
			ia := s.Tasks[0].Interarrival
			return "tasks[0].interarrival", []any{ia, ia + 1_000}
		},
	}
	param, vals := gens[rng.Intn(len(gens))]()
	axis := scenario.Axis{Param: param}
	for _, v := range vals {
		raw, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		axis.Values = append(axis.Values, raw)
	}
	// An MBA-level sweep value under a non-MBA policy is legal but inert;
	// the policy axis keeps MBALevel meaningful by clearing it.
	if param == "policy" {
		s.Options.MBALevel = 0
	}
	s.Sweep = []scenario.Axis{axis}
}

// pick returns a uniformly random element.
func pick[T any](rng *sim.RNG, xs []T) T { return xs[rng.Intn(len(xs))] }
