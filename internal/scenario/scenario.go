// Package scenario defines the declarative experiment schema: what to run —
// machine preset, task mix, policy, options, run windows, seeds and sweep
// axes — as data, decoupled from how the harness runs it (calibration,
// search loops, parallelism, checkpointing all stay in internal/exp and
// internal/harness).
//
// A scenario is authored as JSON (see examples/scenarios/) or constructed in
// Go; Builtins() holds one named scenario per paper figure and extension.
// The codec is strict: unknown fields are rejected and every codec or
// validation error carries the JSON field path it refers to ("tasks[1].app",
// "sweep[0].values", ...). Sweep axes expand cartesianly into RunUnits,
// each a fully-resolved, sweep-free scenario the harness can execute.
package scenario

import (
	"encoding/json"
	"fmt"

	"pivot/internal/mem"
)

// Version is the schema version this package reads and writes.
const Version = 1

// Scenario is one declarative experiment: a task mix on a machine under a
// policy, optionally swept along declared axes.
type Scenario struct {
	// Version must equal the package Version (1).
	Version int `json:"version"`
	// Name identifies the scenario (builtin registry key, unit labels).
	Name string `json:"name"`
	// Brief is a one-line description shown by `pivot-exp scenarios`.
	Brief string `json:"brief,omitempty"`

	// Machine selects the simulated node. The zero value means the kunpeng
	// preset at the harness's default core count.
	Machine Machine `json:"machine,omitempty"`

	// Policy names the partitioning method, as in the paper's figures:
	// one of Policies().
	Policy string `json:"policy"`

	// Options are the policy knobs a scenario may override.
	Options Options `json:"options,omitempty"`

	// Tasks is the co-location mix, one entry per task. LC tasks precede BE
	// tasks on the cores, in declaration order.
	Tasks []Task `json:"tasks"`

	// Warmup and Measure override the harness scale's run windows (cycles);
	// 0 keeps the scale's values.
	Warmup  uint64 `json:"warmup,omitempty"`
	Measure uint64 `json:"measure,omitempty"`

	// Seed overrides the harness scale's base RNG seed; 0 keeps it.
	Seed uint64 `json:"seed,omitempty"`

	// Sweep declares the axes to expand (cartesian product, first axis
	// outermost). An empty list means the scenario is a single run unit.
	Sweep []Axis `json:"sweep,omitempty"`
}

// Machine selects and sizes the simulated node.
type Machine struct {
	// Preset is "kunpeng" (Table II, default) or "neoverse" (Table III).
	Preset string `json:"preset,omitempty"`
	// Cores overrides the core count; 0 uses the harness default.
	Cores int `json:"cores,omitempty"`
	// BEWays overrides the LLC way-mask size for BE partitions; 0 keeps the
	// preset's value.
	BEWays int `json:"be_ways,omitempty"`
}

// Machine preset names.
const (
	PresetKunpeng  = "kunpeng"
	PresetNeoverse = "neoverse"
)

// Options are the policy parameters a scenario may set. Zero values defer to
// the machine defaults (machine.Options.normalize).
type Options struct {
	// ExpectedLCBW is each LC task's expected bandwidth fraction (§IV-C).
	ExpectedLCBW float64 `json:"expected_lc_bw,omitempty"`
	// RRBPEntries sizes PIVOT's online table: >0 entries, -1 unlimited
	// (fully associative), 0 the default geometry.
	RRBPEntries int `json:"rrbp_entries,omitempty"`
	// MBALevel fixes the static MBA throttle under the MBA policy; 0 lets
	// the harness search for the best level meeting QoS.
	MBALevel int `json:"mba_level,omitempty"`
	// DisableMSC names one MSC that does not enforce priority (the Fig 7
	// leave-one-out): one of MSCNames(), or "" for none.
	DisableMSC string `json:"disable_msc,omitempty"`
	// Prefetch enables the explicit stride prefetcher (DESIGN.md §6.1).
	Prefetch bool `json:"prefetch,omitempty"`
	// NoStarvationGuard disables the §IV-D max-wait promotion (ablation).
	NoStarvationGuard bool `json:"no_starvation_guard,omitempty"`
}

// Task kinds.
const (
	KindLC = "lc"
	KindBE = "be"
)

// Task is one entry of the co-location mix.
type Task struct {
	// Kind is "lc" or "be".
	Kind string `json:"kind"`

	// App names a catalogue application (workload.LCApps / workload.BEApps).
	// Exactly one of App and LCParams/BEParams must be set.
	App string `json:"app,omitempty"`

	// LCParams / BEParams define a custom application inline. The Name must
	// be unique and must not shadow a catalogue app.
	LCParams *LCParams `json:"lc_params,omitempty"`
	BEParams *BEParams `json:"be_params,omitempty"`

	// LoadPct places an LC task at a percentage (1..100) of its calibrated
	// max load. Interarrival instead pins the mean request inter-arrival in
	// cycles directly, skipping calibration (no QoS target applies). At most
	// one may be set; neither means closed loop.
	LoadPct      int     `json:"load_pct,omitempty"`
	Interarrival float64 `json:"interarrival,omitempty"`

	// ExpectedBW sets the LC task's expected bandwidth fraction; 0 derives
	// it from calibration (or Options.ExpectedLCBW for explicit-interarrival
	// tasks).
	ExpectedBW float64 `json:"expected_bw,omitempty"`

	// Load shapes the LC task's arrival process and request population on
	// top of the base rate set by load_pct or interarrival: phase curves
	// (step/spike/ramp/diurnal sine), on-off bursts (MMPP-2), activity
	// windows (tenant churn) and Zipf-skewed payloads. Absent means the
	// historical stationary Poisson process.
	Load *LoadSpec `json:"load,omitempty"`

	// Threads is the BE thread count (one core each); 0 means 1.
	Threads int `json:"threads,omitempty"`
}

// Load phase shape names.
const (
	ShapeFlat = "flat"
	ShapeRamp = "ramp"
	ShapeSine = "sine"
	ShapeOff  = "off"
)

// LoadShapes lists the valid LoadPhase.Shape values.
func LoadShapes() []string { return []string{ShapeFlat, ShapeRamp, ShapeSine, ShapeOff} }

// LoadSpec mirrors load.Spec with a stable snake_case JSON surface. The
// base mean inter-arrival time is not declared here — it comes from the
// task's load_pct (calibrated) or interarrival (explicit); the spec scales
// it over time.
type LoadSpec struct {
	// ZipfTheta skews the payload-line and payload-PC populations
	// Zipfian with skew in [0, 1); 0 keeps the uniform population.
	ZipfTheta float64 `json:"zipf_theta,omitempty"`
	// Phases is a piecewise rate program, played once (holding the final
	// level) or cycled forever when Repeat is set.
	Phases []LoadPhase `json:"phases,omitempty"`
	Repeat bool        `json:"repeat,omitempty"`
	// OnOff superimposes two-state Markov-modulated bursts.
	OnOff *LoadOnOff `json:"onoff,omitempty"`
	// Windows restricts arrivals to the declared [from, until) intervals —
	// a tenant that joins, leaves, and possibly rejoins.
	Windows []LoadWindow `json:"windows,omitempty"`
	_       [0]func()
}

// Shaped reports whether the spec shapes the arrival process itself (phases,
// bursts or windows) as opposed to only skewing the request population. A nil
// spec is unshaped.
func (l *LoadSpec) Shaped() bool {
	return l != nil && (len(l.Phases) > 0 || l.OnOff != nil || len(l.Windows) > 0)
}

// LoadPhase is one segment of the rate program. Scale multiplies the task's
// base arrival rate.
type LoadPhase struct {
	// Shape is one of LoadShapes(): "flat" holds scale, "ramp" moves
	// linearly from scale to to, "sine" oscillates around scale with
	// relative amplitude amp and the given period, "off" silences arrivals.
	Shape  string  `json:"shape"`
	Cycles uint64  `json:"cycles"`
	Scale  float64 `json:"scale,omitempty"`
	To     float64 `json:"to,omitempty"`
	Amp    float64 `json:"amp,omitempty"`
	Period uint64  `json:"period,omitempty"`
	_      [0]func()
}

// LoadOnOff is the MMPP-2 burst modulator: exponential sojourns with the
// given means alternate between on_scale and off_scale rate multipliers.
type LoadOnOff struct {
	OnMean   float64 `json:"on_mean"`
	OffMean  float64 `json:"off_mean"`
	OnScale  float64 `json:"on_scale"`
	OffScale float64 `json:"off_scale,omitempty"`
	_        [0]func()
}

// LoadWindow is one half-open activity interval [from, until) in cycles.
type LoadWindow struct {
	From  uint64 `json:"from,omitempty"`
	Until uint64 `json:"until"`
	_     [0]func()
}

// ThreadCount is the number of cores the task occupies.
func (t *Task) ThreadCount() int {
	if t.Kind == KindBE && t.Threads > 1 {
		return t.Threads
	}
	return 1
}

// Axis is one sweep dimension. Either Param (a scalar axis: each value sets
// one field) or Params (a tuple axis: each value is an array setting the
// named fields together, e.g. paired app mixes) must be set.
type Axis struct {
	Param  string            `json:"param,omitempty"`
	Params []string          `json:"params,omitempty"`
	Values []json.RawMessage `json:"values"`
}

// Strings decodes a scalar axis's values as strings. It panics on type
// mismatch; Validate has already type-checked every axis of a parsed or
// builtin scenario.
func (a Axis) Strings() []string {
	out := make([]string, len(a.Values))
	for i, raw := range a.Values {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			panic(fmt.Sprintf("scenario: axis %s value %d: %v", a.name(), i, err))
		}
	}
	return out
}

// name renders the axis identity for labels and errors.
func (a Axis) name() string {
	if a.Param != "" {
		return a.Param
	}
	out := ""
	for i, p := range a.Params {
		if i > 0 {
			out += ","
		}
		out += p
	}
	return out
}

// AxisOf returns the scalar axis sweeping param, if declared.
func (s *Scenario) AxisOf(param string) (Axis, bool) {
	for _, a := range s.Sweep {
		if a.Param == param {
			return a, true
		}
	}
	return Axis{}, false
}

// MustAxis is AxisOf panicking when the axis is absent — for builtin
// scenarios, whose shape the package tests pin.
func (s *Scenario) MustAxis(param string) Axis {
	a, ok := s.AxisOf(param)
	if !ok {
		panic(fmt.Sprintf("scenario %s: no sweep axis %q", s.Name, param))
	}
	return a
}

// LCParams mirrors workload.LCParams with a stable snake_case JSON surface.
type LCParams struct {
	Name         string    `json:"name"`
	ChaseDepth   int       `json:"chase_depth"`
	ChaseLines   uint64    `json:"chase_lines"`
	ChasePCs     int       `json:"chase_pcs"`
	PayloadLoads int       `json:"payload_loads,omitempty"`
	PayloadLines uint64    `json:"payload_lines,omitempty"`
	PayloadSeq   bool      `json:"payload_seq,omitempty"`
	PayloadPCs   int       `json:"payload_pcs,omitempty"`
	ALUPerStep   int       `json:"alu_per_step,omitempty"`
	ALULat       int       `json:"alu_lat,omitempty"`
	StoresPerReq int       `json:"stores_per_req,omitempty"`
	_            [0]func() // force keyed literals so new fields surface here
}

// BEParams mirrors workload.BEParams with a stable snake_case JSON surface.
type BEParams struct {
	Name        string  `json:"name"`
	StreamFrac  float64 `json:"stream_frac,omitempty"`
	StreamLines uint64  `json:"stream_lines,omitempty"`
	RandLines   uint64  `json:"rand_lines,omitempty"`
	StoreFrac   float64 `json:"store_frac,omitempty"`
	ALUPerMem   int     `json:"alu_per_mem,omitempty"`
	MLP         int     `json:"mlp,omitempty"`
	PCs         int     `json:"pcs,omitempty"`
	_           [0]func()
}

// Policies lists the valid Scenario.Policy names, in the order the paper
// introduces the methods.
func Policies() []string {
	return []string{"Default", "MBA", "MPAM", "FullPath", "PIVOT",
		"CBP", "CBP+FullPath", "PARTIES", "CLITE"}
}

// MSCNames lists the valid Options.DisableMSC values.
func MSCNames() []string {
	out := make([]string, len(mem.MSCs))
	for i, c := range mem.MSCs {
		out[i] = c.String()
	}
	return out
}

// MSC resolves a DisableMSC name to its component. The bool reports whether
// the name is known ("" is not).
func MSC(name string) (mem.Component, bool) {
	for _, c := range mem.MSCs {
		if c.String() == name {
			return c, true
		}
	}
	return 0, false
}
