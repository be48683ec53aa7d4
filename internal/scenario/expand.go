package scenario

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// maxUnits bounds a sweep's cartesian expansion; a bigger product is almost
// certainly an authoring mistake.
const maxUnits = 10_000

// RunUnit is one fully-resolved, sweep-free run of a scenario.
type RunUnit struct {
	// Label identifies the unit within its scenario ("policy=PIVOT
	// tasks[0].load_pct=30"); empty when the scenario declares no sweep.
	Label string
	// Scenario is the resolved scenario for this unit (Sweep is nil).
	Scenario *Scenario
}

// Expand resolves the sweep axes into their cartesian product of run units,
// first axis outermost, tuple-axis fields set together. Each unit is
// re-checked against the machine's core budget (an axis can change thread
// counts). The scenario must already have passed Validate.
func (s *Scenario) Expand() ([]RunUnit, error) {
	total := 1
	for _, a := range s.Sweep {
		total *= len(a.Values)
	}
	if total > maxUnits {
		return nil, errf("sweep", "expands to %d run units (max %d)", total, maxUnits)
	}
	units := make([]RunUnit, 0, total)
	var walk func(u *Scenario, axis int, label []string) error
	walk = func(u *Scenario, axis int, label []string) error {
		if axis == len(s.Sweep) {
			resolved := u.clone()
			resolved.Sweep = nil
			unit := RunUnit{Label: strings.Join(label, " "), Scenario: resolved}
			if err := resolved.validateCoreBudget(); err != nil {
				return fmt.Errorf("unit %q: %w", unit.Label, err)
			}
			units = append(units, unit)
			return nil
		}
		a := s.Sweep[axis]
		for vi := range a.Values {
			next := u.clone()
			part, err := applyAxisValue(next, a, vi)
			if err != nil {
				return err
			}
			if err := walk(next, axis+1, append(label, part...)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(s, 0, nil); err != nil {
		return nil, err
	}
	return units, nil
}

// MustExpand is Expand panicking on error, for builtin scenarios.
func (s *Scenario) MustExpand() []RunUnit {
	units, err := s.Expand()
	if err != nil {
		panic(err)
	}
	return units
}

// applyAxisValue applies value vi of axis a to u and returns the label parts
// ("param=value") it contributed.
func applyAxisValue(u *Scenario, a Axis, vi int) ([]string, error) {
	raw := a.Values[vi]
	if a.Param != "" {
		ref, err := u.paramRef(a.Param, a.path(vi))
		if err != nil {
			return nil, err
		}
		if err := u.setParam(ref, raw, a.path(vi)); err != nil {
			return nil, err
		}
		return []string{a.Param + "=" + labelValue(raw)}, nil
	}
	var elems []json.RawMessage
	if err := json.Unmarshal(raw, &elems); err != nil {
		return nil, errf(a.path(vi), "tuple value must be an array: %s", jsonErr(err))
	}
	if len(elems) != len(a.Params) {
		return nil, errf(a.path(vi), "tuple has %d elements for %d params", len(elems), len(a.Params))
	}
	parts := make([]string, len(elems))
	for i, e := range elems {
		ref, err := u.paramRef(a.Params[i], a.path(vi))
		if err != nil {
			return nil, err
		}
		if err := u.setParam(ref, e, a.path(vi)); err != nil {
			return nil, err
		}
		parts[i] = a.Params[i] + "=" + labelValue(e)
	}
	return parts, nil
}

// path renders the JSON path of one axis value for error messages. The axis
// index inside Sweep is not tracked here; the param name identifies it.
func (a Axis) path(vi int) string {
	return fmt.Sprintf("sweep[%s].values[%d]", a.name(), vi)
}

// labelValue renders an axis value compactly for run-unit labels.
func labelValue(raw json.RawMessage) string {
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		return s
	}
	return string(raw)
}

// paramKind enumerates the sweepable fields.
type paramKind int

const (
	paramPolicy paramKind = iota
	paramSeed
	paramWarmup
	paramMeasure
	paramTaskApp
	paramTaskLoad
	paramTaskIA
	paramTaskThreads
	paramTaskZipf
	paramTaskPhaseScale
	paramTaskPhaseCycles
	paramTaskOnMean
	paramTaskOffMean
	paramOptExpectedLCBW
	paramOptRRBPEntries
	paramOptMBALevel
	paramOptDisableMSC
	paramOptPrefetch
	paramMachineCores
	paramMachineBEWays
)

// paramRef is a parsed axis parameter: which field, of which task, and —
// for load-phase fields — of which phase.
type paramRef struct {
	kind  paramKind
	task  int
	phase int
}

// paramRef parses an axis parameter name against this scenario (task indices
// must exist, fields must suit the task's kind).
func (s *Scenario) paramRef(name, path string) (paramRef, error) {
	switch name {
	case "policy":
		return paramRef{kind: paramPolicy}, nil
	case "seed":
		return paramRef{kind: paramSeed}, nil
	case "warmup":
		return paramRef{kind: paramWarmup}, nil
	case "measure":
		return paramRef{kind: paramMeasure}, nil
	case "options.expected_lc_bw":
		return paramRef{kind: paramOptExpectedLCBW}, nil
	case "options.rrbp_entries":
		return paramRef{kind: paramOptRRBPEntries}, nil
	case "options.mba_level":
		return paramRef{kind: paramOptMBALevel}, nil
	case "options.disable_msc":
		return paramRef{kind: paramOptDisableMSC}, nil
	case "options.prefetch":
		return paramRef{kind: paramOptPrefetch}, nil
	case "machine.cores":
		return paramRef{kind: paramMachineCores}, nil
	case "machine.be_ways":
		return paramRef{kind: paramMachineBEWays}, nil
	}
	if rest, ok := strings.CutPrefix(name, "machine."); ok {
		return paramRef{}, errf(path,
			"unknown machine sweep parameter %q (machine.cores or machine.be_ways)", rest)
	}
	rest, ok := strings.CutPrefix(name, "tasks[")
	if !ok {
		return paramRef{}, errf(path, "unknown sweep parameter %q", name)
	}
	idxStr, field, ok := strings.Cut(rest, "].")
	if !ok {
		return paramRef{}, errf(path, "malformed sweep parameter %q", name)
	}
	idx, err := strconv.Atoi(idxStr)
	if err != nil || idx < 0 {
		return paramRef{}, errf(path, "malformed task index in %q", name)
	}
	if idx >= len(s.Tasks) {
		return paramRef{}, errf(path, "task index %d out of range (scenario has %d tasks)", idx, len(s.Tasks))
	}
	ref := paramRef{task: idx}
	kind := s.Tasks[idx].Kind
	lcField := false
	switch field {
	case "app":
		ref.kind = paramTaskApp
	case "load_pct":
		ref.kind = paramTaskLoad
	case "interarrival":
		ref.kind = paramTaskIA
	case "threads":
		ref.kind = paramTaskThreads
	default:
		loadField, isLoad := strings.CutPrefix(field, "load.")
		if !isLoad {
			return paramRef{}, errf(path, "unknown sweep parameter %q", name)
		}
		lcField = true
		if kind == KindLC && s.Tasks[idx].Load == nil {
			return paramRef{}, errf(path, "%q sweeps a load field but tasks[%d] declares no load stanza", name, idx)
		}
		switch loadField {
		case "zipf_theta":
			ref.kind = paramTaskZipf
		case "onoff.on_mean", "onoff.off_mean":
			if kind == KindLC && s.Tasks[idx].Load.OnOff == nil {
				return paramRef{}, errf(path, "%q sweeps an onoff field but tasks[%d].load declares no onoff stanza", name, idx)
			}
			ref.kind = paramTaskOnMean
			if loadField == "onoff.off_mean" {
				ref.kind = paramTaskOffMean
			}
		default:
			rest, isPhase := strings.CutPrefix(loadField, "phases[")
			if !isPhase {
				return paramRef{}, errf(path, "unknown sweep parameter %q", name)
			}
			phStr, phField, ok := strings.Cut(rest, "].")
			if !ok {
				return paramRef{}, errf(path, "malformed sweep parameter %q", name)
			}
			ph, err := strconv.Atoi(phStr)
			if err != nil || ph < 0 {
				return paramRef{}, errf(path, "malformed phase index in %q", name)
			}
			if kind == KindLC && ph >= len(s.Tasks[idx].Load.Phases) {
				return paramRef{}, errf(path, "phase index %d out of range (tasks[%d].load has %d phases)",
					ph, idx, len(s.Tasks[idx].Load.Phases))
			}
			ref.phase = ph
			switch phField {
			case "scale":
				ref.kind = paramTaskPhaseScale
			case "cycles":
				ref.kind = paramTaskPhaseCycles
			default:
				return paramRef{}, errf(path, "unknown sweep parameter %q", name)
			}
		}
	}
	if (ref.kind == paramTaskLoad || ref.kind == paramTaskIA || lcField) && kind != KindLC {
		return paramRef{}, errf(path, "%q sweeps an LC field of a %q task", name, kind)
	}
	if ref.kind == paramTaskThreads && kind != KindBE {
		return paramRef{}, errf(path, "%q sweeps a BE field of a %q task", name, kind)
	}
	return ref, nil
}

// setParam decodes raw into the referenced field with the same range checks
// Validate applies to the static scenario.
func (s *Scenario) setParam(ref paramRef, raw json.RawMessage, path string) error {
	asString := func() (string, error) {
		var v string
		if err := json.Unmarshal(raw, &v); err != nil {
			return "", errf(path, "%s", jsonErr(err))
		}
		return v, nil
	}
	asInt := func() (int, error) {
		var v int
		if err := json.Unmarshal(raw, &v); err != nil {
			return 0, errf(path, "%s", jsonErr(err))
		}
		return v, nil
	}
	switch ref.kind {
	case paramPolicy:
		v, err := asString()
		if err != nil {
			return err
		}
		s.Policy = v
		return s.validatePolicy(path)
	case paramSeed:
		return unmarshalField(raw, &s.Seed, path)
	case paramWarmup:
		return unmarshalField(raw, &s.Warmup, path)
	case paramMeasure:
		return unmarshalField(raw, &s.Measure, path)
	case paramTaskApp:
		v, err := asString()
		if err != nil {
			return err
		}
		t := &s.Tasks[ref.task]
		t.App, t.LCParams, t.BEParams = v, nil, nil
		return t.validateApp(path)
	case paramTaskLoad:
		v, err := asInt()
		if err != nil {
			return err
		}
		if v < 1 || v > 100 {
			return errf(path, "load_pct %d must be in 1..100", v)
		}
		t := &s.Tasks[ref.task]
		t.LoadPct, t.Interarrival = v, 0
		return nil
	case paramTaskIA:
		var v float64
		if err := unmarshalField(raw, &v, path); err != nil {
			return err
		}
		if v <= 0 {
			return errf(path, "interarrival %v must be positive", v)
		}
		t := &s.Tasks[ref.task]
		t.Interarrival, t.LoadPct = v, 0
		return nil
	case paramTaskThreads:
		v, err := asInt()
		if err != nil {
			return err
		}
		if v < 1 {
			return errf(path, "threads %d must be at least 1", v)
		}
		s.Tasks[ref.task].Threads = v
		return nil
	case paramTaskZipf:
		var v float64
		if err := unmarshalField(raw, &v, path); err != nil {
			return err
		}
		if v < 0 || v >= 1 {
			return errf(path, "zipf_theta %v must be in [0, 1)", v)
		}
		s.Tasks[ref.task].Load.ZipfTheta = v
		return nil
	case paramTaskPhaseScale:
		var v float64
		if err := unmarshalField(raw, &v, path); err != nil {
			return err
		}
		p := &s.Tasks[ref.task].Load.Phases[ref.phase]
		if v <= 0 && p.Shape != ShapeOff {
			return errf(path, "scale %v must be positive for shape %q", v, p.Shape)
		}
		p.Scale = v
		return nil
	case paramTaskPhaseCycles:
		var v uint64
		if err := unmarshalField(raw, &v, path); err != nil {
			return err
		}
		if v == 0 {
			return errf(path, "cycles must be positive")
		}
		s.Tasks[ref.task].Load.Phases[ref.phase].Cycles = v
		return nil
	case paramTaskOnMean, paramTaskOffMean:
		var v float64
		if err := unmarshalField(raw, &v, path); err != nil {
			return err
		}
		if v <= 0 {
			return errf(path, "sojourn mean %v must be positive", v)
		}
		if ref.kind == paramTaskOnMean {
			s.Tasks[ref.task].Load.OnOff.OnMean = v
		} else {
			s.Tasks[ref.task].Load.OnOff.OffMean = v
		}
		return nil
	case paramOptExpectedLCBW:
		if err := unmarshalField(raw, &s.Options.ExpectedLCBW, path); err != nil {
			return err
		}
		return checkExpectedLCBW(s.Options.ExpectedLCBW, path)
	case paramOptRRBPEntries:
		v, err := asInt()
		if err != nil {
			return err
		}
		s.Options.RRBPEntries = v
		return checkRRBPEntries(v, path)
	case paramOptMBALevel:
		v, err := asInt()
		if err != nil {
			return err
		}
		s.Options.MBALevel = v
		return checkMBALevel(v, path)
	case paramOptDisableMSC:
		v, err := asString()
		if err != nil {
			return err
		}
		s.Options.DisableMSC = v
		return checkDisableMSC(v, path)
	case paramOptPrefetch:
		return unmarshalField(raw, &s.Options.Prefetch, path)
	case paramMachineCores:
		v, err := asInt()
		if err != nil {
			return err
		}
		if v < 1 {
			return errf(path, "machine.cores %d must be positive", v)
		}
		s.Machine.Cores = v
		return nil
	case paramMachineBEWays:
		v, err := asInt()
		if err != nil {
			return err
		}
		if v < 0 {
			return errf(path, "machine.be_ways %d must not be negative", v)
		}
		s.Machine.BEWays = v
		return nil
	}
	return errf(path, "unhandled sweep parameter kind %d", ref.kind)
}

// Clone deep-copies the scenario's mutable parts — what a caller mutating
// tasks or options (the fuzzer's shrinker, axis probing)
// needs. Axes share the original's immutable raw values.
func (s *Scenario) Clone() *Scenario { return s.clone() }

// clone deep-copies the scenario's mutable parts (tasks and their custom
// params); axes share the original's immutable raw values.
func (s *Scenario) clone() *Scenario {
	out := *s
	out.Tasks = make([]Task, len(s.Tasks))
	copy(out.Tasks, s.Tasks)
	for i := range out.Tasks {
		if p := out.Tasks[i].LCParams; p != nil {
			cp := *p
			out.Tasks[i].LCParams = &cp
		}
		if p := out.Tasks[i].BEParams; p != nil {
			cp := *p
			out.Tasks[i].BEParams = &cp
		}
		if l := out.Tasks[i].Load; l != nil {
			cl := *l
			cl.Phases = append([]LoadPhase(nil), l.Phases...)
			cl.Windows = append([]LoadWindow(nil), l.Windows...)
			if l.OnOff != nil {
				oo := *l.OnOff
				cl.OnOff = &oo
			}
			out.Tasks[i].Load = &cl
		}
	}
	return &out
}
