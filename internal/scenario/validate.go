package scenario

import (
	"errors"
	"fmt"
	"strings"

	"pivot/internal/workload"
)

// DefaultCores is the core count used when Machine.Cores is 0 (the paper's
// 8-core node).
const DefaultCores = 8

// Validate checks the scenario against the schema rules, reporting the first
// violation with its field path. Parse calls it; Go-constructed scenarios
// (builtins, tests) should call it explicitly.
func (s *Scenario) Validate() error {
	if s.Version != Version {
		return errf("version", "must be %d (got %d)", Version, s.Version)
	}
	if s.Name == "" {
		return errf("name", "must be set")
	}
	if err := s.validateMachine(); err != nil {
		return err
	}
	if err := s.validatePolicy("policy"); err != nil {
		return err
	}
	if err := s.Options.validate(); err != nil {
		return err
	}
	if err := s.validateTasks(); err != nil {
		return err
	}
	if err := s.validateCoreBudget(); err != nil {
		return err
	}
	return s.validateSweep()
}

func (s *Scenario) validateMachine() error {
	switch s.Machine.Preset {
	case "", PresetKunpeng, PresetNeoverse:
	default:
		return errf("machine.preset", "unknown preset %q (use %q or %q)",
			s.Machine.Preset, PresetKunpeng, PresetNeoverse)
	}
	if s.Machine.Cores < 0 {
		return errf("machine.cores", "must not be negative")
	}
	if s.Machine.BEWays < 0 {
		return errf("machine.be_ways", "must not be negative")
	}
	return nil
}

func (s *Scenario) validatePolicy(path string) error {
	for _, p := range Policies() {
		if s.Policy == p {
			return nil
		}
	}
	return errf(path, "unknown policy %q (one of %s)", s.Policy, strings.Join(Policies(), ", "))
}

func (o Options) validate() error {
	if err := checkExpectedLCBW(o.ExpectedLCBW, "options.expected_lc_bw"); err != nil {
		return err
	}
	if err := checkRRBPEntries(o.RRBPEntries, "options.rrbp_entries"); err != nil {
		return err
	}
	if err := checkMBALevel(o.MBALevel, "options.mba_level"); err != nil {
		return err
	}
	return checkDisableMSC(o.DisableMSC, "options.disable_msc")
}

func checkExpectedLCBW(v float64, path string) error {
	if v < 0 || v > 1 {
		return errf(path, "expected bandwidth fraction %v must be in 0..1", v)
	}
	return nil
}

func checkRRBPEntries(v int, path string) error {
	if v < -1 {
		return errf(path, "rrbp_entries %d must be -1 (unlimited), 0 (default) or positive", v)
	}
	return nil
}

func checkMBALevel(v int, path string) error {
	if v < 0 || v > 100 {
		return errf(path, "mba_level %d must be in 0..100", v)
	}
	return nil
}

func checkDisableMSC(v string, path string) error {
	if v == "" {
		return nil
	}
	if _, ok := MSC(v); !ok {
		return errf(path, "unknown MSC %q (one of %s)", v, strings.Join(MSCNames(), ", "))
	}
	return nil
}

func (s *Scenario) validateTasks() error {
	if len(s.Tasks) == 0 {
		return errf("tasks", "at least one task is required")
	}
	customNames := map[string]string{} // name -> defining path
	for i := range s.Tasks {
		t := &s.Tasks[i]
		path := fmt.Sprintf("tasks[%d]", i)
		switch t.Kind {
		case KindLC, KindBE:
		default:
			return errf(path+".kind", "must be %q or %q (got %q)", KindLC, KindBE, t.Kind)
		}
		if t.Kind == KindLC && t.BEParams != nil {
			return errf(path+".be_params", "not allowed on an %q task", KindLC)
		}
		if t.Kind == KindBE && t.LCParams != nil {
			return errf(path+".lc_params", "not allowed on a %q task", KindBE)
		}
		custom := t.LCParams != nil || t.BEParams != nil
		if t.App == "" && !custom {
			return errf(path, "set app or inline params")
		}
		if t.App != "" && custom {
			return errf(path, "app and inline params are mutually exclusive")
		}
		if t.App != "" {
			if err := t.validateApp(path + ".app"); err != nil {
				return err
			}
		}
		if custom {
			name := t.customName()
			ppath := path + ".lc_params.name"
			if t.BEParams != nil {
				ppath = path + ".be_params.name"
			}
			if name == "" {
				return errf(ppath, "must be set")
			}
			if _, lc := workload.LCApps()[name]; lc {
				return errf(ppath, "%q shadows a catalogue LC application", name)
			}
			if _, be := workload.BEApps()[name]; be {
				return errf(ppath, "%q shadows a catalogue BE application", name)
			}
			if prev, dup := customNames[name]; dup {
				return errf(ppath, "%q already defined at %s", name, prev)
			}
			customNames[name] = ppath
		}
		if t.Kind == KindBE {
			for _, f := range []struct {
				name string
				set  bool
			}{
				{"load_pct", t.LoadPct != 0},
				{"interarrival", t.Interarrival != 0},
				{"expected_bw", t.ExpectedBW != 0},
				{"load", t.Load != nil},
			} {
				if f.set {
					return errf(path+"."+f.name, "only valid on %q tasks", KindLC)
				}
			}
			if t.Threads < 0 {
				return errf(path+".threads", "must not be negative")
			}
			continue
		}
		// LC task.
		if t.Threads != 0 {
			return errf(path+".threads", "only valid on %q tasks", KindBE)
		}
		if t.LoadPct != 0 && (t.LoadPct < 1 || t.LoadPct > 100) {
			return errf(path+".load_pct", "load_pct %d must be in 1..100", t.LoadPct)
		}
		if t.Interarrival < 0 {
			return errf(path+".interarrival", "must not be negative")
		}
		if t.LoadPct != 0 && t.Interarrival != 0 {
			return errf(path, "load_pct and interarrival are mutually exclusive")
		}
		if t.ExpectedBW < 0 || t.ExpectedBW > 1 {
			return errf(path+".expected_bw", "expected bandwidth fraction %v must be in 0..1", t.ExpectedBW)
		}
		if err := t.validateLoad(path + ".load"); err != nil {
			return err
		}
	}
	return nil
}

// validateLoad checks an LC task's load stanza: known shapes with only
// their relevant fields set, positive durations, bounded skew, ordered
// windows, and a base rate for every arrival-shaping feature.
func (t *Task) validateLoad(path string) error {
	l := t.Load
	if l == nil {
		return nil
	}
	if l.ZipfTheta < 0 || l.ZipfTheta >= 1 {
		return errf(path+".zipf_theta", "skew %v must be in [0, 1)", l.ZipfTheta)
	}
	shaped := len(l.Phases) > 0 || l.OnOff != nil || len(l.Windows) > 0
	if shaped && t.LoadPct == 0 && t.Interarrival == 0 {
		return errf(path, "rate shaping needs a base rate: set load_pct or interarrival")
	}
	if l.Repeat && len(l.Phases) == 0 {
		return errf(path+".repeat", "set without phases")
	}
	if len(l.Phases) > 32 {
		return errf(path+".phases", "at most 32 phases (got %d)", len(l.Phases))
	}
	anyRate := len(l.Phases) == 0
	for i := range l.Phases {
		p := &l.Phases[i]
		ppath := fmt.Sprintf("%s.phases[%d]", path, i)
		if p.Cycles == 0 {
			return errf(ppath+".cycles", "must be positive")
		}
		fields := []struct {
			name string
			set  bool
			want bool
		}{
			{"scale", p.Scale != 0, p.Shape != ShapeOff},
			{"to", p.To != 0, p.Shape == ShapeRamp},
			{"amp", p.Amp != 0, p.Shape == ShapeSine},
			{"period", p.Period != 0, p.Shape == ShapeSine},
		}
		switch p.Shape {
		case ShapeFlat, ShapeRamp, ShapeSine:
			if p.Scale <= 0 {
				return errf(ppath+".scale", "must be positive for shape %q", p.Shape)
			}
		case ShapeOff:
		default:
			return errf(ppath+".shape", "unknown shape %q (one of %s)",
				p.Shape, strings.Join(LoadShapes(), ", "))
		}
		for _, f := range fields {
			if f.set && !f.want {
				return errf(ppath+"."+f.name, "not valid for shape %q", p.Shape)
			}
		}
		switch p.Shape {
		case ShapeRamp:
			if p.To < 0 {
				return errf(ppath+".to", "must not be negative")
			}
		case ShapeSine:
			if p.Amp < 0 || p.Amp > 1 {
				return errf(ppath+".amp", "amplitude %v must be in 0..1", p.Amp)
			}
			if p.Period == 0 {
				return errf(ppath+".period", "must be positive for shape %q", ShapeSine)
			}
		}
		if p.maxScale() > 0 {
			anyRate = true
		}
	}
	if !anyRate {
		return errf(path+".phases", "every phase is silent — the task would never issue a request")
	}
	if o := l.OnOff; o != nil {
		opath := path + ".onoff"
		if o.OnMean <= 0 {
			return errf(opath+".on_mean", "must be positive")
		}
		if o.OffMean <= 0 {
			return errf(opath+".off_mean", "must be positive")
		}
		if o.OnScale < 0 || o.OffScale < 0 {
			return errf(opath, "scales must not be negative")
		}
		if o.OnScale == 0 && o.OffScale == 0 {
			return errf(opath, "both scales are zero — the task would never issue a request")
		}
	}
	for i := range l.Windows {
		w := l.Windows[i]
		wpath := fmt.Sprintf("%s.windows[%d]", path, i)
		if w.Until <= w.From {
			return errf(wpath, "until %d must exceed from %d", w.Until, w.From)
		}
		if i > 0 && w.From < l.Windows[i-1].Until {
			return errf(wpath+".from", "window overlaps or precedes windows[%d] (windows must be ordered and disjoint)", i-1)
		}
	}
	return nil
}

// maxScale mirrors load.Phase.maxScale for validation (the schema must not
// depend on conversion to reason about silence).
func (p *LoadPhase) maxScale() float64 {
	switch p.Shape {
	case ShapeRamp:
		if p.To > p.Scale {
			return p.To
		}
		return p.Scale
	case ShapeSine:
		return p.Scale * (1 + p.Amp)
	case ShapeOff:
		return 0
	default:
		return p.Scale
	}
}

// validateApp checks App against the catalogue for the task's kind.
func (t *Task) validateApp(path string) error {
	if t.Kind == KindLC {
		if _, ok := workload.LCApps()[t.App]; !ok {
			return errf(path, "unknown LC application %q", t.App)
		}
		return nil
	}
	if _, ok := workload.BEApps()[t.App]; !ok {
		return errf(path, "unknown BE application %q", t.App)
	}
	return nil
}

// customName returns the inline-params name, or "".
func (t *Task) customName() string {
	if t.LCParams != nil {
		return t.LCParams.Name
	}
	if t.BEParams != nil {
		return t.BEParams.Name
	}
	return ""
}

// Cores is the effective machine core count.
func (s *Scenario) Cores() int {
	if s.Machine.Cores > 0 {
		return s.Machine.Cores
	}
	return DefaultCores
}

// validateCoreBudget checks that the mix fits the machine (task i runs on
// core i; BE tasks occupy one core per thread).
func (s *Scenario) validateCoreBudget() error {
	need := 0
	for i := range s.Tasks {
		need += s.Tasks[i].ThreadCount()
	}
	if need > s.Cores() {
		return errf("tasks", "mix needs %d cores but the machine has %d", need, s.Cores())
	}
	return nil
}

func (s *Scenario) validateSweep() error {
	seen := map[string]int{}
	for i := range s.Sweep {
		a := s.Sweep[i]
		path := fmt.Sprintf("sweep[%d]", i)
		if a.Param == "" && len(a.Params) == 0 {
			return errf(path, "set param or params")
		}
		if a.Param != "" && len(a.Params) > 0 {
			return errf(path, "param and params are mutually exclusive")
		}
		if len(a.Values) == 0 {
			return errf(path+".values", "empty sweep axis %q", a.name())
		}
		for _, p := range a.params() {
			if prev, dup := seen[p]; dup {
				return errf(path, "parameter %q already swept by sweep[%d]", p, prev)
			}
			seen[p] = i
		}
		// Type- and range-check every value by applying it to a throwaway
		// clone; an axis that also perturbs thread counts or loads must keep
		// each single-value variant within the core budget (Expand re-checks
		// full combinations).
		for vi := range a.Values {
			probe := s.clone()
			if _, err := applyAxisValue(probe, a, vi); err != nil {
				return err
			}
			if err := probe.validateCoreBudget(); err != nil {
				var fe *FieldError
				if errors.As(err, &fe) {
					return errf(a.path(vi), "%s", fe.Msg)
				}
				return fmt.Errorf("%s: %w", a.path(vi), err)
			}
		}
	}
	return nil
}

// params lists the parameter names the axis sets.
func (a Axis) params() []string {
	if a.Param != "" {
		return []string{a.Param}
	}
	return a.Params
}
