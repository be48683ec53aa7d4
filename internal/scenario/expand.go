package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
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

// sweepable maps each parameter a sweep axis may set, as a path pattern in
// which "[]" stands for an array index, to what setting it implies. zero
// names what a 0 runs in a field where 0 means "default": a swept 0 would
// silently run another value, so it is refused. clears lists the exclusive
// sibling fields the value replaces. lc_params and be_params are not
// sweepable: a swept custom app would reuse one name for different
// parameters, and calibration and profiles are cached by app name.
var sweepable = map[string]struct {
	zero   string
	clears []string
}{
	"policy":                       {},
	"seed":                         {zero: "the scale's seed"},
	"warmup":                       {},
	"measure":                      {},
	"machine.cores":                {zero: "the default core count"},
	"machine.be_ways":              {},
	"options.expected_lc_bw":       {},
	"options.rrbp_entries":         {},
	"options.mba_level":            {},
	"options.disable_msc":          {},
	"options.prefetch":             {},
	"tasks[].app":                  {clears: []string{"lc_params", "be_params"}},
	"tasks[].load_pct":             {zero: "closed loop", clears: []string{"interarrival"}},
	"tasks[].interarrival":         {zero: "closed loop", clears: []string{"load_pct"}},
	"tasks[].threads":              {zero: "one thread"},
	"tasks[].load.zipf_theta":      {},
	"tasks[].load.phases[].scale":  {},
	"tasks[].load.phases[].cycles": {},
	"tasks[].load.onoff.on_mean":   {},
	"tasks[].load.onoff.off_mean":  {},
}

// Expand resolves the sweep axes into their cartesian product of run units,
// first axis outermost, tuple-axis fields set together. Each unit is the
// sweep-free scenario with its axis values written into the JSON document,
// decoded by the strict codec and checked by Validate, so a unit obeys the
// same rules as a scenario file.
func (s *Scenario) Expand() ([]RunUnit, error) {
	total := 1
	for _, a := range s.Sweep {
		total *= len(a.Values)
	}
	if total > maxUnits {
		return nil, errf("sweep", "expands to %d run units (max %d)", total, maxUnits)
	}
	base, err := s.baseDoc()
	if err != nil {
		return nil, err
	}
	units := make([]RunUnit, 0, total)
	for n := 0; n < total; n++ {
		var edits []edit
		var label []string
		// Odometer over the axes: the last axis turns fastest.
		vis := make([]int, len(s.Sweep))
		for k, rem := len(s.Sweep)-1, n; k >= 0; k-- {
			vis[k] = rem % len(s.Sweep[k].Values)
			rem /= len(s.Sweep[k].Values)
		}
		for k, a := range s.Sweep {
			e, err := a.edits(vis[k])
			if err != nil {
				return nil, err
			}
			edits = append(edits, e...)
			for _, ed := range e {
				label = append(label, ed.param+"="+labelValue(ed.value))
			}
		}
		unit := RunUnit{Label: strings.Join(label, " ")}
		if unit.Scenario, err = resolve(base, edits); err != nil {
			return nil, fmt.Errorf("unit %q: %w", unit.Label, err)
		}
		units = append(units, unit)
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

// baseDoc encodes the scenario without its sweep: the document every unit
// edits.
func (s *Scenario) baseDoc() ([]byte, error) {
	b := *s
	b.Sweep = nil
	return json.Marshal(&b)
}

// edit sets one parameter to one raw JSON value.
type edit struct {
	param string
	value json.RawMessage
}

// edits returns the parameter settings value vi of the axis makes.
func (a Axis) edits(vi int) ([]edit, error) {
	raw := a.Values[vi]
	if a.Param != "" {
		return []edit{{a.Param, raw}}, nil
	}
	var elems []json.RawMessage
	if err := json.Unmarshal(raw, &elems); err != nil {
		return nil, errf(a.path(vi), "tuple value must be an array: %s", jsonErr(err))
	}
	if len(elems) != len(a.Params) {
		return nil, errf(a.path(vi), "tuple has %d elements for %d params", len(elems), len(a.Params))
	}
	out := make([]edit, len(elems))
	for i, e := range elems {
		out[i] = edit{a.Params[i], e}
	}
	return out, nil
}

// resolve writes the edits into the document base and parses the result like
// a scenario file: one run unit.
func resolve(base []byte, edits []edit) (*Scenario, error) {
	var doc map[string]any
	dec := json.NewDecoder(bytes.NewReader(base))
	dec.UseNumber() // keep every number's digits for the re-encoding
	if err := dec.Decode(&doc); err != nil {
		return nil, err
	}
	for _, e := range edits {
		if err := e.apply(doc); err != nil {
			return nil, err
		}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// apply sets the edit's value at its parameter path in doc, a decoded
// sweep-free scenario, and drops the fields the value replaces. Errors carry
// no path: the caller anchors them at the sweep value.
func (e edit) apply(doc map[string]any) error {
	pattern, steps, ok := parseParam(e.param)
	rule, known := sweepable[pattern]
	if !ok || !known {
		return errf("", "unknown sweep parameter %q", e.param)
	}
	if rule.zero != "" {
		var f float64
		if json.Unmarshal(e.value, &f) == nil && f == 0 {
			return errf("", "%s 0 would run %s; swept values must be positive", e.param, rule.zero)
		}
	}
	obj := doc
	at := ""
	for _, st := range steps[:len(steps)-1] {
		if at != "" {
			at += "."
		}
		at += st.key
		v := obj[st.key]
		if st.index >= 0 {
			arr, _ := v.([]any)
			if st.index >= len(arr) {
				return errf("", "%s index %d out of range (%s has %d)",
					strings.TrimSuffix(st.key, "s"), st.index, at, len(arr))
			}
			at += fmt.Sprintf("[%d]", st.index)
			v = arr[st.index]
		}
		var isObj bool
		if obj, isObj = v.(map[string]any); !isObj {
			return errf("", "%q sweeps a field of %s, which the scenario does not set", e.param, at)
		}
	}
	field := steps[len(steps)-1].key
	obj[field] = e.value
	for _, k := range rule.clears {
		delete(obj, k)
	}
	return nil
}

// step is one element of a parameter path: an object member, indexed when
// index >= 0.
type step struct {
	key   string
	index int
}

// parseParam splits a parameter path ("tasks[0].load.phases[1].scale") into
// steps and its pattern ("tasks[].load.phases[].scale"). ok is false when an
// index is malformed.
func parseParam(name string) (pattern string, steps []step, ok bool) {
	var pat []string
	for _, seg := range strings.Split(name, ".") {
		key, idx, indexed := strings.Cut(seg, "[")
		st := step{key: key, index: -1}
		if indexed {
			digits, closed := strings.CutSuffix(idx, "]")
			n, err := strconv.Atoi(digits)
			if !closed || err != nil || n < 0 {
				return "", nil, false
			}
			st.index = n
			key += "[]"
		}
		pat = append(pat, key)
		steps = append(steps, st)
	}
	return strings.Join(pat, "."), steps, true
}

// anchor re-anchors a unit's error at the sweep value that made the unit,
// keeping the unit's own field path in the message.
func anchor(path string, err error) error {
	var fe *FieldError
	if !errors.As(err, &fe) {
		return fmt.Errorf("%s: %w", path, err)
	}
	if fe.Path == "" {
		return errf(path, "%s", fe.Msg)
	}
	return errf(path, "%s: %s", fe.Path, fe.Msg)
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

// Clone deep-copies the scenario's mutable parts (tasks and their custom
// params and load stanzas) — what a caller mutating tasks or options, like
// the fuzzer's shrinker, needs. Axes share the original's immutable raw
// values.
func (s *Scenario) Clone() *Scenario {
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
