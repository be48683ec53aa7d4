package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// FieldError is a scenario codec or validation error anchored at the JSON
// field path it refers to ("tasks[1].app", "sweep[0].values", ...).
type FieldError struct {
	Path string
	Msg  string
}

func (e *FieldError) Error() string {
	if e.Path == "" {
		return "scenario: " + e.Msg
	}
	return "scenario: " + e.Path + ": " + e.Msg
}

// errf builds a FieldError at path.
func errf(path, format string, args ...any) error {
	return &FieldError{Path: path, Msg: fmt.Sprintf(format, args...)}
}

// Parse decodes and validates a JSON scenario. Unknown fields anywhere in
// the document are rejected, and every error names the offending field path.
func Parse(data []byte) (*Scenario, error) {
	s := new(Scenario)
	if err := s.decode(data); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Load is Parse on a file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Encode renders the scenario as canonical JSON: compact, struct-field
// order, sorted map keys, trailing newline. Encoding is a fixed point —
// Encode(Parse(Encode(s))) is byte-identical to Encode(s) — which is what
// lets the fuzzer's codec oracle demand byte equality and the corpus store
// reproducible specs. (Axis values are raw JSON and are compacted by the
// encoder, so a freshly parsed file's first encoding may differ from the
// file; every encoding after that is stable.)
func (s *Scenario) Encode() ([]byte, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// MustEncode is Encode panicking on error (marshaling a validated scenario
// cannot fail).
func (s *Scenario) MustEncode() []byte {
	data, err := s.Encode()
	if err != nil {
		panic(err)
	}
	return data
}

// decode fills s from data, walking the document manually so that element
// indices ("tasks[2]") end up in error paths — a plain DisallowUnknownFields
// decode cannot report them.
func (s *Scenario) decode(data []byte) error {
	top, err := objectFields(data, "")
	if err != nil {
		return err
	}
	for _, key := range sortedKeys(top) {
		raw := top[key]
		switch key {
		case "version":
			err = unmarshalField(raw, &s.Version, key)
		case "name":
			err = unmarshalField(raw, &s.Name, key)
		case "brief":
			err = unmarshalField(raw, &s.Brief, key)
		case "machine":
			err = strictUnmarshal(raw, &s.Machine, key)
		case "policy":
			err = unmarshalField(raw, &s.Policy, key)
		case "options":
			err = strictUnmarshal(raw, &s.Options, key)
		case "tasks":
			err = s.decodeTasks(raw)
		case "warmup":
			err = unmarshalField(raw, &s.Warmup, key)
		case "measure":
			err = unmarshalField(raw, &s.Measure, key)
		case "seed":
			err = unmarshalField(raw, &s.Seed, key)
		case "faults":
			s.Faults = new(Faults)
			err = strictUnmarshal(raw, s.Faults, key)
		case "sim":
			err = errf(key, "the sharded parallel engine was removed; delete the sim stanza")
		case "sweep":
			err = s.decodeSweep(raw)
		default:
			err = errf("", "unknown field %q", key)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *Scenario) decodeTasks(raw json.RawMessage) error {
	elems, err := arrayElems(raw, "tasks")
	if err != nil {
		return err
	}
	s.Tasks = make([]Task, len(elems))
	for i, e := range elems {
		path := fmt.Sprintf("tasks[%d]", i)
		fields, err := objectFields(e, path)
		if err != nil {
			return err
		}
		t := &s.Tasks[i]
		for _, key := range sortedKeys(fields) {
			fraw := fields[key]
			fpath := path + "." + key
			switch key {
			case "kind":
				err = unmarshalField(fraw, &t.Kind, fpath)
			case "app":
				err = unmarshalField(fraw, &t.App, fpath)
			case "lc_params":
				t.LCParams = new(LCParams)
				err = strictUnmarshal(fraw, t.LCParams, fpath)
			case "be_params":
				t.BEParams = new(BEParams)
				err = strictUnmarshal(fraw, t.BEParams, fpath)
			case "load_pct":
				err = unmarshalField(fraw, &t.LoadPct, fpath)
			case "interarrival":
				err = unmarshalField(fraw, &t.Interarrival, fpath)
			case "expected_bw":
				err = unmarshalField(fraw, &t.ExpectedBW, fpath)
			case "load":
				t.Load = new(LoadSpec)
				err = decodeLoad(fraw, t.Load, fpath)
			case "threads":
				err = unmarshalField(fraw, &t.Threads, fpath)
			default:
				err = errf(path, "unknown field %q", key)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// decodeLoad walks a task's load stanza manually so phase and window
// indices ("tasks[0].load.phases[2].scale") land in error paths.
func decodeLoad(raw json.RawMessage, l *LoadSpec, path string) error {
	fields, err := objectFields(raw, path)
	if err != nil {
		return err
	}
	for _, key := range sortedKeys(fields) {
		fraw := fields[key]
		fpath := path + "." + key
		switch key {
		case "zipf_theta":
			err = unmarshalField(fraw, &l.ZipfTheta, fpath)
		case "repeat":
			err = unmarshalField(fraw, &l.Repeat, fpath)
		case "onoff":
			l.OnOff = new(LoadOnOff)
			err = strictUnmarshal(fraw, l.OnOff, fpath)
		case "phases":
			var elems []json.RawMessage
			if elems, err = arrayElems(fraw, fpath); err == nil {
				l.Phases = make([]LoadPhase, len(elems))
				for i, e := range elems {
					if err = strictUnmarshal(e, &l.Phases[i], fmt.Sprintf("%s[%d]", fpath, i)); err != nil {
						break
					}
				}
			}
		case "windows":
			var elems []json.RawMessage
			if elems, err = arrayElems(fraw, fpath); err == nil {
				l.Windows = make([]LoadWindow, len(elems))
				for i, e := range elems {
					if err = strictUnmarshal(e, &l.Windows[i], fmt.Sprintf("%s[%d]", fpath, i)); err != nil {
						break
					}
				}
			}
		default:
			err = errf(path, "unknown field %q", key)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *Scenario) decodeSweep(raw json.RawMessage) error {
	elems, err := arrayElems(raw, "sweep")
	if err != nil {
		return err
	}
	s.Sweep = make([]Axis, len(elems))
	for i, e := range elems {
		path := fmt.Sprintf("sweep[%d]", i)
		if err := strictUnmarshal(e, &s.Sweep[i], path); err != nil {
			return err
		}
	}
	return nil
}

// objectFields decodes raw as a JSON object into its raw members.
func objectFields(raw json.RawMessage, path string) (map[string]json.RawMessage, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, errf(path, "%s", jsonErr(err))
	}
	return m, nil
}

// arrayElems decodes raw as a JSON array of raw elements.
func arrayElems(raw json.RawMessage, path string) ([]json.RawMessage, error) {
	var elems []json.RawMessage
	if err := json.Unmarshal(raw, &elems); err != nil {
		return nil, errf(path, "%s", jsonErr(err))
	}
	return elems, nil
}

// unmarshalField decodes one scalar member, anchoring errors at path.
func unmarshalField(raw json.RawMessage, v any, path string) error {
	if err := json.Unmarshal(raw, v); err != nil {
		return errf(path, "%s", jsonErr(err))
	}
	return nil
}

// strictUnmarshal decodes a nested object rejecting unknown fields,
// anchoring errors at path (extended with the member the decoder blames,
// when it names one).
func strictUnmarshal(raw json.RawMessage, v any, path string) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if ute, ok := err.(*json.UnmarshalTypeError); ok && ute.Field != "" {
			path += "." + ute.Field
		}
		return errf(path, "%s", jsonErr(err))
	}
	return nil
}

// jsonErr strips encoding/json's noise ("json: ...", type names) down to the
// useful part of the message.
func jsonErr(err error) string {
	msg := err.Error()
	msg = strings.TrimPrefix(msg, "json: ")
	if ute, ok := err.(*json.UnmarshalTypeError); ok {
		return fmt.Sprintf("cannot use JSON %s here", ute.Value)
	}
	return msg
}

// sortedKeys makes decode order (and therefore which unknown field is
// reported first) deterministic.
func sortedKeys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
