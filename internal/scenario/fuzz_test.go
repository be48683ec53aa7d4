package scenario

import (
	"bytes"
	"testing"
)

// fuzzSeeds feeds every builtin's canonical encoding plus a few adversarial
// documents into a fuzz corpus.
func fuzzSeeds(f *testing.F) {
	for _, s := range Builtins() {
		f.Add(s.MustEncode())
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"name":"t","policy":"Default",
	  "tasks":[{"kind":"lc","app":"silo","load_pct":70}],
	  "sweep":[{"param":"machine.cores","values":[2,4]}]}`))
	// A sweep value that Validate would refuse in a file: scale is not
	// valid on an "off" phase.
	f.Add([]byte(`{"version":1,"name":"t","policy":"Default",
	  "tasks":[{"kind":"lc","app":"silo","load_pct":70,
	            "load":{"phases":[{"shape":"off","cycles":100},{"shape":"flat","cycles":100,"scale":1}]}}],
	  "sweep":[{"param":"tasks[0].load.phases[0].scale","values":[2]}]}`))
	f.Add([]byte(`{"version":1e999}`))
	f.Add([]byte("\xff\xfe not json"))
}

// FuzzDecode: whatever the strict codec accepts must re-encode to a stable
// fixed point — Parse → Encode → Parse → Encode is byte-identical and never
// panics.
func FuzzDecode(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, doc []byte) {
		s, err := Parse(doc)
		if err != nil {
			return // rejection is fine; panics and accept-loops are not
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("accepted scenario does not encode: %v", err)
		}
		re, err := Parse(enc)
		if err != nil {
			t.Fatalf("codec rejects its own output: %v\n%s", err, enc)
		}
		if again := re.MustEncode(); !bytes.Equal(enc, again) {
			t.Fatalf("encode not a fixed point:\n%s\n%s", enc, again)
		}
	})
}

// FuzzValidate: any document Parse accepts must survive Validate, Clone and
// Expand without panicking, and every unit it expands to must pass Validate
// like a scenario file. Expansion may fail (a combination over the core
// budget or the unit cap).
func FuzzValidate(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, doc []byte) {
		s, err := Parse(doc)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Parse accepted but Validate rejects: %v", err)
		}
		units, err := s.Clone().Expand()
		if err != nil {
			return
		}
		for _, u := range units {
			if err := u.Scenario.Validate(); err != nil {
				t.Fatalf("unit %q of an accepted scenario fails Validate: %v", u.Label, err)
			}
		}
	})
}
