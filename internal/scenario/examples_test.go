package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// exampleDocs reads every spec checked in under examples/scenarios/.
func exampleDocs(t *testing.T) map[string][]byte {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no example scenarios under examples/scenarios")
	}
	docs := map[string][]byte{}
	for _, path := range matches {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs[filepath.Base(path)] = doc
	}
	return docs
}

// TestExampleScenarios strict-decodes, validates and expands every spec
// checked in under examples/scenarios/ — the documented entry points must
// never rot.
func TestExampleScenarios(t *testing.T) {
	for name, doc := range exampleDocs(t) {
		t.Run(name, func(t *testing.T) {
			s, err := Parse(doc)
			if err != nil {
				t.Fatalf("strict decode: %v", err)
			}
			units, err := s.Expand()
			if err != nil {
				t.Fatalf("Expand: %v", err)
			}
			if len(units) == 0 {
				t.Fatalf("expanded to no units")
			}
		})
	}
}

// TestUnitsPassValidate: every run unit of a scenario Parse accepts passes
// Validate like a scenario file — for every builtin and example, and for a
// sweep of scale over an "off" phase, which Parse must refuse rather than
// expand into a unit Validate refuses. TestBuiltinsValid and
// TestExampleScenarios pin that the builtins and examples parse.
func TestUnitsPassValidate(t *testing.T) {
	docs := exampleDocs(t)
	for _, id := range BuiltinIDs() {
		docs["builtin "+id] = MustBuiltin(id).MustEncode()
	}
	docs["scale swept on an off phase"] = []byte(`{"version":1,"name":"t","policy":"Default",
	  "tasks":[{"kind":"lc","app":"silo","load_pct":70,
	            "load":{"phases":[{"shape":"off","cycles":100},{"shape":"flat","cycles":100,"scale":1}]}}],
	  "sweep":[{"param":"tasks[0].load.phases[0].scale","values":[2]}]}`)
	for name, doc := range docs {
		t.Run(name, func(t *testing.T) {
			s, err := Parse(doc)
			if err != nil {
				return
			}
			units, err := s.Expand()
			if err != nil {
				t.Fatalf("Expand: %v", err)
			}
			for _, u := range units {
				if err := u.Scenario.Validate(); err != nil {
					t.Errorf("unit %q: %v", u.Label, err)
				}
			}
		})
	}
}
