package main

import (
	"strings"
	"testing"

	"pivot/internal/exp"
)

// TestUsageListsEveryExperiment: the help text names every registered
// experiment id, so it cannot fall behind the registry.
func TestUsageListsEveryExperiment(t *testing.T) {
	text := usageText()
	ids := text[strings.Index(text, "Experiment ids:"):]
	ids = ids[:strings.Index(ids, "\n\n")]
	listed := map[string]bool{}
	for _, f := range strings.Fields(ids)[2:] {
		listed[f] = true
	}
	for _, id := range exp.IDs() {
		if !listed[id] {
			t.Errorf("usage omits experiment %q:\n%s", id, text)
		}
	}
	if len(listed) != len(exp.IDs()) {
		t.Errorf("usage lists %d ids, registry has %d", len(listed), len(exp.IDs()))
	}
}
