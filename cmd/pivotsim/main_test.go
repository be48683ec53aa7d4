package main

import "testing"

// TestPolicyNamesSorted: the -policy help lists every policy in a fixed
// order, not the map's iteration order.
func TestPolicyNamesSorted(t *testing.T) {
	const want = "cbp|cbp-fullpath|default|fullpath|mba|mpam|pivot"
	for i := 0; i < 10; i++ {
		if got := policyNames(); got != want {
			t.Fatalf("policyNames() = %q, want %q", got, want)
		}
	}
}
