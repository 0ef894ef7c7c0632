package main

import (
	"strings"
	"testing"
)

// TestUnknownExperiment: an id that matches nothing is an error (main exits
// non-zero on it), not a silent no-op run.
func TestUnknownExperiment(t *testing.T) {
	err := run("no-such-experiment", "SCI_1K", 1)
	if err == nil {
		t.Fatal("unknown experiment id ran successfully")
	}
	if !strings.Contains(err.Error(), "no-such-experiment") {
		t.Fatalf("error does not name the experiment: %v", err)
	}
}

// TestRegistryShape: ids are unique across primaries and aliases, and every
// entry has a runner — the invariants dispatch relies on.
func TestRegistryShape(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		for _, id := range append([]string{e.id}, e.aliases...) {
			key := strings.ToLower(id)
			if seen[key] {
				t.Errorf("duplicate experiment id %q", id)
			}
			seen[key] = true
		}
		if e.run == nil {
			t.Errorf("experiment %q has no runner", e.id)
		}
	}
}

// TestDispatchSingleExperiment: a known id at small scale runs end to end,
// and alias ids select the same entry.
func TestDispatchSingleExperiment(t *testing.T) {
	if err := run("fig5.7", "SCI_1K", 1); err != nil {
		t.Fatalf("fig5.7: %v", err)
	}
}

func TestDispatchAlias(t *testing.T) {
	var matched *experiment
	for i := range experiments {
		if experiments[i].matches("fig5.12") {
			matched = &experiments[i]
			break
		}
	}
	if matched == nil || matched.id != "fig5.10" {
		t.Fatalf("alias fig5.12 did not resolve to fig5.10: %+v", matched)
	}
}
