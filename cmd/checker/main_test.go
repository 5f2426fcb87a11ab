package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/check"
)

// TestWriteRepro: every scripted pillar's reproducer is saved as a .scn
// script, an op list as .txt, named by pillar and seed.
func TestWriteRepro(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "repro")
	scn := &check.Failure{Check: "scenario-audit", Seed: 42, Repro: "# topo: ring(n=5)\nname check\nduration 60\n"}
	for i, f := range []*check.Failure{
		scn,
		{Check: "spf-differential", Seed: 7, Repro: "update 3 12\nerror: boom\n"},
		{Check: "flood-delivery", Seed: 9, Repro: "# topo: ring(n=5)\nname flood\nduration 60\n"},
	} {
		if err := writeRepro(dir, i+1, f); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	got := strings.Join(names, " ")
	if got != "001-scenario-audit-seed42.scn 002-spf-differential-seed7.txt 003-flood-delivery-seed9.scn" {
		t.Fatalf("reproducer files = %q", got)
	}
	b, err := os.ReadFile(filepath.Join(dir, "001-scenario-audit-seed42.scn"))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != scn.Repro {
		t.Fatalf("reproducer content = %q", b)
	}
}

// TestRunRejectsBadArgs: arguments the checker cannot honour exit 2 with
// usage before any campaign runs. No row runs a campaign; the CI
// checker-smoke job covers the success path.
func TestRunRejectsBadArgs(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // in stderr
	}{
		{[]string{"-campaigns", "0"}, "-campaigns must be at least 1, got 0"},
		{[]string{"-campaigns", "-3"}, "-campaigns must be at least 1, got -3"},
		// Flag parsing stops at "extra": -campaigns 1 would be ignored and
		// the default 100 campaigns run.
		{[]string{"extra", "-campaigns", "1"}, `unexpected argument "extra"`},
	} {
		var stdout, stderr strings.Builder
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.want) || !strings.Contains(stderr.String(), "Usage of checker") {
			t.Errorf("%q: stderr %q, want %q and usage", c.args, stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: stdout %q, want nothing", c.args, stdout.String())
		}
	}
}
