package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/check"
)

func TestWriteRepro(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "repro")
	scn := &check.Failure{Check: "scenario-audit", Seed: 42, Repro: "# topo: ring(n=5)\nname check\nduration 60\n"}
	txt := &check.Failure{Check: "spf-differential", Seed: 7, Repro: "update 3 12\nerror: boom\n"}
	if err := writeRepro(dir, 1, scn); err != nil {
		t.Fatal(err)
	}
	if err := writeRepro(dir, 2, txt); err != nil {
		t.Fatal(err)
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
	if got != "001-scenario-audit-seed42.scn 002-spf-differential-seed7.txt" {
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

// TestCheckerSmoke runs a miniature campaign batch through the same entry
// the CI job uses, asserting a clean pass (worker-count determinism is
// check.TestCampaignDeterminism's job).
func TestCheckerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign batch")
	}
	for _, r := range check.Run(check.Options{Campaigns: 5, Seed: 1}) {
		if len(r.Failures) > 0 {
			t.Errorf("campaign seed=%d failed:\n%s", r.Seed, r.Failures[0].Repro)
		}
	}
}
