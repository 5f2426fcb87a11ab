package analysis_test

// Acceptance probes for the interprocedural layer: each rule built on it
// must demonstrably catch a bug planted (by overlay, without touching the
// tree) in the real packages it guards, and the program layer must
// tolerate broken packages.

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestInjectedCrossFunctionDriftCaught: a wall-clock read hidden one
// call away in a non-deterministic package (internal/topology) must
// surface as a detdrift finding at the call site inside internal/sim,
// with the witness naming the transitive source.
func TestInjectedCrossFunctionDriftCaught(t *testing.T) {
	root := moduleRoot(t)
	l, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	l.Overlay = map[string][]byte{
		filepath.Join(root, "internal", "topology", "zz_injected.go"): []byte(
			"package topology\n\nimport \"time\"\n\n" +
				"func ZZStamp() int64 { return time.Now().UnixNano() }\n"),
		filepath.Join(root, "internal", "sim", "zz_injected.go"): []byte(
			"package sim\n\nimport \"repro/internal/topology\"\n\n" +
				"func zzInjectedDrift() int64 { return topology.ZZStamp() }\n"),
	}
	res, err := analysis.AnalyzeWith(l, []string{"internal/sim"}, []string{"detdrift"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) > 0 {
		t.Fatalf("overlay failed to load: %v", res.Errors)
	}
	found := false
	for _, d := range res.Findings {
		if d.Rule == "detdrift" && d.File == "internal/sim/zz_injected.go" &&
			strings.Contains(d.Message, "call to ZZStamp reaches the wall clock") &&
			strings.Contains(d.Message, "time.Now") {
			found = true
		}
	}
	if !found {
		t.Fatalf("injected cross-function wall-clock read not caught; findings: %v", res.Findings)
	}
}

// TestProgramToleratesBrokenPackage: building the interprocedural
// program over a load set that includes a package with type errors must
// not panic, and must still produce the other packages' findings.
func TestProgramToleratesBrokenPackage(t *testing.T) {
	root := moduleRoot(t)
	res, err := analysis.Analyze(root, []string{
		"internal/analysis/testdata/src/broken",
		"internal/analysis/testdata/src/detdrift2",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) == 0 {
		t.Fatal("broken package's type error not surfaced")
	}
	interproc := false
	for _, d := range res.Findings {
		if strings.HasPrefix(d.File, "internal/analysis/testdata/src/broken") {
			t.Errorf("finding in the broken package: %s", d)
		}
		if d.Rule == "detdrift" && strings.Contains(d.Message, "call to Stamp") {
			interproc = true
		}
	}
	if !interproc {
		t.Error("broken package poisoned the program: detdrift2's interprocedural finding is gone")
	}
}

// BenchmarkLintRepo measures a full-repo lint: load, type-check, build the
// program, run every rule.
func BenchmarkLintRepo(b *testing.B) {
	root := moduleRoot(b)
	for i := 0; i < b.N; i++ {
		res, err := analysis.Analyze(root, []string{"./..."}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Clean() {
			b.Fatalf("repo not clean: %v %v", res.Findings, res.Errors)
		}
	}
}
