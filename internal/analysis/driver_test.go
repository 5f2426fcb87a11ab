package analysis_test

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestGeneratedFilesNotReported: the gen fixture has a floatexact
// violation behind a "Code generated" header; the driver must drop it.
func TestGeneratedFilesNotReported(t *testing.T) {
	root := moduleRoot(t)
	res, err := analysis.Analyze(root, []string{"internal/analysis/testdata/src/gen"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) > 0 {
		t.Fatalf("load errors: %v", res.Errors)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("findings in a generated file: %v", res.Findings)
	}
}

// TestBuildTagsRespected: excluded.go is behind an unsatisfied build
// constraint and holds a violation; go/build must keep it out entirely.
func TestBuildTagsRespected(t *testing.T) {
	root := moduleRoot(t)
	res, err := analysis.Analyze(root, []string{"internal/analysis/testdata/src/buildtag"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("constrained-out file leaked into the analysis: findings %v, errors %v",
			res.Findings, res.Errors)
	}
}

// TestBrokenPackageReportsErrors: a package that fails to type-check must
// land in Result.Errors, produce no findings, and above all not panic.
func TestBrokenPackageReportsErrors(t *testing.T) {
	root := moduleRoot(t)
	res, err := analysis.Analyze(root, []string{"internal/analysis/testdata/src/broken"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) == 0 {
		t.Fatal("type error not surfaced in Result.Errors")
	}
	if !strings.Contains(res.Errors[0], "undefinedIdentifier") {
		t.Errorf("error does not name the broken identifier: %q", res.Errors[0])
	}
	if len(res.Findings) != 0 {
		t.Errorf("rules ran over a half-typed package: %v", res.Findings)
	}
	if res.Clean() {
		t.Error("a broken package must not count as clean")
	}
}

// TestJSONRoundTrip: the -json schema must survive encode/decode without
// losing a field (Pos is deliberately excluded; File/Line/Col carry it).
func TestJSONRoundTrip(t *testing.T) {
	root := moduleRoot(t)
	res, err := analysis.Analyze(root, []string{"internal/analysis/testdata/src/floatexact"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("fixture produced no findings to round-trip")
	}
	if res.Version != analysis.ResultVersion {
		t.Fatalf("Version = %d, want %d", res.Version, analysis.ResultVersion)
	}
	first, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded analysis.Result
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("schema not stable under round-trip:\nfirst:  %s\nsecond: %s", first, second)
	}
	d := decoded.Findings[0]
	if d.Rule == "" || d.File == "" || d.Line == 0 || d.Message == "" || d.Package == "" {
		t.Errorf("decoded finding lost fields: %+v", d)
	}
}

// TestUnknownRuleRejected: a typo in -rules must be an error, never a
// silent no-op lint.
func TestUnknownRuleRejected(t *testing.T) {
	root := moduleRoot(t)
	_, err := analysis.Analyze(root, []string{"internal/analysis/testdata/src/floatexact"}, []string{"floatexact", "nope"})
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown rule not rejected: err = %v", err)
	}
}

// TestInjectedWallClockCaught is the acceptance probe from the issue: a
// time.Now() planted in internal/sim (via overlay, without touching the
// tree) must be a detdrift finding.
func TestInjectedWallClockCaught(t *testing.T) {
	root := moduleRoot(t)
	l, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	l.Overlay = map[string][]byte{
		filepath.Join(root, "internal", "sim", "zz_injected.go"): []byte(
			"package sim\n\nimport \"time\"\n\n" +
				"func zzInjectedWallClock() int64 { return time.Now().UnixNano() }\n"),
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
			strings.Contains(d.Message, "time.Now") {
			found = true
		}
	}
	if !found {
		t.Fatalf("injected time.Now in internal/sim not caught; findings: %v", res.Findings)
	}
}

// TestRepoIsClean keeps the whole tree lint-clean: any new finding must
// be fixed or suppressed with a reason in the same change that adds it.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks every package")
	}
	root := moduleRoot(t)
	res, err := analysis.Analyze(root, []string{"./..."}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Errors {
		t.Errorf("load error: %s", e)
	}
	for _, d := range res.Findings {
		t.Errorf("finding: %s", d)
	}
}
