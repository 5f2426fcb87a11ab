package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListPrintsCatalog(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	for _, r := range analysis.AllRules() {
		if !strings.Contains(out, r.Name()) {
			t.Errorf("-list output missing rule %s", r.Name())
		}
	}
}

func TestFindingsExitOne(t *testing.T) {
	root := repoRoot(t)
	code, out, _ := runCLI(t, "-C", root, "internal/analysis/testdata/src/floatexact")
	if code != 1 {
		t.Fatalf("exit %d, want 1\noutput: %s", code, out)
	}
	if !strings.Contains(out, "floatexact: exact floating-point") {
		t.Errorf("missing human-readable finding line:\n%s", out)
	}
	if !strings.Contains(out, "finding(s)") {
		t.Errorf("missing summary line:\n%s", out)
	}
}

func TestCleanExitZero(t *testing.T) {
	root := repoRoot(t)
	code, out, _ := runCLI(t, "-C", root, "internal/analysis/testdata/src/buildtag")
	if code != 0 {
		t.Fatalf("exit %d, want 0\noutput: %s", code, out)
	}
	if out != "" {
		t.Errorf("clean run must print nothing, got:\n%s", out)
	}
}

func TestJSONOutput(t *testing.T) {
	root := repoRoot(t)
	code, out, _ := runCLI(t, "-json", "-C", root, "internal/analysis/testdata/src/floatexact")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var res analysis.Result
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("-json output is not the Result schema: %v\n%s", err, out)
	}
	if res.Version != analysis.ResultVersion || len(res.Findings) == 0 {
		t.Errorf("decoded version=%d findings=%d", res.Version, len(res.Findings))
	}
}

func TestRuleSubset(t *testing.T) {
	root := repoRoot(t)
	// The floatexact fixture is clean under every other rule.
	code, out, _ := runCLI(t, "-C", root, "-rules", "detdrift,handlecheck",
		"internal/analysis/testdata/src/floatexact")
	if code != 0 || out != "" {
		t.Fatalf("rule subset leaked findings: exit %d\n%s", code, out)
	}
}

// A rule that no longer exists is as unknown as a typo: selecting one of the
// three whose invariants run-time guards took over must not lint nothing.
func TestUnknownRuleExitTwo(t *testing.T) {
	root := repoRoot(t)
	for _, name := range []string{"bogus", "poolsafe", "shardsafe", "errcheck-lite"} {
		code, _, errOut := runCLI(t, "-C", root, "-rules", name,
			"internal/analysis/testdata/src/floatexact")
		if code != 2 {
			t.Fatalf("-rules %s: exit %d, want 2", name, code)
		}
		if !strings.Contains(errOut, "unknown rule") || !strings.Contains(errOut, name) {
			t.Errorf("-rules %s: stderr does not name the unknown rule: %s", name, errOut)
		}
	}
}

func TestLoadErrorExitOne(t *testing.T) {
	root := repoRoot(t)
	code, out, _ := runCLI(t, "-C", root, "internal/analysis/testdata/src/broken")
	if code != 1 {
		t.Fatalf("exit %d, want 1\noutput: %s", code, out)
	}
	if !strings.Contains(out, "load error") {
		t.Errorf("broken package not reported as load error:\n%s", out)
	}
}
