package analysis_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t testing.TB) string {
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

// wantRE matches one expected diagnostic in a fixture comment:
//
//	// want rule "substring"        (finding on this line)
//	// want(+1) rule "substring"    (finding N lines below the comment)
var wantRE = regexp.MustCompile(`// want(?:\(([+-]\d+)\))? ([a-z-]+) "([^"]+)"`)

type wantDiag struct {
	file    string // module-root-relative, slash-separated
	line    int
	rule    string
	substr  string
	matched bool
}

// parseWants collects the want comments of every fixture file in relDir.
func parseWants(t *testing.T, root, relDir string) []*wantDiag {
	t.Helper()
	dir := filepath.Join(root, filepath.FromSlash(relDir))
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*wantDiag
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, lineText := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(lineText, -1) {
				offset := 0
				if m[1] != "" {
					offset, err = strconv.Atoi(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want offset %q", e.Name(), i+1, m[1])
					}
				}
				wants = append(wants, &wantDiag{
					file:   relDir + "/" + e.Name(),
					line:   i + 1 + offset,
					rule:   m[2],
					substr: m[3],
				})
			}
		}
	}
	return wants
}

// TestGoldenFixtures runs the full rule suite over each rule's fixture
// package and demands an exact match between findings and want comments:
// every finding matched by a want, every want matched by a finding. The
// suppressed sites in the fixtures carry no wants, so this also proves
// lint:ignore silences exactly what it says.
func TestGoldenFixtures(t *testing.T) {
	root := moduleRoot(t)
	for _, fixture := range []string{
		"detdrift", "detdrift2", "handlecheck", "floatexact", "stale",
	} {
		t.Run(fixture, func(t *testing.T) {
			relDir := "internal/analysis/testdata/src/" + fixture
			res, err := analysis.Analyze(root, []string{relDir}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Errors) > 0 {
				t.Fatalf("fixture failed to load: %v", res.Errors)
			}
			wants := parseWants(t, root, relDir)
			if len(wants) == 0 {
				t.Fatal("fixture has no want comments; the test would pass vacuously")
			}
			for _, d := range res.Findings {
				matched := false
				for _, w := range wants {
					if !w.matched && w.file == d.File && w.line == d.Line &&
						w.rule == d.Rule && strings.Contains(d.Message, w.substr) {
						w.matched = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected finding: %s", d)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("missing finding: %s:%d: %s: ...%s...", w.file, w.line, w.rule, w.substr)
				}
			}
		})
	}
}
