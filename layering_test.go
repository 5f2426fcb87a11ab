package arpanet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The examples and arpanetsim run networks through this package's Run, not
// by wiring internal packages themselves.
func TestCallersUseRootPackage(t *testing.T) {
	examples, err1 := filepath.Glob(filepath.Join("examples", "*", "*.go"))
	cli, err2 := filepath.Glob(filepath.Join("cmd", "arpanetsim", "*.go"))
	if err1 != nil || err2 != nil || len(examples) < 4 || len(cli) < 2 {
		t.Fatalf("found %d example and %d arpanetsim files (%v, %v)", len(examples), len(cli), err1, err2)
	}
	for _, name := range append(examples, cli...) {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(path, "repro/internal/") {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
}

// arpanetsim has one run path: its non-test code runs every invocation
// through RunSeeds and never calls Run itself.
func TestCLIRunsThroughRunSeeds(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("cmd", "arpanetsim", "*.go"))
	if err != nil || len(files) < 2 {
		t.Fatalf("found %d arpanetsim files (%v)", len(files), err)
	}
	calls := map[string]int{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "arpanet" && (sel.Sel.Name == "Run" || sel.Sel.Name == "RunSeeds") {
					calls[sel.Sel.Name]++
					if sel.Sel.Name == "Run" {
						t.Errorf("%s calls arpanet.Run", name)
					}
				}
			}
			return true
		})
	}
	if calls["RunSeeds"] == 0 {
		t.Error("cmd/arpanetsim never calls arpanet.RunSeeds")
	}
}

// Run drives one engine: no non-test file of this package reaches
// internal/network, directly or through scenario.Run, which keeps it only
// for the checker's hybrid pillar and the frozen bench/.
func TestRunHasOneEngine(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("found %d files (%v)", len(files), err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "repro/internal/network" {
				t.Errorf("%s imports %s", name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "scenario" && sel.Sel.Name == "Run" {
					t.Errorf("%s calls scenario.Run", name)
				}
			}
			return true
		})
	}
}

// internal/network is left to the engine comparisons and the fluid
// background: of this module's non-test files (bench/ is a module of its
// own), only scenario.Run's file imports it, and only the hybrid pillar,
// which carries the background as fluid, calls scenario.Run.
func TestNetworkEngineCallers(t *testing.T) {
	var imports, calls []string
	err := filepath.WalkDir(".", func(name string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (name == "bench" || name == "testdata" || strings.HasPrefix(d.Name(), ".") && name != "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "repro/internal/network" {
				imports = append(imports, filepath.ToSlash(name))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "scenario" && sel.Sel.Name == "Run" {
					calls = append(calls, filepath.ToSlash(name))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"internal/scenario/run.go"}; !slices.Equal(imports, want) {
		t.Errorf("non-test files importing internal/network: %q, want %q", imports, want)
	}
	if want := []string{"internal/check/hybridcheck.go"}; !slices.Equal(calls, want) {
		t.Errorf("non-test files calling scenario.Run: %q, want %q", calls, want)
	}
}
