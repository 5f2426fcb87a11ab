package arpanet

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The examples and arpanetsim run networks through this package's Run, on
// either engine, not by wiring internal packages themselves.
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
