package shard

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// The sharded engine shares its node model with internal/network through
// internal/node, never by importing the other engine.
func TestDoesNotImportNetwork(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no source files found (%v)", err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro/internal/network"` {
				t.Errorf("%s imports repro/internal/network", name)
			}
		}
	}
}
