package arpanet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// docsChecked are the documents whose code names TestDocsNameRealCode holds
// to the code: in a Markdown document its code spans and blocks, in a CI
// workflow or script all of it (a `go test -run 'A|B'` whose B is stale runs
// nothing and passes). bench/README.md is not among them: bench/ is frozen,
// and its stale internal/analysis.TestRepoIsClean waits for the benchmark's
// next revision.
var docsChecked = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md",
	".github/workflows/*.yml", "scripts/*.sh"}

var (
	fence    = regexp.MustCompile("(?s)```[^\n]*\n(.*?)```")
	codeSpan = regexp.MustCompile("`([^`]+)`")
	testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)
	goRunCmd = regexp.MustCompile(`go run \./cmd/([a-z]+)((?:[ \t]+[^\s|;&>#]+)*)`)
	// goTestCmd is a go test command line: its flags and packages, a quoted
	// -run pattern's alternatives included, up to a shell separator.
	goTestCmd = regexp.MustCompile(`go test((?:[ \t]+(?:'[^'\n]*'|"[^"\n]*"|[^\s|;&>#'"]+))*)`)
	// repoPath is a file path: a directory, a / and a name with a lowercase
	// extension, a glob's * allowed, a :line suffix stripped first.
	repoPath  = regexp.MustCompile(`^(?:\./)?[\w.*-]+(?:/[\w.*-]+)*/[\w*-][\w.*-]*\.[a-z][a-z0-9]*$`)
	lineRef   = regexp.MustCompile(`:[0-9]+(?:[–-][0-9]+)?$`)
	flagDecls = map[string]bool{
		"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
		"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
		"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
		"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
	}
)

// codeIn returns the code of a Markdown document: every fenced block, then
// every inline span, a span's line breaks read as spaces; spans counts the
// spans, which end the list.
func codeIn(doc string) (code []string, spans int) {
	for _, m := range fence.FindAllStringSubmatch(doc, -1) {
		code = append(code, m[1])
	}
	for _, m := range codeSpan.FindAllStringSubmatch(fence.ReplaceAllString(doc, ""), -1) {
		code = append(code, strings.ReplaceAll(m[1], "\n", " "))
		spans++
	}
	return code, spans
}

// repoFiles returns the path of every file in the working tree, relative to
// its root, hidden directories but .github left out.
func repoFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." && d.Name() != ".github" {
			return filepath.SkipDir
		}
		if !d.IsDir() {
			files = append(files, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// missingPaths returns each file path in a code span that names no file of
// files: none is the path, or ends in it after a / (a package's
// testdata/x.golden), or matches it as a glob.
func missingPaths(span string, files []string) []string {
	var missing []string
	for _, f := range strings.Fields(span) {
		path := strings.TrimPrefix(lineRef.ReplaceAllString(strings.TrimRight(f, ".,;)"), ""), "./")
		if repoPath.MatchString(path) && !slices.ContainsFunc(files, func(file string) bool {
			parts := strings.Split(file, "/")
			tail := strings.Join(parts[max(0, len(parts)-strings.Count(path, "/")-1):], "/")
			ok, _ := filepath.Match(path, tail)
			return ok
		}) {
			missing = append(missing, path)
		}
	}
	return missing
}

// moduleFuncs returns the name of every function declared in the module,
// test files and bench/ included, by package directory ("." for the root).
func moduleFuncs(t *testing.T) map[string][]string {
	t.Helper()
	names := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				names[filepath.Dir(path)] = append(names[filepath.Dir(path)], fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// commandFlags returns the flags cmd/<name> defines: the name argument of
// every flag.Xxx or fs.Xxx declaration in its non-test files.
func commandFlags(t *testing.T, name string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("cmd", name, "*.go"))
	if err != nil || len(files) == 0 {
		return nil
	}
	flags := map[string]bool{}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || !flagDecls[sel.Sel.Name] {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						flags[s] = true
					}
					break
				}
			}
			return true
		})
	}
	return flags
}

// checkDoc reports every stale name in one document's code (a Markdown
// document's code spans and blocks, any other file whole): a TestX,
// BenchmarkX or FuzzX that is no prefix of a module function (docs cite -run
// patterns such as TestBF1969 and TestStaticRoute*), a name in a go test
// command's -run pattern that is no prefix of a function in the packages
// that command lists, a `go run ./cmd/X` flag that X does not define, and in
// a Markdown code span a repo-relative file path that names no file.
func checkDoc(t *testing.T, doc, text string, funcs map[string][]string, files []string) []string {
	t.Helper()
	var stale []string
	var all []string
	for _, fs := range funcs {
		all = append(all, fs...)
	}
	flagsOf := map[string]map[string]bool{}
	codes, spans := []string{text}, 0
	if strings.HasSuffix(doc, ".md") {
		codes, spans = codeIn(text)
	}
	for _, span := range codes[len(codes)-spans:] {
		for _, path := range missingPaths(span, files) {
			stale = append(stale, doc+": "+path+" names no file")
		}
	}
	for _, code := range codes {
		for _, name := range testName.FindAllString(code, -1) {
			if !prefixOfAny(name, all) {
				stale = append(stale, doc+": "+name+" names no function in the module")
			}
		}
		for _, m := range goTestCmd.FindAllStringSubmatch(code, -1) {
			stale = append(stale, staleRunNames(doc, m[1], funcs, all)...)
		}
		for _, m := range goRunCmd.FindAllStringSubmatch(code, -1) {
			cmd := m[1]
			if flagsOf[cmd] == nil {
				flagsOf[cmd] = commandFlags(t, cmd)
			}
			if flagsOf[cmd] == nil {
				stale = append(stale, doc+": go run ./cmd/"+cmd+" names no command")
				continue
			}
			for _, flag := range unknownFlags(strings.Fields(m[2]), flagsOf[cmd]) {
				stale = append(stale, doc+": go run ./cmd/"+cmd+" -"+flag+": "+cmd+" defines no such flag")
			}
		}
	}
	return stale
}

// prefixOfAny reports whether name is a prefix of one of fns.
func prefixOfAny(name string, fns []string) bool {
	for _, fn := range fns {
		if strings.HasPrefix(fn, name) {
			return true
		}
	}
	return false
}

// staleRunNames reports each name of a go test command's -run pattern (args,
// the command line after "go test") that no function of the packages the
// command lists starts with, though one elsewhere in the module (all) does:
// a test moved out of them would silently stop running there. A command over
// ./..., or run in another module (-C), is left to the module-wide check;
// one with no package runs the root's.
func staleRunNames(doc, args string, funcs map[string][]string, all []string) []string {
	var pattern string
	var pkgs []string
	fields := strings.Fields(args)
	for i := 0; i < len(fields); i++ {
		switch f := fields[i]; {
		case f == "-run" && i+1 < len(fields):
			i++
			pattern = fields[i]
		case strings.HasPrefix(f, "-run="):
			pattern = strings.TrimPrefix(f, "-run=")
		case f == "-C" || strings.HasSuffix(f, "..."):
			return nil
		case strings.HasPrefix(f, "."):
			pkgs = append(pkgs, filepath.Clean(f))
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	var in []string
	for _, p := range pkgs {
		in = append(in, funcs[p]...)
	}
	var stale []string
	for _, name := range testName.FindAllString(pattern, -1) {
		if !prefixOfAny(name, in) && prefixOfAny(name, all) {
			stale = append(stale, doc+": "+name+" names no function in "+strings.Join(pkgs, " "))
		}
	}
	return stale
}

// unknownFlags returns the flags among args that are not in flags.
func unknownFlags(args []string, flags map[string]bool) []string {
	var unknown []string
	for _, arg := range args {
		if !strings.HasPrefix(arg, "-") || len(arg) < 2 {
			continue
		}
		flag, _, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
		if !flags[flag] {
			unknown = append(unknown, flag)
		}
	}
	return unknown
}

// checkCommandDoc reports every example line of command name's package
// comment — an indented line `name -flag …`, a '#' comment after it — that
// passes a flag the command does not define.
func checkCommandDoc(name, comment string, flags map[string]bool) []string {
	var stale []string
	for _, line := range strings.Split(comment, "\n") {
		if !strings.HasPrefix(line, "\t") {
			continue
		}
		line, _, _ = strings.Cut(line, "#")
		if args := strings.Fields(line); len(args) > 0 && args[0] == name {
			for _, flag := range unknownFlags(args[1:], flags) {
				stale = append(stale, "cmd/"+name+": "+name+" -"+flag+": "+name+" defines no such flag")
			}
		}
	}
	return stale
}

// commandDoc returns the package comment of cmd/<name>/main.go.
func commandDoc(t *testing.T, name string) string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", name, "main.go"), nil,
		parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	return f.Doc.Text()
}

// TestDocsNameRealCode keeps the documents' names true: every test,
// benchmark or fuzz target they cite exists, and every flag they or a
// command's own package comment pass a command is one it defines.
func TestDocsNameRealCode(t *testing.T) {
	funcs, files := moduleFuncs(t), repoFiles(t)
	for _, pattern := range docsChecked {
		docs, err := filepath.Glob(pattern)
		if err != nil || len(docs) == 0 {
			t.Fatalf("%s names no file: %v", pattern, err)
		}
		for _, doc := range docs {
			text, err := os.ReadFile(doc)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range checkDoc(t, doc, string(text), funcs, files) {
				t.Error(s)
			}
		}
	}
	mains, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go: %v", err)
	}
	for _, main := range mains {
		name := filepath.Base(filepath.Dir(main))
		for _, s := range checkCommandDoc(name, commandDoc(t, name), commandFlags(t, name)) {
			t.Error(s)
		}
	}
}

// TestDocsCheckCatchesStaleNames plants one stale name of each kind.
func TestDocsCheckCatchesStaleNames(t *testing.T) {
	funcs := map[string][]string{"internal/sim": {"TestRunUntil"}, "internal/shard": {"TestStaticRouteClosures"}}
	files := []string{"internal/node/psn.go", ".github/workflows/ci.yml", "internal/shard/testdata/hier1k.golden"}
	doc := "Run `TestStaticRoute*` and\n\n```\ngo run ./cmd/checker -campaigns 3 -seed 1 | tee out\n" +
		"go run ./cmd/figures -fig 1\ngo test -run TestRunUntil ./internal/sim\n```\n" +
		"then `TestStopOnViolationFreezes`, `go run ./cmd/arpanetsim -seeds 3\n-frozen` and `go run ./cmd/nosuch -x`.\n" +
		"`internal/node/psn.go:20`, `.github/workflows/*.yml`, `testdata/hier1k.golden`, `go test ./internal/node`,\n" +
		"`1/2.5` and `internal/core.Module.Update` are fine; `internal/network/distvec.go:82` moved."
	got := checkDoc(t, "doc.md", doc, funcs, files)
	want := []string{
		"doc.md: internal/network/distvec.go names no file",
		"doc.md: TestStopOnViolationFreezes names no function in the module",
		"doc.md: go run ./cmd/arpanetsim -frozen: arpanetsim defines no such flag",
		"doc.md: go run ./cmd/nosuch names no command",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("stale names:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// A -run name must name a test of the packages its own command lists.
	runs := "`go test -run 'TestRunUntil|TestStaticRouteClosures' ./internal/sim/` and\n" +
		"```\ngo test -count=1 -run=TestRunUntil ./internal/shard ./internal/sim\n" +
		"go test -run TestStaticRouteClosures ./...\ngo test -run TestRunUntil -v\n```\n"
	got = checkDoc(t, "doc.md", runs, funcs, files)
	want = []string{
		"doc.md: TestRunUntil names no function in .",
		"doc.md: TestStaticRouteClosures names no function in internal/sim",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("stale -run names:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// A workflow is code throughout, comments and prose included.
	ci := "      - name: Race\n        # TestRunUntil, then the renamed FuzzGone target\n" +
		"        run: |\n          go test -run 'TestRunUntil|TestRenamedAway' ./internal/sim\n" +
		"          go test -fuzz FuzzGone ./internal/sim\n          go run ./cmd/checker -campaigns 25 -frozen\n"
	got = checkDoc(t, "ci.yml", ci, funcs, files)
	want = []string{
		"ci.yml: FuzzGone names no function in the module",
		"ci.yml: TestRenamedAway names no function in the module",
		"ci.yml: FuzzGone names no function in the module",
		"ci.yml: go run ./cmd/checker -frozen: checker defines no such flag",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("stale workflow names:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	comment := commandDoc(t, "arpanetsim") + "\tarpanetsim -background 28000   # -fluid\n" +
		"-frozen in prose is no example.\n"
	got = checkCommandDoc("arpanetsim", comment, commandFlags(t, "arpanetsim"))
	want = []string{"cmd/arpanetsim: arpanetsim -background: arpanetsim defines no such flag"}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("stale command-doc flags:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
