package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, type-checked package.
type Package struct {
	Path string // import path
	Name string // package name
	Dir  string // absolute directory
	Root string // module root (for root-relative diagnostic paths)

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Generated maps absolute filenames carrying a standard
	// "Code generated ... DO NOT EDIT." header; rules never report in them.
	Generated map[string]bool

	// Errors holds parse and type-check failures. A package with errors is
	// still returned (syntax may be partially usable) but rules skip it and
	// the driver surfaces the errors instead of panicking on half-built
	// type information.
	Errors []error

	suppressions map[string]map[int]*suppression // filename -> line -> directive
}

func (p *Package) relPath(filename string) string {
	if p.Root == "" {
		return filename
	}
	if rel, err := filepath.Rel(p.Root, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filename
}

// Loader loads and type-checks packages of a single module using only the
// standard library: directories are discovered by walking the module tree,
// files are selected by go/build (so build constraints and _-prefixed
// files behave exactly as the go tool), in-module imports are resolved
// recursively through the loader's own cache, and standard-library imports
// come from compiler export data (falling back to type-checking the
// standard library from source when no export data is available).
type Loader struct {
	Root    string // module root directory (holds go.mod)
	ModPath string // module path declared in go.mod

	// Overlay maps absolute *.go filenames to replacement/additional file
	// contents. Overlay files join the package of their directory; tests
	// use this to inject violations into real packages without touching
	// the tree.
	Overlay map[string][]byte

	// TestFiles, when true, also loads _test.go files of the package under
	// test (white-box tests only; external _test packages are out of
	// scope). The default mirrors the rules' contract: test files are
	// exempt, so they are not even loaded.
	TestFiles bool

	fset    *token.FileSet
	ctx     build.Context
	std     types.ImporterFrom
	stdSrc  types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader finds the module containing dir (searching upward for go.mod)
// and returns a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		Root:    root,
		ModPath: modPath,
		fset:    fset,
		ctx:     build.Default,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	if gc, ok := importer.ForCompiler(fset, "gc", nil).(types.ImporterFrom); ok {
		l.std = gc
	}
	return l, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module declaration in %s", gomod)
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// All returns every package the loader has loaded so far — the pattern
// packages and every in-module dependency they pulled in — sorted by
// import path. The interprocedural program is built over this set so
// effect summaries cross package boundaries.
func (l *Loader) All() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Load expands the patterns ("./...", "dir/...", or plain directories,
// relative to the module root) and returns the matching packages in a
// deterministic order. A package that fails to parse or type-check is
// returned with Errors set rather than aborting the whole load.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		expanded, err := l.expand(pat)
		if err != nil {
			return nil, err
		}
		for _, d := range expanded {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		path, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.loadPackage(path)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// expand resolves one pattern into package directories.
func (l *Loader) expand(pat string) ([]string, error) {
	recursive := false
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		recursive = true
		pat = rest
		if pat == "." || pat == "" {
			pat = l.Root
		}
	}
	if pat == "./..." || pat == "..." {
		recursive = true
		pat = l.Root
	}
	dir := pat
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(l.Root, dir)
	}
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: pattern %q: %w", pat, err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("analysis: pattern %q is not a directory", pat)
	}
	if !recursive {
		return []string{dir}, nil
	}
	var dirs []string
	err = filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		// The go tool's wildcard rules: testdata, vendor, and directories
		// starting with "." or "_" never match "...". An explicit
		// non-wildcard pattern can still name them (the fixture tests do).
		if p != dir && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		// A nested module (bench/) is its own world: "..." does not cross
		// into it, exactly as with the go tool.
		if p != dir {
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if l.hasGoFiles(p) {
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dirs, nil
}

func (l *Loader) hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	for name := range l.Overlay {
		if filepath.Dir(name) == dir {
			return true
		}
	}
	return false
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.Root)
	}
	if rel == "." {
		return l.ModPath, nil
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

func (l *Loader) dirFor(path string) string {
	if path == l.ModPath {
		return l.Root
	}
	return filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, l.ModPath+"/")))
}

// inModule reports whether an import path belongs to this module.
func (l *Loader) inModule(path string) bool {
	return path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/")
}

// loadPackage parses and type-checks one in-module package, caching the
// result. Parse and type errors are accumulated on the package, not
// returned: a broken package must be *reported*, not crash the driver.
func (l *Loader) loadPackage(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	files, generated, errs := l.parseDir(dir)
	if len(files) == 0 && len(errs) == 0 {
		// No buildable Go files (e.g. all excluded by build constraints):
		// not an error for wildcard loads, just nothing to analyze.
		return nil, nil
	}
	pkg := &Package{
		Path:      path,
		Dir:       dir,
		Root:      l.Root,
		Fset:      l.fset,
		Files:     files,
		Generated: generated,
		Errors:    errs,
	}
	if len(files) > 0 {
		pkg.Name = files[0].Name.Name
	}
	l.pkgs[path] = pkg

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error: func(err error) {
			pkg.Errors = append(pkg.Errors, err)
		},
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	pkg.Types = tpkg
	pkg.Info = info
	return pkg, nil
}

// parseDir selects buildable files via go/build, merges overlay files,
// and parses everything with comments (the suppression and generated-file
// machinery needs them).
func (l *Loader) parseDir(dir string) (files []*ast.File, generated map[string]bool, errs []error) {
	generated = map[string]bool{}
	var names []string
	bp, err := l.ctx.ImportDir(dir, 0)
	if err == nil {
		names = append(names, bp.GoFiles...)
		if l.TestFiles {
			names = append(names, bp.TestGoFiles...)
		}
	} else if _, ok := err.(*build.NoGoError); !ok {
		errs = append(errs, err)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[filepath.Join(dir, n)] = true
	}
	var paths []string
	for _, n := range names {
		paths = append(paths, filepath.Join(dir, n))
	}
	for name := range l.Overlay {
		if filepath.Dir(name) == dir && strings.HasSuffix(name, ".go") && !have[name] {
			paths = append(paths, name)
		}
	}
	sort.Strings(paths)
	for _, p := range paths {
		var src any
		if data, ok := l.Overlay[p]; ok {
			src = data
		}
		f, err := parser.ParseFile(l.fset, p, src, parser.ParseComments)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if ast.IsGenerated(f) {
			generated[p] = true
		}
		files = append(files, f)
	}
	return files, generated, errs
}

// loaderImporter adapts the loader to go/types: module-internal imports
// come from the loader's own cache, everything else from the standard
// library importers.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, li.Root, 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.inModule(path) {
		pkg, err := l.loadPackage(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil || pkg.Types == nil {
			return nil, fmt.Errorf("analysis: could not load %s", path)
		}
		if len(pkg.Errors) > 0 {
			return nil, fmt.Errorf("analysis: dependency %s has errors: %v", path, pkg.Errors[0])
		}
		return pkg.Types, nil
	}
	if l.std != nil {
		if p, err := l.std.ImportFrom(path, dir, 0); err == nil {
			return p, nil
		}
	}
	// Fallback: no export data (stripped toolchain cache); type-check the
	// standard library package from source. Slow but dependency-free.
	if l.stdSrc == nil {
		l.stdSrc = importer.ForCompiler(l.fset, "source", nil)
	}
	return l.stdSrc.Import(path)
}
