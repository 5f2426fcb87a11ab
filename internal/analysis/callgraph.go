package analysis

// The call-graph and effect-summary layer: the flow-aware substrate under
// the interprocedural half of detdrift. A Program indexes every function
// declaration of every loaded package, resolves the static call edges
// between them, and computes one Summary per function — does it reach the
// wall clock or the global math/rand stream, does it return data in
// map-iteration order — by a bounded fixed point over the in-module call
// graph (packages in dependency order, iterating inside each package until
// the summaries stop changing).
//
// Resolution is deliberately static: a call through an interface method or
// a function value has no edge, so effects do not propagate through dynamic
// dispatch. That is a documented precision floor, not an accident — the
// golden traces own the dynamic residue, and the rule built here stays
// free of false positives from targets it cannot see.
//
// Summaries honor suppressions at the effect's source: a time.Now behind a
// reasoned "lint:ignore detdrift" does not taint callers. A suppression
// consulted this way counts as used, which is what lets the
// stale-suppression check distinguish a directive that still covers
// something from one that rotted.

import (
	"go/ast"
	"go/types"
	"sort"
	"strconv"
)

// Summary is one function's computed effect set. The fields are the facts
// the rules consume; Witness strings carry a human-readable provenance
// ("time.Now at internal/x/y.go:12" or "via helper") for messages.
type Summary struct {
	WallClock   bool
	WallWitness string

	GlobalRand  bool
	RandWitness string

	// RetMapOrder marks a function whose return value is a slice collected
	// from a map range without sorting — legal in itself, but callers must
	// launder it through a sort before it feeds anything ordered.
	RetMapOrder bool
}

func (s *Summary) equal(o *Summary) bool {
	return s.WallClock == o.WallClock && s.GlobalRand == o.GlobalRand && s.RetMapOrder == o.RetMapOrder
}

// FuncInfo is one declared function or method with a body.
type FuncInfo struct {
	Decl *ast.FuncDecl
	Pkg  *Package

	Sum Summary
}

// Program is the module-wide view rules Prepare against.
type Program struct {
	pkgs   []*Package // error-free packages, dependency order
	byPath map[string]*Package
	funcs  map[*types.Func]*FuncInfo

	// fields maps "pkgpath.Type.Field" to a witness for struct fields that
	// are assigned wall-clock- or rand-derived values anywhere in the
	// module; detdrift flags reads of them inside deterministic packages.
	fields map[string]string
}

// ProgramRule is the optional interface for rules that need the
// module-wide view; Prepare runs once before the per-package Check calls.
type ProgramRule interface {
	Rule
	Prepare(prog *Program)
}

// SummaryOf returns fn's effect summary, or nil when the program has none
// (unresolved, external, or body-less).
func (prog *Program) SummaryOf(fn *types.Func) *Summary {
	if prog == nil || fn == nil {
		return nil
	}
	if fi := prog.funcs[fn]; fi != nil {
		return &fi.Sum
	}
	return nil
}

// FieldTaint returns the nondeterminism witness for a struct field, or "".
func (prog *Program) FieldTaint(key string) string {
	if prog == nil {
		return ""
	}
	return prog.fields[key]
}

// Package returns the loaded package with the given import path, or nil.
func (prog *Program) Package(path string) *Package {
	if prog == nil {
		return nil
	}
	return prog.byPath[path]
}

// NewProgram builds the call graph and effect summaries over the given
// packages. Packages with load errors contribute nothing (their syntax may
// be half-typed) but do not abort the build — the layer must tolerate a
// broken tree exactly as the per-package rules do.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		byPath: map[string]*Package{},
		funcs:  map[*types.Func]*FuncInfo{},
		fields: map[string]string{},
	}
	for _, p := range pkgs {
		if p == nil || len(p.Errors) > 0 || p.Info == nil || p.Types == nil {
			continue
		}
		if _, dup := prog.byPath[p.Path]; dup {
			continue
		}
		prog.byPath[p.Path] = p
		prog.pkgs = append(prog.pkgs, p)
	}
	prog.sortDeps()
	for _, p := range prog.pkgs {
		prog.indexPackage(p)
	}
	for _, p := range prog.pkgs {
		prog.summarizePackage(p)
	}
	return prog
}

// sortDeps orders packages dependencies-first so each package's fixed
// point sees final summaries for everything it imports. Import cycles
// cannot occur (the loader rejects them).
func (prog *Program) sortDeps() {
	order := make([]*Package, 0, len(prog.pkgs))
	state := map[string]int{} // 1 = visiting, 2 = done
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p.Path] != 0 {
			return
		}
		state[p.Path] = 1
		if p.Types != nil {
			for _, imp := range p.Types.Imports() {
				if dep := prog.byPath[imp.Path()]; dep != nil {
					visit(dep)
				}
			}
		}
		state[p.Path] = 2
		order = append(order, p)
	}
	sort.Slice(prog.pkgs, func(i, j int) bool { return prog.pkgs[i].Path < prog.pkgs[j].Path })
	for _, p := range prog.pkgs {
		visit(p)
	}
	prog.pkgs = order
}

// indexPackage registers every function declaration with a body; call
// edges are resolved on demand by staticCallee.
func (prog *Program) indexPackage(p *Package) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			prog.funcs[obj] = &FuncInfo{Decl: fd, Pkg: p}
		}
	}
}

// staticCallee resolves a call expression to the *types.Func it invokes
// when that is statically known: a plain function, a method on a concrete
// receiver, or a package-qualified name. Interface methods and function
// values return nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if _, iface := sel.Recv().Underlying().(*types.Interface); iface {
				return nil // dynamic dispatch: no static edge
			}
			return f
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f // pkg.Func
		}
	}
	return nil
}

// summarizePackage iterates the package's functions to a fixed point. The
// iteration is bounded: every summary bit is monotone (false -> true), so
// the loop terminates; the cap is a backstop against a helper bug, not a
// precision knob.
func (prog *Program) summarizePackage(p *Package) {
	var fis []*FuncInfo
	for _, fi := range prog.funcs {
		if fi.Pkg == p {
			fis = append(fis, fi)
		}
	}
	sort.Slice(fis, func(i, j int) bool { return fis[i].Decl.Pos() < fis[j].Decl.Pos() })
	for iter := 0; iter < 16; iter++ {
		changed := false
		for _, fi := range fis {
			next := computeSummary(prog, fi)
			if !next.equal(&fi.Sum) {
				fi.Sum = next
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	prog.collectFieldTaints(p)
}

// nondetWitness returns a witness string when the expression is a direct
// wall-clock or global-rand reference ("time.Now" / "math/rand.Intn"),
// reusing detdrift's source-of-truth tables. kind is "wall" or "rand".
func nondetWitness(p *Package, sel *ast.SelectorExpr) (kind, name string) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	switch pn.Imported().Path() {
	case "time":
		if wallClockFuncs[sel.Sel.Name] {
			return "wall", "time." + sel.Sel.Name
		}
	case "math/rand", "math/rand/v2":
		if randConstructors[sel.Sel.Name] {
			return "", ""
		}
		if obj := p.Info.Uses[sel.Sel]; obj != nil {
			if _, isType := obj.(*types.TypeName); isType {
				return "", ""
			}
		}
		return "rand", "math/rand." + sel.Sel.Name
	}
	return "", ""
}

// computeSummary derives one function's summary from its body and the
// current summaries of its callees.
func computeSummary(prog *Program, fi *FuncInfo) Summary {
	p := fi.Pkg
	var sum Summary
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			kind, name := nondetWitness(p, n)
			if kind == "" {
				return true
			}
			site := p.Fset.Position(n.Pos())
			if p.suppressed("detdrift", site.Filename, site.Line) {
				return true // reasoned at the source; do not taint callers
			}
			w := name + " at " + p.relPath(site.Filename) + ":" + strconv.Itoa(site.Line)
			if kind == "wall" && !sum.WallClock {
				sum.WallClock, sum.WallWitness = true, w
			}
			if kind == "rand" && !sum.GlobalRand {
				sum.GlobalRand, sum.RandWitness = true, w
			}
		case *ast.CallExpr:
			callee := staticCallee(p.Info, n)
			cs := prog.SummaryOf(callee)
			if cs != nil {
				site := p.Fset.Position(n.Pos())
				suppressedHere := p.suppressed("detdrift", site.Filename, site.Line)
				if cs.WallClock && !sum.WallClock && !suppressedHere {
					sum.WallClock, sum.WallWitness = true, "via "+callee.Name()+" ("+cs.WallWitness+")"
				}
				if cs.GlobalRand && !sum.GlobalRand && !suppressedHere {
					sum.GlobalRand, sum.RandWitness = true, "via "+callee.Name()+" ("+cs.RandWitness+")"
				}
			}
		}
		return true
	})

	sum.RetMapOrder = returnsMapOrdered(prog, p, fi.Decl)
	return sum
}

// returnsMapOrdered reports whether the function returns a slice collected
// from a map range without sorting it first — directly, or by returning
// the result of another map-ordered function.
func returnsMapOrdered(prog *Program, p *Package, decl *ast.FuncDecl) bool {
	pass := &Pass{Fset: p.Fset, Pkg: p}
	var d DetDrift
	found := false
	var file *ast.File
	for _, f := range p.Files {
		if f.Pos() <= decl.Pos() && decl.End() <= f.End() {
			file = f
			break
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.RangeStmt:
			t := p.Info.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, ok := t.Underlying().(*types.Map); !ok {
				return true
			}
			id := d.appendOnlySink(pass, n)
			if id == nil {
				return true
			}
			if file != nil && sortedAfter(pass, file, id, n.End()) {
				return true
			}
			if returnedBy(p, decl, id) {
				found = true
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if call, ok := ast.Unparen(res).(*ast.CallExpr); ok {
					if cs := prog.SummaryOf(staticCallee(p.Info, call)); cs != nil && cs.RetMapOrder {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// returnedBy reports whether the variable named by id is returned by the
// function (appears in a return statement's results, or is a named result).
func returnedBy(p *Package, decl *ast.FuncDecl, id *ast.Ident) bool {
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	if obj == nil {
		return false
	}
	if decl.Type.Results != nil {
		for _, field := range decl.Type.Results.List {
			for _, name := range field.Names {
				if p.Info.Defs[name] == obj {
					return true
				}
			}
		}
	}
	ret := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		r, ok := n.(*ast.ReturnStmt)
		if !ok {
			return !ret
		}
		for _, res := range r.Results {
			ast.Inspect(res, func(m ast.Node) bool {
				if rid, ok := m.(*ast.Ident); ok && p.Info.Uses[rid] == obj {
					ret = true
				}
				return !ret
			})
		}
		return !ret
	})
	return ret
}

// collectFieldTaints records struct fields assigned a directly
// wall-clock- or rand-derived value anywhere in the package.
func (prog *Program) collectFieldTaints(p *Package) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				selection, ok := p.Info.Selections[sel]
				if !ok || selection.Kind() != types.FieldVal {
					continue
				}
				fieldObj, ok := selection.Obj().(*types.Var)
				if !ok {
					continue
				}
				w := directNondetIn(p, as.Rhs[i])
				if w == "" {
					continue
				}
				key := fieldKey(selection.Recv(), fieldObj)
				if key != "" && prog.fields[key] == "" {
					prog.fields[key] = w
				}
			}
			return true
		})
	}
}

// directNondetIn returns a witness when expr contains a direct wall-clock
// or global-rand reference.
func directNondetIn(p *Package, expr ast.Expr) string {
	var witness string
	ast.Inspect(expr, func(n ast.Node) bool {
		if witness != "" {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if kind, name := nondetWitness(p, sel); kind != "" {
				site := p.Fset.Position(sel.Pos())
				if !p.suppressed("detdrift", site.Filename, site.Line) {
					witness = name + " at " + p.relPath(site.Filename) + ":" + strconv.Itoa(site.Line)
				}
			}
		}
		return witness == ""
	})
	return witness
}

// fieldKey renders the stable "pkgpath.Type.Field" key for a field of a
// named struct type (possibly behind a pointer).
func fieldKey(recv types.Type, field *types.Var) string {
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name() + "." + field.Name()
}
