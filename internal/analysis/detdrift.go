package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterministicPackages lists the import-path suffixes of packages whose
// behaviour must be a pure function of their inputs and seeds: the event
// kernel, both routers, the fluid background router, the flooding and
// updating protocols, the network model, the scenario engine, and the
// randomized-but-seeded correctness harness. Golden traces, RunBatch
// worker-count independence and the differential oracles all assume it.
// A package outside this list can opt in with a "// lint:deterministic"
// comment in any of its files.
var DeterministicPackages = []string{
	"internal/sim",
	"internal/spf",
	"internal/updating",
	"internal/flooding",
	"internal/flowmodel",
	"internal/network",
	"internal/scenario",
	"internal/check",
	"internal/shard",
}

// DetDrift reports sources of nondeterminism inside deterministic
// packages: wall-clock reads, the global math/rand stream, and map
// iteration whose order can leak into ordered output or event scheduling.
// Test files are exempt (the loader does not even load them).
//
// The rule is flow-aware, built on the Program effect summaries:
//
//   - a call whose callee (transitively) reads the wall clock or the
//     global rand stream is flagged at the call site when the callee lives
//     outside the deterministic set — taint crosses package boundaries
//     instead of stopping at the first helper;
//   - a function that returns a slice collected from a map range without
//     sorting is not flagged at the range (the collect-keys half of the
//     idiom is fine) — its *callers* are flagged unless they sort the
//     result before use, and returning it onward just defers again;
//   - struct fields assigned wall-clock- or rand-derived values anywhere
//     in the module are tainted, and reads of them inside deterministic
//     packages are flagged.
//
// Feeding a map-iteration variable into any non-builtin call is a finding:
// the callee may schedule, queue or mutate ordered state, and the one real
// bug this suite has caught (the map-order SetLineUp repair loop in
// internal/check/floodcheck.go, fixed in PR 5) was exactly that shape. Do
// not exonerate callees by summarizing which parameters reach a *known*
// sink — SetLineUp's reaches none, and that silenced the catch; an
// order-insensitive callee takes a reasoned suppression instead.
//
// Laundering is recognized syntactically: a sort/slices call over the
// collected slice after the loop (or after the producing call) clears the
// taint. Dynamic dispatch still propagates nothing — the golden traces own
// that residue.
type DetDrift struct {
	prog *Program
}

// Name implements Rule.
func (*DetDrift) Name() string { return "detdrift" }

// Prepare implements ProgramRule.
func (d *DetDrift) Prepare(prog *Program) { d.prog = prog }

// Doc implements Rule.
func (*DetDrift) Doc() string {
	return "no wall clock, global math/rand, or order-leaking map iteration in deterministic packages"
}

// wallClockFuncs are the package time functions that read or depend on
// the machine clock. Duration constants and arithmetic are fine.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// randConstructors are the math/rand package-level names that only build
// seeded generators and are therefore deterministic to use.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// Check implements Rule.
func (d *DetDrift) Check(pass *Pass) {
	if !d.applies(pass.Pkg) {
		return
	}
	for _, f := range pass.Pkg.Files {
		f := f
		writes := writeTargets(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				d.checkSelector(pass, n)
				d.checkFieldRead(pass, n, writes)
			case *ast.RangeStmt:
				d.checkMapRange(pass, n, f)
			case *ast.CallExpr:
				d.checkCallTaint(pass, n)
			}
			return true
		})
		d.checkMapOrderCalls(pass, f)
	}
}

// checkCallTaint flags calls to functions whose effect summary reaches the
// wall clock or the global rand stream. Callees inside the deterministic
// set are skipped: their own body already carries the finding, and taint
// through them is the caller's callee's problem, reported exactly once at
// the source.
func (d *DetDrift) checkCallTaint(pass *Pass, call *ast.CallExpr) {
	callee := staticCallee(pass.Pkg.Info, call)
	cs := d.prog.SummaryOf(callee)
	if cs == nil || (!cs.WallClock && !cs.GlobalRand) {
		return
	}
	if cp := d.prog.Package(callee.Pkg().Path()); cp != nil && d.applies(cp) {
		return
	}
	if cs.WallClock {
		pass.Report(call.Pos(),
			"call to "+callee.Name()+" reaches the wall clock ("+cs.WallWitness+")",
			"nondeterminism flows through calls; derive times from sim.Kernel.Now and pass them in as data")
	}
	if cs.GlobalRand {
		pass.Report(call.Pos(),
			"call to "+callee.Name()+" draws from the global math/rand stream ("+cs.RandWitness+")",
			"nondeterminism flows through calls; use a seeded *rand.Rand owned by the caller")
	}
}

// checkMapOrderCalls flags uses of results of map-ordered functions
// (Summary.RetMapOrder) that are not laundered by a sort. Three contexts
// defer or discharge the obligation: a discarded result (no order to
// observe), a result returned onward (the caller inherits the summary),
// and a result assigned to a variable that is sorted later in the file.
func (d *DetDrift) checkMapOrderCalls(pass *Pass, f *ast.File) {
	mapOrdered := func(call *ast.CallExpr) *types.Func {
		callee := staticCallee(pass.Pkg.Info, call)
		if cs := d.prog.SummaryOf(callee); cs != nil && cs.RetMapOrder {
			return callee
		}
		return nil
	}
	handled := map[*ast.CallExpr]bool{}
	var found []*ast.CallExpr
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || mapOrdered(call) == nil || i >= len(n.Lhs) {
					continue
				}
				handled[call] = true
				id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if ok && sortedAfter(pass, f, id, n.End()) {
					continue // laundered
				}
				pass.Report(call.Pos(),
					"result of "+calleeName(call)+" is in map-iteration order and is never sorted",
					"sort the returned slice before it feeds anything ordered, or sort inside the producer")
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if call, ok := ast.Unparen(res).(*ast.CallExpr); ok {
					handled[call] = true // the caller inherits RetMapOrder
				}
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				handled[call] = true // discarded result: no order observed
			}
		case *ast.CallExpr:
			if mapOrdered(n) != nil {
				found = append(found, n)
			}
		}
		return true
	})
	for _, call := range found {
		if !handled[call] {
			pass.Report(call.Pos(),
				"result of "+calleeName(call)+" is in map-iteration order and feeds its context unsorted",
				"assign it, sort it, then use it; map order is randomized per run")
		}
	}
}

// checkFieldRead flags reads of struct fields the module assigns
// wall-clock- or rand-derived values to. writes is the set of expressions
// that are assignment destinations in this file: a pure write to a tainted
// field is not a read of nondeterminism (the taint is reported where the
// value is produced).
func (d *DetDrift) checkFieldRead(pass *Pass, sel *ast.SelectorExpr, writes map[ast.Expr]bool) {
	if writes[sel] {
		return
	}
	selection, ok := pass.Pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	fieldObj, ok := selection.Obj().(*types.Var)
	if !ok {
		return
	}
	w := d.prog.FieldTaint(fieldKey(selection.Recv(), fieldObj))
	if w == "" {
		return
	}
	pass.Report(sel.Pos(),
		"read of field "+exprString(sel)+" which is assigned a nondeterministic value ("+w+")",
		"the field carries wall-clock or global-rand data into a deterministic package; plumb the value as an explicit input instead")
}

// writeTargets collects the expressions that are assignment destinations
// anywhere in the file.
func writeTargets(f *ast.File) map[ast.Expr]bool {
	out := map[ast.Expr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					out[ast.Unparen(lhs)] = true
				}
			}
		case *ast.IncDecStmt:
			out[ast.Unparen(n.X)] = true
		}
		return true
	})
	return out
}

func (d *DetDrift) applies(pkg *Package) bool {
	for _, suffix := range DeterministicPackages {
		if strings.HasSuffix(pkg.Path, suffix) {
			return true
		}
	}
	return pkg.hasDirective("lint:deterministic")
}

// checkSelector flags time.<wallclock> and global math/rand references.
func (d *DetDrift) checkSelector(pass *Pass, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := pass.Pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	switch pn.Imported().Path() {
	case "time":
		if wallClockFuncs[sel.Sel.Name] {
			pass.Report(sel.Pos(),
				"wall-clock time."+sel.Sel.Name+" in deterministic package",
				"derive all times from sim.Kernel.Now or pass them in as data")
		}
	case "math/rand", "math/rand/v2":
		if randConstructors[sel.Sel.Name] {
			return
		}
		if obj := pass.Pkg.Info.Uses[sel.Sel]; obj != nil {
			if _, isType := obj.(*types.TypeName); isType {
				return // rand.Rand, rand.Source etc. in declarations
			}
		}
		pass.Report(sel.Pos(),
			"global math/rand."+sel.Sel.Name+" draws from the shared process-wide stream",
			"use a seeded *rand.Rand (e.g. a sim.Source stream) owned by the caller")
	}
}

// orderedSinkNames are callee names that make iteration order observable:
// the event queue (FIFO tie-break by schedule order), FIFO queues, and
// formatted output.
var orderedSinkNames = map[string]bool{
	"Schedule": true, "ScheduleAt": true, "ScheduleCall": true,
	"ScheduleCallAt": true, "ScheduleTailCallAt": true, "Every": true,
	"Push": true, "Enqueue": true, "PushBack": true, "PushFront": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// checkMapRange flags `for ... := range m` over a map when the body feeds
// an ordered sink: appends to a slice declared outside the loop, schedules
// events, pushes queues, sends on channels, writes formatted output, or
// accumulates floating point declared outside the loop (float addition is
// not associative, so even a "commutative" sum drifts with map order).
// A loop that only fills another map, counts integers, or takes a min/max
// is order-insensitive and passes.
func (d *DetDrift) checkMapRange(pass *Pass, rng *ast.RangeStmt, f *ast.File) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	sink := d.findOrderedSink(pass, rng)
	if sink == "" {
		return
	}
	// The canonical fix — collect the keys, sort, iterate the slice — must
	// not itself be a finding: an append whose target is sorted later in
	// the same function is order-insensitive by construction. A collected
	// slice that is *returned* unsorted defers the obligation to the call
	// sites instead (Summary.RetMapOrder): the producer is legal, callers
	// must sort before use.
	if id := d.appendOnlySink(pass, rng); id != nil {
		if sortedAfter(pass, f, id, rng.End()) {
			return
		}
		if fd := enclosingFuncDecl(f, rng.Pos()); fd != nil && returnedBy(pass.Pkg, fd, id) {
			return
		}
	}
	pass.Report(rng.Pos(),
		"iteration over map "+exprString(rng.X)+" feeds "+sink+"; map order is randomized per run",
		"collect and sort the keys first, or suppress with a reason if the sink is provably order-insensitive")
}

func (d *DetDrift) findOrderedSink(pass *Pass, rng *ast.RangeStmt) string {
	var sink string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink = "a channel send"
		case *ast.CallExpr:
			name := calleeName(n)
			switch {
			case name == "append":
				if id := appendTarget(n); id != nil && declaredOutside(pass, id, rng) {
					sink = "append to " + id.Name + " declared outside the loop"
				}
			case orderedSinkNames[name]:
				sink = "a call to " + name
			case d.callPassesRangeVar(pass, n, rng):
				// Feeding the iteration variable into any non-builtin call
				// hands map order to code that may schedule, queue, or
				// accumulate. Order-insensitive callees (idempotent
				// per-element mutation) are suppressed with a reason.
				sink = "a call to " + name + " with the iteration variable"
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN || n.Tok == token.MUL_ASSIGN {
				if id, ok := n.Lhs[0].(*ast.Ident); ok && isFloat(pass.TypeOf(id)) && declaredOutside(pass, id, rng) {
					sink = "a floating-point accumulation into " + id.Name
				}
			}
		}
		return true
	})
	return sink
}

// appendOnlySink returns the single append target when the loop body's
// only ordered effect is appending to it (the collect-keys pattern).
func (d *DetDrift) appendOnlySink(pass *Pass, rng *ast.RangeStmt) *ast.Ident {
	var target *ast.Ident
	only := true
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			only = false
		case *ast.CallExpr:
			name := calleeName(n)
			if name == "append" {
				id := appendTarget(n)
				if id == nil || (target != nil && pass.ObjectOf(id) != pass.ObjectOf(target)) {
					only = false
				} else {
					target = id
				}
				return true
			}
			if orderedSinkNames[name] || d.callPassesRangeVar(pass, n, rng) {
				only = false
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN || n.Tok == token.MUL_ASSIGN {
				if id, ok := n.Lhs[0].(*ast.Ident); ok && isFloat(pass.TypeOf(id)) && declaredOutside(pass, id, rng) {
					only = false
				}
			}
		}
		return only
	})
	if !only {
		return nil
	}
	return target
}

// sortedAfter reports whether the slice variable is passed to a
// sort/slices sorting function after pos. Object identity ties the match
// to the same function-scoped variable.
func sortedAfter(pass *Pass, f *ast.File, slice *ast.Ident, pos token.Pos) bool {
	obj := pass.ObjectOf(slice)
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.Pkg.Info.Uses[pkgID].(*types.PkgName)
		if !ok {
			return true
		}
		if p := pn.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		if !strings.Contains(strings.ToLower(sel.Sel.Name), "sort") &&
			!strings.HasPrefix(sel.Sel.Name, "Slice") &&
			sel.Sel.Name != "Strings" && sel.Sel.Name != "Ints" && sel.Sel.Name != "Float64s" {
			return true
		}
		ast.Inspect(call.Args[0], func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
				found = true
			}
			return !found
		})
		return true
	})
	return found
}

// callPassesRangeVar reports whether the call's arguments mention one of
// the range statement's iteration variables and the callee is a real
// function or method (builtins like delete and len are order-safe).
func (d *DetDrift) callPassesRangeVar(pass *Pass, call *ast.CallExpr, rng *ast.RangeStmt) bool {
	vars := map[*types.Var]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if v, ok := pass.ObjectOf(id).(*types.Var); ok {
				vars[v] = true
			}
		}
	}
	if len(vars) == 0 {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		if _, isBuiltin := pass.Pkg.Info.Uses[fn].(*types.Builtin); isBuiltin {
			return false
		}
	case *ast.SelectorExpr:
		// methods and imported functions are never builtins
	default:
		return false
	}
	for _, arg := range call.Args {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := pass.Pkg.Info.Uses[id].(*types.Var); ok && vars[v] {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// enclosingFuncDecl returns the function declaration containing pos.
func enclosingFuncDecl(f *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}

// calleeName extracts the simple name of a call's function.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// appendTarget returns the identifier being appended to, if plain.
func appendTarget(call *ast.CallExpr) *ast.Ident {
	if len(call.Args) == 0 {
		return nil
	}
	id, _ := call.Args[0].(*ast.Ident)
	return id
}

// declaredOutside reports whether id's declaration precedes the range
// statement (so mutations inside the loop survive it).
func declaredOutside(pass *Pass, id *ast.Ident, rng *ast.RangeStmt) bool {
	obj := pass.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// exprString renders a short expression for a message.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	}
	return "expression"
}
