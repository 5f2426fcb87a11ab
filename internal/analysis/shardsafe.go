package analysis

// ShardSafe checks the two conventions of the sharded engine's
// correctness argument that no runtime test observes exactly. The shard
// package's golden-trace tests catch violations *statistically* — when a
// run happens to cross the broken path; this rule catches them
// structurally:
//
//  1. Payload immutability. A *flooding.Update is shared by pointer with
//     every shard that imports it over a wire; any write through an
//     Update-typed expression (field or element) inside the shard package
//     mutates a payload another shard may already hold. Updates are
//     immutable once published — build a fresh one instead. (The race
//     detector sees such a write only when reader and writer sit in the
//     same window on different shards.)
//
//  2. The delay floor. Cross-window events must sit at least one tick in
//     the future or the conservative-sync lookahead contract breaks.
//     sim.FromSeconds rounds, so a FromSeconds-derived delay can be zero
//     ticks — which the kernel accepts; scheduling with such a term is
//     flagged unless the value passed through the floor-guard idiom
//
//	if d < 1 { d = 1 }
//
//     ScheduleTailCallAt is exempt (tail events deliberately run at the
//     current instant, after every normal event).
//
// Custody-ledger discipline and the control sequence space are not checked
// here: Sim.Audit's ledger identity at every barrier and the committed
// adaptive golden trace (which pins every control sequence number) observe
// them exactly at run time.
//
// What the rule deliberately does not prove: delays carried through struct
// fields (llink.propLat is validated at build time by CutLookahead), and
// mutations behind interface or cross-package calls — the golden-trace
// tests own those. Scope is any package whose import path ends in
// internal/shard, or any package carrying a
//
//	// lint:shardsafe
//
// file directive (fixtures). Suppress a deliberate exception with
// "// lint:ignore shardsafe <reason>".

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ShardSafe enforces the sharded engine's structural invariants; see the
// package comment above.
type ShardSafe struct{}

// Name implements Rule.
func (*ShardSafe) Name() string { return "shardsafe" }

// Doc implements Rule.
func (*ShardSafe) Doc() string {
	return "shard-engine invariants: immutable exported payloads, 1-tick delay floor"
}

func (*ShardSafe) applies(pkg *Package) bool {
	return strings.HasSuffix(pkg.Path, "internal/shard") || pkg.hasDirective("lint:shardsafe")
}

// Check implements Rule.
func (s *ShardSafe) Check(pass *Pass) {
	if !s.applies(pass.Pkg) {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			s.checkUpdateMutation(pass, fd)
			s.checkDelayFloor(pass, fd)
		}
	}
}

// --- 1: payload immutability ---------------------------------------------

// checkUpdateMutation flags any write whose destination reaches through a
// flooding.Update-typed expression.
func (s *ShardSafe) checkUpdateMutation(pass *Pass, fd *ast.FuncDecl) {
	flag := func(lhs ast.Expr) {
		if base := updateMutationBase(pass, lhs); base != nil {
			pass.Report(lhs.Pos(),
				"write to shared flooding.Update payload "+exprString(lhs)+
					" — updates are immutable once published across the shard barrier",
				"importing shards hold the same pointer; build a fresh Update instead of mutating")
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				flag(lhs)
			}
		case *ast.IncDecStmt:
			flag(n.X)
		}
		return true
	})
}

// updateMutationBase returns the Update-typed expression a write
// destination reaches through, or nil. Assigning an Update *pointer*
// (w.upd = p.Update) is not a mutation; writing a field or element of the
// pointed-to struct is.
func updateMutationBase(pass *Pass, lhs ast.Expr) ast.Expr {
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.StarExpr:
			if isFloodingUpdate(pass.TypeOf(e.X)) {
				return e.X
			}
			lhs = e.X
		case *ast.SelectorExpr:
			if isFloodingUpdate(pass.TypeOf(e.X)) {
				return e.X
			}
			lhs = e.X
		case *ast.IndexExpr:
			if isFloodingUpdate(pass.TypeOf(e.X)) {
				return e.X
			}
			lhs = e.X
		default:
			return nil
		}
	}
}

// isFloodingUpdate matches flooding.Update and *flooding.Update (by name
// and package suffix, so fixture twins of the flooding package count too).
func isFloodingUpdate(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	return named.Obj().Name() == "Update" &&
		(path == "flooding" || strings.HasSuffix(path, "/flooding"))
}

// --- 2: delay floor -------------------------------------------------------

// scheduleTimeArg returns the timestamp argument of an absolute-time
// scheduling call, or nil. ScheduleTailCallAt is exempt by design.
func scheduleTimeArg(call *ast.CallExpr) ast.Expr {
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	case *ast.Ident:
		name = fun.Name
	default:
		return nil
	}
	switch name {
	case "ScheduleAt", "ScheduleCallAt":
		if len(call.Args) > 0 {
			return call.Args[0]
		}
	case "mustCallAt":
		if len(call.Args) > 1 {
			return call.Args[1]
		}
	}
	return nil
}

// checkDelayFloor flags schedule timestamps containing a FromSeconds term
// that never passed the floor-guard idiom.
func (s *ShardSafe) checkDelayFloor(pass *Pass, fd *ast.FuncDecl) {
	fromSec := map[types.Object]bool{} // locals assigned from FromSeconds
	floored := map[types.Object]bool{} // locals that passed a floor guard
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.ObjectOf(id)
				if obj == nil {
					continue
				}
				if containsFromSeconds(pass, n.Rhs[i]) != nil {
					fromSec[obj] = true
				}
			}
		case *ast.IfStmt:
			// Floor guard: "if d < X { d = ... }" clamps d.
			cond, ok := n.Cond.(*ast.BinaryExpr)
			if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) {
				return true
			}
			id, ok := ast.Unparen(cond.X).(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.ObjectOf(id)
			if obj == nil {
				return true
			}
			for _, st := range n.Body.List {
				if as, ok := st.(*ast.AssignStmt); ok {
					for _, lhs := range as.Lhs {
						if lid, ok := ast.Unparen(lhs).(*ast.Ident); ok && pass.ObjectOf(lid) == obj {
							floored[obj] = true
						}
					}
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		at := scheduleTimeArg(call)
		if at == nil {
			return true
		}
		var bad ast.Expr
		ast.Inspect(at, func(m ast.Node) bool {
			if bad != nil {
				return false
			}
			switch m := m.(type) {
			case *ast.CallExpr:
				if fs := containsFromSeconds(pass, m); fs != nil && fs == m {
					bad = m
					return false
				}
			case *ast.Ident:
				if obj := pass.ObjectOf(m); obj != nil && fromSec[obj] && !floored[obj] {
					bad = m
				}
			}
			return true
		})
		if bad != nil {
			pass.Report(bad.Pos(),
				"schedule timestamp uses a FromSeconds-derived delay without the 1-tick floor",
				"FromSeconds truncates to zero ticks for small values; clamp with \"if d < 1 { d = 1 }\" before scheduling, or the lookahead contract breaks")
		}
		return true
	})
}

// containsFromSeconds returns the first FromSeconds call inside e, or nil.
func containsFromSeconds(pass *Pass, e ast.Expr) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			if fun.Sel.Name == "FromSeconds" {
				found = call
			}
		case *ast.Ident:
			if fun.Name == "FromSeconds" {
				found = call
			}
		}
		return found == nil
	})
	return found
}
