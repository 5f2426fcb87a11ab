package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// HandleCheck enforces sim.Handle discipline. A Handle is the only way to
// cancel a scheduled event; PR 2's double-transmitter bug was precisely a
// completion event whose handle nobody kept, firing after a link flap.
// The rule reports:
//
//  1. a call returning a sim.Handle (or *sim.Ticker) used as a bare
//     statement — the event can never be cancelled. Fire-and-forget is
//     legitimate but must be explicit: assign to a variable or to `_`.
//     The handle may be one component of a multi-result call — the
//     (Handle, error) shape of ScheduleAt/ScheduleCallAt — not just the
//     sole result.
//  2. h.Pending() reached after an unconditional h.Cancel() in the same
//     statement sequence with no reassignment of h — it is always false.
//
// When a discarded schedule follows a Cancel of some handle in the same
// sequence, the message points out the likely missing re-assignment.
type HandleCheck struct{}

// Name implements Rule.
func (*HandleCheck) Name() string { return "handlecheck" }

// Doc implements Rule.
func (*HandleCheck) Doc() string {
	return "no silently discarded sim.Handle/Ticker and no Pending after Cancel"
}

// Check implements Rule.
func (h *HandleCheck) Check(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			h.walkSeq(pass, fd.Body.List, map[*types.Var]int{})
			return true
		})
	}
}

// isHandleType reports whether t is sim.Handle or sim.Ticker (possibly
// behind a pointer): a named type of that name declared in a package
// named "sim".
func isHandleType(t types.Type) (name string, ok bool) {
	if t == nil {
		return "", false
	}
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Name() != "sim" {
		return "", false
	}
	if n := obj.Name(); n == "Handle" || n == "Ticker" {
		return n, true
	}
	return "", false
}

// handleResult finds a sim.Handle/Ticker anywhere in a call's result
// type: the single-result schedulers (Schedule, Every) type as the handle
// itself, while the error-returning forms (ScheduleAt, ScheduleCallAt)
// type as a tuple with the handle as one component — discarding the
// statement drops the handle either way.
func handleResult(t types.Type) (string, bool) {
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if name, ok := isHandleType(tup.At(i).Type()); ok {
				return name, true
			}
		}
		return "", false
	}
	return isHandleType(t)
}

// walkSeq scans one statement sequence, tracking which handle variables
// have been cancelled (var -> line of the Cancel).
func (h *HandleCheck) walkSeq(pass *Pass, stmts []ast.Stmt, cancelled map[*types.Var]int) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok {
				h.walkNested(pass, s, cancelled)
				continue
			}
			if v := cancelReceiver(pass, call); v != nil {
				cancelled[v] = pass.Fset.Position(call.Pos()).Line
				continue
			}
			if name, ok := handleResult(pass.TypeOf(call)); ok {
				msg := fmt.Sprintf("scheduled event's sim.%s discarded; the event can never be cancelled", name)
				hint := "assign it (and Cancel on teardown) or write `_ = ...` to mark fire-and-forget"
				if v, line := anyCancelled(cancelled); v != nil {
					msg = fmt.Sprintf("%s; %s was Cancelled on line %d — did you mean %s = ...?",
						msg, v.Name(), line, v.Name())
				}
				pass.Report(call.Pos(), msg, hint)
				continue
			}
			h.walkNested(pass, s, cancelled)
		case *ast.AssignStmt:
			// Reassigning a cancelled handle (h = k.Schedule(...)) re-arms it.
			for _, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if v, ok := pass.ObjectOf(id).(*types.Var); ok {
						delete(cancelled, v)
					}
				}
			}
			h.walkNested(pass, s, cancelled)
		case *ast.BlockStmt:
			h.walkSeq(pass, s.List, cancelled)
		default:
			h.walkNested(pass, s, cancelled)
		}
	}
}

// walkNested checks Pending-after-Cancel uses anywhere inside the
// statement, and recurses into nested statement sequences with a copy of
// the cancelled set (a branch may not execute, so its Cancels must not
// leak out; its Pendings still see the sequence's earlier Cancels).
func (h *HandleCheck) walkNested(pass *Pass, s ast.Stmt, cancelled map[*types.Var]int) {
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			inner := make(map[*types.Var]int, len(cancelled))
			for k, v := range cancelled {
				inner[k] = v
			}
			h.walkSeq(pass, n.List, inner)
			return false
		case *ast.CallExpr:
			if v, line := pendingReceiverCancelled(pass, n, cancelled); v != nil {
				pass.Report(n.Pos(),
					fmt.Sprintf("%s.Pending() after %s.Cancel() on line %d is always false", v.Name(), v.Name(), line),
					"drop the check, or re-schedule into the same variable before testing Pending")
			}
		}
		return true
	})
}

// cancelReceiver returns the handle variable when call is h.Cancel() on a
// plain identifier of type sim.Handle.
func cancelReceiver(pass *Pass, call *ast.CallExpr) *types.Var {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Cancel" {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	if _, ok := isHandleType(pass.TypeOf(sel.X)); !ok {
		return nil
	}
	v, _ := pass.ObjectOf(id).(*types.Var)
	return v
}

// pendingReceiverCancelled matches h.Pending() where h is in the
// cancelled set.
func pendingReceiverCancelled(pass *Pass, call *ast.CallExpr, cancelled map[*types.Var]int) (*types.Var, int) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Pending" {
		return nil, 0
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, 0
	}
	if _, ok := isHandleType(pass.TypeOf(sel.X)); !ok {
		return nil, 0
	}
	v, _ := pass.ObjectOf(id).(*types.Var)
	if v == nil {
		return nil, 0
	}
	line, ok := cancelled[v]
	if !ok {
		return nil, 0
	}
	return v, line
}

// anyCancelled returns an arbitrary-but-deterministic entry (the one with
// the smallest line) for message context.
func anyCancelled(cancelled map[*types.Var]int) (*types.Var, int) {
	var best *types.Var
	bestLine := 0
	for v, line := range cancelled {
		if best == nil || line < bestLine || (line == bestLine && v.Name() < best.Name()) {
			best, bestLine = v, line
		}
	}
	return best, bestLine
}
