package analysis

import (
	"go/ast"
	"go/types"
)

// errCheckTargets are the function/method names whose error results carry
// domain meaning and must never be dropped: a past-time ScheduleAt or
// ScheduleCallAt means the caller's clock arithmetic is wrong (the event
// silently never fires), and an unchecked Parse admits malformed scenarios
// or topologies.
var errCheckTargets = map[string]bool{
	"ScheduleAt":         true,
	"ScheduleCallAt":     true,
	"ScheduleTailCallAt": true,
	"Parse":              true,
}

// ErrCheckLite reports ignored errors from the target call sites: a call
// used as a bare statement, or an assignment that sends the error result
// to the blank identifier.
type ErrCheckLite struct{}

// Name implements Rule.
func (*ErrCheckLite) Name() string { return "errcheck-lite" }

// Doc implements Rule.
func (*ErrCheckLite) Doc() string {
	return "no ignored errors from ScheduleAt/ScheduleCallAt/Parse call sites"
}

// Check implements Rule.
func (ec *ErrCheckLite) Check(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if name, idx := ec.targetWithError(pass, call); idx >= 0 {
						pass.Report(call.Pos(),
							"error from "+name+" discarded",
							"a failed "+name+" means the event never fires or the input never loads; check it")
					}
				}
			case *ast.AssignStmt:
				ec.checkAssign(pass, n)
			case *ast.GoStmt:
				if name, idx := ec.targetWithError(pass, n.Call); idx >= 0 {
					pass.Report(n.Call.Pos(), "error from "+name+" discarded by go statement",
						"call it synchronously and check the error before spawning")
				}
			case *ast.DeferStmt:
				if name, idx := ec.targetWithError(pass, n.Call); idx >= 0 {
					pass.Report(n.Call.Pos(), "error from "+name+" discarded by defer",
						"wrap it in a closure that checks the error")
				}
			}
			return true
		})
	}
}

// checkAssign flags `h, _ := k.ScheduleAt(...)` style blanking of the
// error result.
func (ec *ErrCheckLite) checkAssign(pass *Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name, errIdx := ec.targetWithError(pass, call)
	if errIdx < 0 || errIdx >= len(as.Lhs) {
		return
	}
	if id, ok := as.Lhs[errIdx].(*ast.Ident); ok && id.Name == "_" {
		pass.Report(id.Pos(),
			"error from "+name+" assigned to _",
			"name it and handle it; a past-time schedule or parse failure must not pass silently")
	}
}

// targetWithError matches a call to one of the target names whose result
// list ends in error, returning the callee name and the error's result
// index (-1 when not a target).
func (ec *ErrCheckLite) targetWithError(pass *Pass, call *ast.CallExpr) (string, int) {
	name := calleeName(call)
	if !errCheckTargets[name] {
		return "", -1
	}
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return "", -1
	}
	res := sig.Results()
	if res.Len() == 0 {
		return "", -1
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	if !ok || named.Obj().Pkg() != nil || named.Obj().Name() != "error" {
		return "", -1
	}
	return name, res.Len() - 1
}
