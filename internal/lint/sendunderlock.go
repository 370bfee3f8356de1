package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SendUnderLock flags blocking communication while holding a mutex: a
// channel send (outside a select with a default case) or a call to a
// transport send method (Send / BroadcastControl on a type
// from a package named transport, or on the Mesh) between Lock and Unlock
// of a sync.Mutex / sync.RWMutex. This is the dispatch/reconnect deadlock
// class: PR 4's per-peer dispatch mutex serializes inbound frames, and a
// handler that blocks sending while holding it deadlocks against a peer
// doing the same in the opposite direction. The transport's own Send is
// deliberately non-blocking (unbounded queue) for exactly this reason —
// the analyzer keeps lock-ordering assumptions like that from being
// silently violated by new code paths.
//
// The analysis is intraprocedural and branch-aware: locks taken inside a
// branch are held only within it; defer mu.Unlock() holds the lock to the
// end of the function; function literals start with an empty lock set
// (they run on other goroutines or after return).
var SendUnderLock = &Analyzer{
	Name: "sendunderlock",
	Doc:  "no blocking channel or transport send while holding a mutex",
	Run:  runSendUnderLock,
}

func runSendUnderLock(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			walkLocked(pass, fd.Body.List, map[string]bool{})
		}
	}
	return nil
}

// lockEvent reports whether call is sync.Mutex/RWMutex Lock/Unlock (or the
// RLock variants) and on which receiver expression.
func lockEvent(pass *Pass, call *ast.CallExpr) (op string, recv string) {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch fun.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	obj, ok := pass.Info.Uses[fun.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", ""
	}
	op = "lock"
	if strings.Contains(fun.Sel.Name, "Unlock") {
		op = "unlock"
	}
	return op, types.ExprString(fun.X)
}

// isTransportSend reports whether call is a send on the wire: a method
// named Send / BroadcastControl whose receiver type is declared
// in a package named transport, or is the dataflow Mesh (whose sends fan
// out to the transport).
func isTransportSend(pass *Pass, call *ast.CallExpr) bool {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch fun.Sel.Name {
	case "Send", "BroadcastControl":
	default:
		return false
	}
	obj, ok := pass.Info.Uses[fun.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg := named.Obj().Pkg().Name()
	return pkg == "transport" || named.Obj().Name() == "Mesh"
}

// walkLocked scans a statement list tracking the set of held mutexes,
// recursing into nested statements with copies so branch-local locks stay
// branch-local.
func walkLocked(pass *Pass, list []ast.Stmt, held map[string]bool) {
	for _, stmt := range list {
		walkLockedStmt(pass, stmt, held)
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	c := make(map[string]bool, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

func anyHeld(held map[string]bool) string {
	for k, v := range held {
		if v {
			return k
		}
	}
	return ""
}

func walkLockedStmt(pass *Pass, stmt ast.Stmt, held map[string]bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			switch op, recv := lockEvent(pass, call); op {
			case "lock":
				held[recv] = true
				return
			case "unlock":
				delete(held, recv)
				return
			}
		}
		checkLockedExpr(pass, s.X, held)
	case *ast.DeferStmt:
		if op, recv := lockEvent(pass, s.Call); op == "unlock" {
			// Held until return; nothing to do — the lock stays in held.
			_ = recv
			return
		}
		// The deferred call itself runs after return, outside the walk.
	case *ast.SendStmt:
		if mu := anyHeld(held); mu != "" {
			pass.Reportf(s.Pos(), "blocking channel send while holding %s", mu)
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			if !hasDefault {
				if send, ok := cc.Comm.(*ast.SendStmt); ok {
					if mu := anyHeld(held); mu != "" {
						pass.Reportf(send.Pos(), "blocking channel send while holding %s (select has no default)", mu)
					}
				}
			}
			walkLocked(pass, cc.Body, copyHeld(held))
		}
	case *ast.BlockStmt:
		walkLocked(pass, s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			walkLockedStmt(pass, s.Init, held)
		}
		walkLocked(pass, s.Body.List, copyHeld(held))
		if s.Else != nil {
			walkLockedStmt(pass, s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		walkLocked(pass, s.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		walkLocked(pass, s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkLocked(pass, cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkLocked(pass, cc.Body, copyHeld(held))
			}
		}
	case *ast.LabeledStmt:
		walkLockedStmt(pass, s.Stmt, held)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			checkLockedExpr(pass, rhs, held)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			checkLockedExpr(pass, r, held)
		}
	case *ast.GoStmt:
		// Runs on another goroutine with its own (empty) lock context.
	}
}

// checkLockedExpr flags transport sends in expression position while a
// mutex is held; function literals reset the held set.
func checkLockedExpr(pass *Pass, e ast.Expr, held map[string]bool) {
	mu := anyHeld(held)
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			walkLocked(pass, n.Body.List, map[string]bool{})
			return false
		case *ast.CallExpr:
			if mu != "" && isTransportSend(pass, n) {
				pass.Reportf(n.Pos(), "transport send while holding %s (blocking communication under a mutex deadlocks against a peer doing the same)", mu)
			}
		}
		return true
	})
}
