package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// EnvRef checks the batch-envelope refcount protocol (internal/dataflow's
// batchEnv: every enqueue increfs, every consumer releases — see batch.go's
// ownership comment). The analyzer is name-driven so it applies to any type
// speaking the protocol: a call to a method named incref / release, or to
// the increfAny / releaseAny shims, is a refcount event on the receiver
// (respectively the last argument). Three rules, all within one
// straight-line statement list (the protocol's real call sites are
// deliberately adjacent — distance is what made PR 9's first cut leak):
//
//   - an incref must be followed within two statements by the enqueue it
//     protects (an append-assignment, a channel send, or an enqueue/push
//     call); an incref with no adjacent consumer is a leaked reference
//   - releasing the same expression twice with no intervening incref or
//     reassignment is a double release: the envelope recycles while the
//     first consumer can still see it
//   - mentioning an expression after it was released is a use-after-free
//     of a potentially recycled buffer
//
// An operator that keeps a batch owns one of those references, and the same
// rules follow it across the ownership edge: Release and SendOwned give the
// owner's reference up (so a second one, or a use of the batch afterwards,
// is the same double release or use-after-free), and the callback handed to
// TakeEachBatch — the drain that transfers ownership — must on every path
// either give its batch up or hand it on (store it, pass it to a call); a
// path that only reads the records keeps a reference nothing will release,
// and the buffer never returns to the free list.
//
// Functions implementing the protocol itself (names containing incref or
// release) are exempt.
var EnvRef = &Analyzer{
	Name: "envref",
	Doc:  "check incref/release pairing of refcounted batch envelopes",
	Run:  runEnvRef,
}

func runEnvRef(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lower := strings.ToLower(fd.Name.Name)
			if strings.Contains(lower, "incref") || strings.Contains(lower, "release") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkTake(pass, n)
				case *ast.BlockStmt:
					checkEnvList(pass, n.List)
				case *ast.CaseClause:
					checkEnvList(pass, n.Body)
				case *ast.CommClause:
					checkEnvList(pass, n.Body)
				}
				return true
			})
		}
	}
	return nil
}

// refEvent classifies a statement as an incref or release of an expression.
func refEvent(stmt ast.Stmt) (kind string, subject ast.Expr) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return "", nil
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return "", nil
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "incref":
			return "incref", fun.X
		case "release", "Release":
			return "release", fun.X
		case "SendOwned":
			if len(call.Args) > 0 {
				return "release", call.Args[len(call.Args)-1]
			}
		}
	case *ast.Ident:
		if len(call.Args) > 0 {
			switch fun.Name {
			case "increfAny":
				return "incref", call.Args[len(call.Args)-1]
			case "releaseAny", "SendOwned":
				return "release", call.Args[len(call.Args)-1]
			}
		}
	}
	return "", nil
}

// checkTake applies the keep rule to a TakeEachBatch call whose callback is
// a function literal: the literal's last parameter is a batch it owns.
func checkTake(pass *Pass, call *ast.CallExpr) {
	name := ""
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	if name != "TakeEachBatch" || len(call.Args) == 0 {
		return
	}
	lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
	if !ok || len(lit.Type.Params.List) == 0 {
		return
	}
	last := lit.Type.Params.List[len(lit.Type.Params.List)-1]
	if len(last.Names) == 0 {
		return
	}
	k := keep{pass: pass, batch: last.Names[len(last.Names)-1].Name}
	if !k.walk(lit.Body.List, false) {
		k.report(lit.Body.Rbrace)
	}
}

// keep walks the paths of a taking callback.
type keep struct {
	pass     *Pass
	batch    string
	reported bool
}

func (k *keep) report(pos token.Pos) {
	if !k.reported {
		k.reported = true
		k.pass.Reportf(pos, "batch %s kept but never released: this path neither releases it, sends it, nor hands it on", k.batch)
	}
}

// walk follows a statement list and reports whether a path reaching its end
// has disposed of the batch. A return on a path that has not is reported;
// loops and switches count as disposing if anything inside them does.
func (k *keep) walk(list []ast.Stmt, disposed bool) bool {
	for _, stmt := range list {
		switch s := stmt.(type) {
		case *ast.ReturnStmt:
			if !disposed {
				k.report(s.Pos())
			}
			return true // the path ends here
		case *ast.BlockStmt:
			disposed = k.walk(s.List, disposed)
		case *ast.IfStmt:
			then := k.walk(s.Body.List, disposed)
			els := disposed
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				els = k.walk(e.List, disposed)
			case *ast.IfStmt:
				els = k.walk([]ast.Stmt{e}, disposed)
			}
			disposed = then && els
		default:
			disposed = disposed || k.disposes(stmt)
		}
	}
	return disposed
}

// disposes reports whether the statement gives the batch up (Release,
// SendOwned) or hands the batch itself — not just its records — to someone
// else: as a call argument, an assigned value, or a composite-literal field.
func (k *keep) disposes(stmt ast.Stmt) bool {
	is := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == k.batch
	}
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" && is(sel.X) {
				found = true
			}
			for _, a := range n.Args {
				found = found || is(a)
			}
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				found = found || is(r)
			}
		case *ast.KeyValueExpr:
			found = found || is(n.Value)
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				found = found || is(e)
			}
		}
		return !found
	})
	return found
}

func checkEnvList(pass *Pass, list []ast.Stmt) {
	released := map[string]ast.Stmt{} // expr -> releasing statement
	for i, stmt := range list {
		kind, subject := refEvent(stmt)
		subjectStr := ""
		if subject != nil {
			subjectStr = types.ExprString(subject)
		}

		// Use-after-release: the statement mentions a released expression.
		// The releasing statement itself, a re-release (reported as a double
		// release below), and assignment LHSes (writes/rebinds, not reads)
		// are excluded.
		if len(released) > 0 {
			var scan []ast.Node
			if as, ok := stmt.(*ast.AssignStmt); ok {
				for _, r := range as.Rhs {
					scan = append(scan, r)
				}
			} else {
				scan = append(scan, stmt)
			}
			for _, root := range scan {
				ast.Inspect(root, func(n ast.Node) bool {
					e, ok := n.(ast.Expr)
					if !ok {
						return true
					}
					s := types.ExprString(e)
					if _, ok := released[s]; ok && !(kind != "" && s == subjectStr) {
						pass.Reportf(e.Pos(), "envelope %s used after release", s)
						delete(released, s) // report once
						return false
					}
					return true
				})
			}
		}

		switch kind {
		case "release":
			if _, ok := released[subjectStr]; ok {
				pass.Reportf(stmt.Pos(), "envelope %s released twice on this path (double release recycles a buffer a consumer can still see)", subjectStr)
			}
			released[subjectStr] = stmt
		case "incref":
			delete(released, subjectStr)
			if !enqueueFollows(list, i) {
				pass.Reportf(stmt.Pos(), "incref of %s with no adjacent enqueue (leaked reference: nothing will release it)", subjectStr)
			}
		default:
			// Reassignment clears release tracking for the assigned names.
			if as, ok := stmt.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					delete(released, types.ExprString(lhs))
				}
			}
		}
	}
}

// enqueueFollows reports whether one of the two statements after list[i]
// hands the envelope to a consumer: an append-assignment (queue push), a
// channel send, or a call whose name marks it an enqueue.
func enqueueFollows(list []ast.Stmt, i int) bool {
	for j := i + 1; j < len(list) && j <= i+2; j++ {
		switch s := list[j].(type) {
		case *ast.SendStmt:
			return true
		case *ast.AssignStmt:
			for _, rhs := range s.Rhs {
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
					if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
						return true
					}
				}
			}
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				name := ""
				switch fun := ast.Unparen(call.Fun).(type) {
				case *ast.Ident:
					name = fun.Name
				case *ast.SelectorExpr:
					name = fun.Sel.Name
				}
				lower := strings.ToLower(name)
				if strings.Contains(lower, "enqueue") || strings.Contains(lower, "push") || strings.Contains(lower, "deliver") {
					return true
				}
			}
		}
	}
	return false
}
