package lint

import (
	"go/ast"
	"go/token"
)

// ctxSendPkgs are the packages whose goroutines feed the streaming
// emit paths: a blocking send there outlives its consumer unless it
// can observe cancellation.
var ctxSendPkgs = []string{
	"storagesched/internal/engine",
	"storagesched/internal/serve",
}

// CtxSend requires every channel send inside a goroutine of the
// engine/serve packages to sit in a select with a ctx.Done()
// (or a default) case. The disconnect tests hunt this leak class
// dynamically — a client that goes away mid-stream must not strand a
// producer goroutine parked on `order <- st` forever — but a test only
// finds the emit path it exercises; the shape itself is checkable.
var CtxSend = &Analyzer{
	Name: "ctxsend",
	Doc:  "channel send in a goroutine without a select { case <-ctx.Done() } escape (goroutine leak)",
	Run:  runCtxSend,
}

func runCtxSend(pass *Pass) {
	if !pass.pathIn(ctxSendPkgs...) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			// Only function literals have a visible body; `go m.run()`
			// is analyzed where the method is declared if it, too,
			// launches goroutines.
			lit, ok := g.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			checkGoroutineBody(pass, lit.Body)
			return true
		})
	}
}

// checkGoroutineBody walks one goroutine's body (including nested
// function literals, which still run on this goroutine unless handed
// off — and a handed-off closure's sends need the same escape) and
// reports unguarded sends.
func checkGoroutineBody(pass *Pass, body *ast.BlockStmt) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if send, ok := n.(*ast.SendStmt); ok && !sendGuarded(stack, send) {
			pass.Reportf(send.Pos(), "channel send in a goroutine outside a select with a ctx.Done() case: a vanished consumer leaks this goroutine (guard it, or annotate //schedlint:allow ctxsend with the reason it cannot block)")
		}
		return true
	})
}

// sendGuarded reports whether the send is itself a select case (not
// merely nested inside one) of a select that also has a cancellation
// escape: another case receiving from a .Done() call, or a default
// case (non-blocking send).
func sendGuarded(stack []ast.Node, send *ast.SendStmt) bool {
	// stack ends [..., SelectStmt, BlockStmt, CommClause, SendStmt]
	// when the send is a case's comm statement.
	if len(stack) < 2 {
		return false
	}
	cc, ok := stack[len(stack)-2].(*ast.CommClause)
	if !ok || cc.Comm != ast.Stmt(send) {
		return false
	}
	for i := len(stack) - 3; i >= 0; i-- {
		if sel, ok := stack[i].(*ast.SelectStmt); ok {
			return selectHasEscape(sel, send)
		}
	}
	return false
}

// selectHasEscape scans the select's other cases for a receive from a
// Done()-shaped call or a default clause.
func selectHasEscape(sel *ast.SelectStmt, send *ast.SendStmt) bool {
	for _, stmt := range sel.Body.List {
		cc, ok := stmt.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return true // default: the send cannot block
		}
		if cc.Comm == ast.Stmt(send) {
			continue
		}
		if recvFromDone(cc.Comm) {
			return true
		}
	}
	return false
}

// recvFromDone matches `<-x.Done()` (and `v := <-x.Done()`), the
// shape of every context cancellation channel.
func recvFromDone(stmt ast.Stmt) bool {
	var expr ast.Expr
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		expr = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			expr = s.Rhs[0]
		}
	}
	if expr == nil {
		return false
	}
	unary, ok := ast.Unparen(expr).(*ast.UnaryExpr)
	if !ok || unary.Op != token.ARROW {
		return false
	}
	call, ok := ast.Unparen(unary.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	selx, ok := call.Fun.(*ast.SelectorExpr)
	return ok && selx.Sel.Name == "Done"
}
