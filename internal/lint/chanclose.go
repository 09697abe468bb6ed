package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ChanClose checks channel-close discipline with a may-dataflow over the
// CFG: once a close(ch) is reachable, a later send on ch may panic and a
// later close is a double close — both are flagged at the point where the
// closed fact may hold. Closures inherit the facts in force where they are
// created (a close that happened before the spawn definitely precedes the
// goroutine's sends). Ownership is checked structurally: a close of a
// captured channel inside a pool-worker closure, or inside a goroutine
// spawned in a loop, runs once per worker or per iteration — a structural
// double close no interleaving avoids.
var ChanClose = &Analyzer{
	Name: "chanclose",
	Doc:  "no send after a reachable close, no double close, owner closes exactly once",
	Run:  runChanClose,
}

func runChanClose(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkChanBody(p, fd.Body, factSet{})
			}
		}
	}
}

// checkChanBody runs the may-closed dataflow over one body and recurses
// into its closures with the facts at their creation point.
func checkChanBody(p *Pass, body *ast.BlockStmt, entry factSet) {
	info := p.Pkg.Info
	closures := flowWalk(info, body, entry, false, func(n ast.Node, stack []ast.Node, facts factSet) {
		switch n := n.(type) {
		case *ast.SendStmt:
			if key := exprKey(info, n.Chan); key != "" && facts["closed:"+key] {
				p.Reportf(n.Arrow, "send on %s may follow its close — a send on a closed channel panics; the owner must close only after the last send", types.ExprString(n.Chan))
			}
		case *ast.CallExpr:
			// The visitor runs before the call's own effect, so a closed
			// fact here means a close on some earlier path.
			if key, isClose := closeArgKey(info, n); isClose && key != "" && facts["closed:"+key] {
				p.Reportf(n.Pos(), "%s may already be closed here — close a channel exactly once, from its owning goroutine", types.ExprString(n.Args[0]))
			}
		}
	})
	for _, fc := range closures {
		if fc.spawnedPool {
			reportCapturedCloses(p, fc.lit, "inside a pool worker: every worker runs this closure and would close the shared channel")
		} else if fc.spawnedGo && enclosingLoop(body, fc.spawnPos) != nil {
			reportCapturedCloses(p, fc.lit, "inside a goroutine spawned in a loop: each iteration's goroutine would close the shared channel")
		}
		checkChanBody(p, fc.lit.Body, fc.at)
	}
}

// reportCapturedCloses flags every close of a channel captured from outside
// lit (a variable declared elsewhere, or any field path — shared either
// way).
func reportCapturedCloses(p *Pass, lit *ast.FuncLit, why string) {
	info := p.Pkg.Info
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, isLit := n.(*ast.FuncLit); isLit && inner != lit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, isClose := closeArgKey(info, call); !isClose || key == "" {
			return true
		}
		arg := call.Args[0]
		if root := pathRootObject(info, arg); root != nil {
			local := root.Pos() >= lit.Pos() && root.Pos() < lit.End()
			if local && !isFieldPath(arg) {
				return true
			}
		}
		p.Reportf(call.Pos(), "close(%s) %s", types.ExprString(arg), why)
		return true
	})
}

// isFieldPath reports whether e reaches its channel through a field
// selection (shared state even when the root variable is local).
func isFieldPath(e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			return true
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return false
		}
	}
}

// enclosingLoop returns the innermost for/range statement in body whose
// range contains pos, or nil.
func enclosingLoop(body ast.Node, pos token.Pos) ast.Node {
	var innermost ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if n.Pos() <= pos && pos < n.End() {
				innermost = n
			}
		case *ast.FuncLit:
			return false
		case nil:
			return false
		}
		return true
	})
	return innermost
}
