package lint

import (
	"go/ast"
	"go/types"
)

// inspectWithStack walks root like ast.Inspect but hands fn the stack of
// enclosing nodes (outermost first, current node excluded). Returning false
// skips the node's children.
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
			return true
		}
		// ast.Inspect will not call us for children (and will not send the
		// closing nil), so the stack stays balanced.
		return false
	})
}

// calleeFunc resolves a call expression to the *types.Func it invokes, or
// nil for calls through function values, conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the package-level function pkgPath.name.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	return obj != nil && obj.Parent() == types.Universe && id.Name == "nil"
}

// errorIface is the predeclared error interface.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t's values satisfy the error interface.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return types.Implements(t, errorIface)
}
