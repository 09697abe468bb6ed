package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ObsNil enforces the observability layer's core contract: every method on
// a nil *Registry, *Counter, *Gauge, *Histogram, *Span, etc. is a no-op, so
// instrumented call sites thread one pointer through without branching. The
// analyzer requires every exported pointer-receiver method in package obs to
// begin with a nil-receiver guard, which also guarantees no field is
// dereferenced before the guard.
var ObsNil = &Analyzer{
	Name: "obsnil",
	Doc:  "exported pointer-receiver methods in package obs must begin with a nil-receiver guard",
	Run:  runObsNil,
}

func runObsNil(p *Pass) {
	if p.Pkg.Name != "obs" {
		return
	}
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !fd.Name.IsExported() || fd.Body == nil {
				continue
			}
			recvName, recvType, isPtr := receiverInfo(fd)
			if !isPtr {
				continue // value receivers cannot be nil
			}
			if recvName == "" || recvName == "_" {
				continue // unnamed receiver: nothing can be dereferenced
			}
			if len(fd.Body.List) == 0 {
				continue
			}
			recvObj := info.Defs[fd.Recv.List[0].Names[0]]
			if beginsWithNilGuard(info, fd.Body.List[0], recvObj, recvName) {
				continue
			}
			p.Reportf(fd.Name.Pos(),
				"exported method (*%s).%s must begin with `if %s == nil { return ... }`: the obs API is documented nil-safe, and no receiver field may be touched before the guard",
				recvType, fd.Name.Name, recvName)
		}
	}
}

// receiverInfo extracts the receiver's name, base type name, and pointerness.
func receiverInfo(fd *ast.FuncDecl) (name, typeName string, isPtr bool) {
	field := fd.Recv.List[0]
	if len(field.Names) == 1 {
		name = field.Names[0].Name
	}
	t := field.Type
	if star, ok := t.(*ast.StarExpr); ok {
		isPtr = true
		t = star.X
	}
	switch t := t.(type) {
	case *ast.Ident:
		typeName = t.Name
	case *ast.IndexExpr: // generic receiver
		if id, ok := t.X.(*ast.Ident); ok {
			typeName = id.Name
		}
	}
	return name, typeName, isPtr
}

// beginsWithNilGuard reports whether stmt is an acceptable opening guard:
// either `if recv == nil { ... return }`, or a lone `return expr` whose only
// uses of the receiver are nil comparisons (the Enabled() bool shape).
func beginsWithNilGuard(info *types.Info, stmt ast.Stmt, recvObj types.Object, recvName string) bool {
	switch s := stmt.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			return false
		}
		if !isRecvNilComparison(info, s.Cond, recvObj, token.EQL) {
			return false
		}
		if len(s.Body.List) == 0 {
			return false
		}
		_, ok := s.Body.List[len(s.Body.List)-1].(*ast.ReturnStmt)
		return ok
	case *ast.ReturnStmt:
		return recvUsedOnlyInNilComparisons(info, s, recvObj)
	}
	return false
}

// isRecvNilComparison reports whether cond is `recv <op> nil` (either
// operand order).
func isRecvNilComparison(info *types.Info, cond ast.Expr, recvObj types.Object, op token.Token) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != op {
		return false
	}
	return (isRecvIdent(info, be.X, recvObj) && isNilIdent(info, be.Y)) ||
		(isRecvIdent(info, be.Y, recvObj) && isNilIdent(info, be.X))
}

func isRecvIdent(info *types.Info, e ast.Expr, recvObj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && recvObj != nil && info.Uses[id] == recvObj
}

// recvUsedOnlyInNilComparisons reports whether every appearance of the
// receiver under n is as an operand of a == nil / != nil comparison.
func recvUsedOnlyInNilComparisons(info *types.Info, n ast.Node, recvObj types.Object) bool {
	// First pass: mark receiver idents sanctioned by a nil comparison.
	sanctioned := map[*ast.Ident]bool{}
	ast.Inspect(n, func(node ast.Node) bool {
		be, ok := node.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		for _, pair := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
			if id, ok := ast.Unparen(pair[0]).(*ast.Ident); ok &&
				info.Uses[id] == recvObj && isNilIdent(info, pair[1]) {
				sanctioned[id] = true
			}
		}
		return true
	})
	// Second pass: any unsanctioned receiver use fails.
	ok := true
	ast.Inspect(n, func(node ast.Node) bool {
		if id, isID := node.(*ast.Ident); isID && info.Uses[id] == recvObj && !sanctioned[id] {
			ok = false
		}
		return ok
	})
	return ok
}
