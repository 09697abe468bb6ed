package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// typeCheckSrc parses and type-checks one import-free source file, returning
// everything the astutil helpers consume.
func typeCheckSrc(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Info, *types.Package) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f, info, pkg
}

func TestInspectWithStack(t *testing.T) {
	_, f, _, _ := typeCheckSrc(t, `package p
func outer() {
	if true {
		println(1)
	}
}
`)
	// The stack at each node must be exactly the chain of enclosing nodes,
	// outermost first, current node excluded.
	var sawCall bool
	inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
		for i := 1; i < len(stack); i++ {
			outer, inner := stack[i-1], stack[i]
			if inner.Pos() < outer.Pos() || inner.End() > outer.End() {
				t.Fatalf("stack not properly nested at %T", n)
			}
		}
		if call, ok := n.(*ast.CallExpr); ok {
			sawCall = true
			if len(stack) == 0 {
				t.Fatal("call expression with an empty stack")
			}
			if _, ok := stack[0].(*ast.File); !ok {
				t.Fatalf("stack[0] = %T, want *ast.File", stack[0])
			}
			if _, ok := stack[len(stack)-1].(*ast.ExprStmt); !ok {
				t.Fatalf("innermost enclosing = %T, want *ast.ExprStmt", stack[len(stack)-1])
			}
			_ = call
		}
		return true
	})
	if !sawCall {
		t.Fatal("walk never reached the call expression")
	}
}

func TestInspectWithStackSkip(t *testing.T) {
	_, f, _, _ := typeCheckSrc(t, `package p
func a() { println(1) }
func b() { println(2) }
`)
	// Refusing to descend into the first function must not unbalance the
	// stack for the second: b's body still sees a correct chain.
	var callsSeen int
	inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
		if fd, ok := n.(*ast.FuncDecl); ok && fd.Name.Name == "a" {
			return false
		}
		if _, ok := n.(*ast.CallExpr); ok {
			callsSeen++
			if len(stack) == 0 || stack[0] != ast.Node(f) {
				t.Fatalf("unbalanced stack after a skip: %v", stack)
			}
		}
		return true
	})
	if callsSeen != 1 {
		t.Fatalf("saw %d calls, want 1 (a's call skipped, b's visited)", callsSeen)
	}
}

func TestCalleeFunc(t *testing.T) {
	_, f, info, _ := typeCheckSrc(t, `package p
type T struct{}
func (T) M()  {}
func F()      {}
type I int
func use() {
	F()
	T{}.M()
	g := F
	g()
	_ = len("x")
	_ = I(1)
}
`)
	// Collect every call in use() in source order.
	var calls []*ast.CallExpr
	ast.Inspect(f, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, c)
		}
		return true
	})
	if len(calls) != 5 {
		t.Fatalf("found %d calls, want 5", len(calls))
	}
	wantNames := []string{"F", "M", "", "", ""} // g(), len, and I(1) resolve to nil
	for i, call := range calls {
		fn := calleeFunc(info, call)
		got := ""
		if fn != nil {
			got = fn.Name()
		}
		if got != wantNames[i] {
			t.Errorf("call %d: calleeFunc = %q, want %q", i, got, wantNames[i])
		}
	}
}

func TestIsPkgFunc(t *testing.T) {
	_, f, info, _ := typeCheckSrc(t, `package p
type T struct{}
func (T) M() {}
func F()     {}
func use() {
	F()
	T{}.M()
}
`)
	var calls []*ast.CallExpr
	ast.Inspect(f, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, c)
		}
		return true
	})
	fn := calleeFunc(info, calls[0])
	if !isPkgFunc(fn, "p", "F") {
		t.Error("package-level F should match (p, F)")
	}
	if isPkgFunc(fn, "p", "G") {
		t.Error("F must not match name G")
	}
	if isPkgFunc(fn, "q", "F") {
		t.Error("F must not match package q")
	}
	if m := calleeFunc(info, calls[1]); isPkgFunc(m, "p", "M") {
		t.Error("methods must never match, only package-level functions")
	}
	if isPkgFunc(nil, "p", "F") {
		t.Error("nil func must not match")
	}
}

func TestIsNilIdent(t *testing.T) {
	_, f, info, _ := typeCheckSrc(t, `package p
func use(e error) bool {
	var nilNamed error
	_ = nilNamed
	return e == (nil)
}
`)
	var cmp *ast.BinaryExpr
	ast.Inspect(f, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok {
			cmp = b
		}
		return true
	})
	if cmp == nil {
		t.Fatal("no comparison found")
	}
	if !isNilIdent(info, cmp.Y) {
		t.Error("parenthesized nil should be recognized")
	}
	if isNilIdent(info, cmp.X) {
		t.Error("a plain variable is not nil")
	}
}

func TestImplementsError(t *testing.T) {
	_, _, _, pkg := typeCheckSrc(t, `package p
type myErr struct{}
func (myErr) Error() string { return "" }
type notErr struct{}
`)
	if !implementsError(pkg.Scope().Lookup("myErr").Type()) {
		t.Error("myErr has Error() string and should implement error")
	}
	if implementsError(pkg.Scope().Lookup("notErr").Type()) {
		t.Error("notErr should not implement error")
	}
	if implementsError(nil) {
		t.Error("nil type should not implement error")
	}
	if implementsError(types.Typ[types.UntypedNil]) {
		t.Error("untyped nil should be rejected explicitly")
	}
}
