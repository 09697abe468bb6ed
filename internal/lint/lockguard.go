package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// LockGuard enforces the repo's `// guarded by <mu>` annotation convention
// (docs/static-analysis.md): a struct field or local variable whose doc or
// trailing comment carries the phrase is only accessed while the named
// mutex is held, proven by a must-hold dataflow over the function's CFG —
// Lock/RLock gen, Unlock/RUnlock kill, intersection at joins — so an
// access is flagged unless every path reaching it locked first. Writes
// demand the exclusive lock; reads accept RLock too. Functions documented
// with "caller holds x.y" start with that lock held; locals that only ever
// hold fresh allocations (&T{…}, new(T)) are exempt, which keeps
// constructors annotation-free.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc:  "fields annotated `// guarded by <mu>` must be accessed with the mutex held on every path",
	Run:  runLockGuard,
}

// guardAnnotationRe extracts the guard name from an annotation comment.
var guardAnnotationRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// callerHoldsRe matches the doc-comment convention marking a function that
// runs with a lock already held: "Caller holds e.mu" / "caller must hold
// s.mu". The first identifier must name the receiver or a parameter.
var callerHoldsRe = regexp.MustCompile(`[Cc]aller (?:must hold|holds) ([A-Za-z_][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)`)

// guardInfo describes one annotated variable.
type guardInfo struct {
	// name is the annotated field/variable name, for messages.
	name string
	// guard is the guard's name as written in the annotation.
	guard string
	// guardField is set for struct fields: the guard is the sibling field
	// of that name, combined with the access path at each use site.
	guardField bool
	// absKey is the resolved guard key for annotated locals and
	// package-level variables ("" for fields).
	absKey string
}

func runLockGuard(p *Pass) {
	fields, locals := collectGuards(p)
	if len(fields) == 0 && len(locals) == 0 {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			entry := callerHolds(p, fd)
			checkLockGuardBody(p, fd.Body, entry, fields, locals)
		}
	}
}

// collectGuards scans the package for `guarded by` annotations on struct
// fields (doc or trailing comment) and on var specs (locals or package
// level).
func collectGuards(p *Pass) (fields map[types.Object]guardInfo, locals map[types.Object]guardInfo) {
	fields = map[types.Object]guardInfo{}
	locals = map[types.Object]guardInfo{}
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					guard := annotationGuard(field.Doc, field.Comment)
					if guard == "" {
						continue
					}
					if !structHasField(n, guard) {
						for _, name := range field.Names {
							p.Reportf(name.Pos(), "guarded-by annotation on %s names %s, which is not a field of this struct", name.Name, guard)
						}
						continue
					}
					for _, name := range field.Names {
						if obj := info.Defs[name]; obj != nil {
							fields[obj] = guardInfo{name: name.Name, guard: guard, guardField: true}
						}
					}
				}
			case *ast.ValueSpec:
				guard := annotationGuard(n.Doc, n.Comment)
				if guard == "" {
					return true
				}
				for _, name := range n.Names {
					obj := info.Defs[name]
					if obj == nil {
						continue
					}
					// Resolve the guard to a variable visible at the
					// annotated declaration.
					scope := p.Pkg.Types.Scope().Innermost(name.Pos())
					if scope == nil {
						continue
					}
					_, gobj := scope.LookupParent(guard, name.Pos())
					gvar, isVar := gobj.(*types.Var)
					if !isVar {
						p.Reportf(name.Pos(), "guarded-by annotation on %s names %s, which is not a variable in scope", name.Name, guard)
						continue
					}
					locals[obj] = guardInfo{name: name.Name, guard: guard, absKey: objKey(gvar)}
				}
			}
			return true
		})
	}
	return fields, locals
}

// structHasField reports whether st declares a field (or embeds a type)
// named name.
func structHasField(st *ast.StructType, name string) bool {
	for _, field := range st.Fields.List {
		for _, id := range field.Names {
			if id.Name == name {
				return true
			}
		}
		if len(field.Names) == 0 {
			// Embedded: the implicit field name is the type's base name.
			t := field.Type
			if star, ok := t.(*ast.StarExpr); ok {
				t = star.X
			}
			switch t := t.(type) {
			case *ast.Ident:
				if t.Name == name {
					return true
				}
			case *ast.SelectorExpr:
				if t.Sel.Name == name {
					return true
				}
			}
		}
	}
	return false
}

// annotationGuard extracts a guard name from a field/spec comment pair.
func annotationGuard(groups ...*ast.CommentGroup) string {
	for _, g := range groups {
		if g == nil {
			continue
		}
		if m := guardAnnotationRe.FindStringSubmatch(g.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// callerHolds builds a function's entry lock set from its "caller holds
// x.y" doc comment lines. x must name the receiver or a parameter.
func callerHolds(p *Pass, fd *ast.FuncDecl) factSet {
	entry := factSet{}
	if fd.Doc == nil {
		return entry
	}
	info := p.Pkg.Info
	resolve := func(name string) *types.Var {
		check := func(fl *ast.FieldList) *types.Var {
			if fl == nil {
				return nil
			}
			for _, field := range fl.List {
				for _, id := range field.Names {
					if id.Name == name {
						v, _ := info.Defs[id].(*types.Var)
						return v
					}
				}
			}
			return nil
		}
		if v := check(fd.Recv); v != nil {
			return v
		}
		return check(fd.Type.Params)
	}
	for _, m := range callerHoldsRe.FindAllStringSubmatch(fd.Doc.Text(), -1) {
		if v := resolve(m[1]); v != nil {
			entry["W:"+objKey(v)+"."+m[2]] = true
		}
	}
	return entry
}

// checkLockGuardBody runs the must-hold dataflow over one body and reports
// unguarded accesses, then recurses into the closures it contains:
// goroutine and pool-worker closures start with nothing held, deferred and
// ordinary closures inherit the locks held where they are created.
func checkLockGuardBody(p *Pass, body *ast.BlockStmt, entry factSet,
	fields, locals map[types.Object]guardInfo) {
	info := p.Pkg.Info
	fresh := freshLocals(info, body)
	closures := flowWalk(info, body, entry, true, func(n ast.Node, stack []ast.Node, held factSet) {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			g, ok := fields[info.Uses[n.Sel]]
			if !ok {
				return
			}
			base := selectorBaseKey(info, n)
			if base == "" {
				return
			}
			if root := pathRootObject(info, n.X); root != nil && fresh[root] {
				return
			}
			key := base + "." + g.guard
			reportUnguarded(p, n, n.Sel.Pos(), stack, held, g, key)
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil {
				return
			}
			g, ok := locals[obj]
			if !ok {
				return
			}
			reportUnguarded(p, n, n.Pos(), stack, held, g, g.absKey)
		}
	})
	for _, fc := range closures {
		closureEntry := fc.at
		if fc.spawnedGo || fc.spawnedPool {
			closureEntry = factSet{}
		}
		checkLockGuardBody(p, fc.lit.Body, closureEntry, fields, locals)
	}
}

// reportUnguarded checks one guarded access against the held set and
// reports a finding when the required lock cannot be proven held.
func reportUnguarded(p *Pass, expr ast.Expr, pos token.Pos, stack []ast.Node,
	held factSet, g guardInfo, key string) {
	writeHeld, readHeld := held["W:"+key], held["R:"+key]
	if classifyAccess(expr, stack) == accessWrite {
		switch {
		case writeHeld:
		case readHeld:
			p.Reportf(pos, "write to %s while holding only the read lock: %s.RLock does not exclude other readers' writers, take %s.Lock", g.name, g.guard, g.guard)
		default:
			p.Reportf(pos, "unguarded write to %s: %s.Lock is not held on every path reaching this access", g.name, g.guard)
		}
		return
	}
	if !writeHeld && !readHeld {
		p.Reportf(pos, "unguarded read of %s: %s.Lock or %s.RLock must be held on every path reaching this access", g.name, g.guard, g.guard)
	}
}

// pathRootObject unwraps a selector/index/deref chain to its root
// identifier's object.
func pathRootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}
