package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// This file is the dataflow layer over the CFG: a forward fixpoint engine
// (must = intersection meet, may = union meet), a canonical storage-path
// keyer for lock/channel/field expressions, a transfer function covering
// the sync vocabulary (Mutex/RWMutex Lock/Unlock/RLock/RUnlock,
// WaitGroup.Wait/Done, builtin close), an in-order facts-carrying walker
// that surfaces func literals without descending into them, and a use-def
// helper classifying locals that only ever hold freshly allocated values.

// factSet is one program point's dataflow facts. Keys are prefixed by
// domain: "W:<path>" exclusive lock held, "R:<path>" read lock held,
// "wait:<path>" WaitGroup.Wait performed, "done:<path>" WaitGroup.Done
// performed (or deferred), "closed:<path>" channel close performed.
type factSet map[string]bool

func (f factSet) clone() factSet {
	out := make(factSet, len(f))
	for k := range f {
		out[k] = true
	}
	return out
}

// intersectFacts returns a ∩ b.
func intersectFacts(a, b factSet) factSet {
	out := factSet{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// unionInto adds b's facts to a, reporting whether a grew.
func unionInto(a, b factSet) bool {
	grew := false
	for k := range b {
		if !a[k] {
			a[k] = true
			grew = true
		}
	}
	return grew
}

// equalFacts reports set equality.
func equalFacts(a, b factSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// forwardFlow computes each block's entry fact set by forward fixpoint.
// must selects intersection meet (a fact holds only if it holds on every
// predecessor path); otherwise union (a fact holds if any path set it).
// Blocks never reached from the entry keep a nil entry set.
func forwardFlow(g *cfgGraph, entryFact factSet, must bool, transfer func(*cfgBlock, factSet) factSet) map[*cfgBlock]factSet {
	in := map[*cfgBlock]factSet{g.entry(): entryFact.clone()}
	work := []*cfgBlock{g.entry()}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		if in[b] == nil {
			continue
		}
		out := transfer(b, in[b])
		for _, s := range b.succs {
			var next factSet
			old, seen := in[s]
			if !seen {
				next = out.clone()
			} else if must {
				next = intersectFacts(old, out)
			} else {
				next = old.clone()
				unionInto(next, out)
			}
			if !seen || !equalFacts(next, old) {
				in[s] = next
				work = append(work, s)
			}
		}
	}
	return in
}

// exprKey canonicalizes an expression naming a storage location — a chain
// of identifiers and field selections, with pointers dereferenced — into a
// stable key, or "" when the expression is not a nameable path (calls,
// index expressions, literals). Two expressions with equal keys name the
// same variable or field path.
func exprKey(info *types.Info, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok {
			return objKey(v)
		}
		return ""
	case *ast.ParenExpr:
		return exprKey(info, e.X)
	case *ast.StarExpr:
		return exprKey(info, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return exprKey(info, e.X)
		}
		return ""
	case *ast.SelectorExpr:
		base := selectorBaseKey(info, e)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// objKey is a per-run-stable identity for a variable object.
func objKey(v *types.Var) string {
	return v.Name() + "@" + strconv.Itoa(int(v.Pos()))
}

// selectorBaseKey keys the storage path of sel's receiver side, including
// any implicit embedded-field hops the selection takes, so that t.Lock()
// through an embedded sync.Mutex and t.Mutex.Lock() key identically.
func selectorBaseKey(info *types.Info, sel *ast.SelectorExpr) string {
	base := exprKey(info, sel.X)
	if base == "" {
		return ""
	}
	s, ok := info.Selections[sel]
	if !ok {
		// Package-qualified selector (pkg.Ident) or unresolved: the X key
		// was a coincidence; only variable paths are keyable.
		if id, isID := ast.Unparen(sel.X).(*ast.Ident); isID {
			if _, isVar := info.Uses[id].(*types.Var); !isVar {
				return ""
			}
		}
		return base
	}
	idx := s.Index()
	t := s.Recv()
	for _, i := range idx[:len(idx)-1] {
		t = derefType(t)
		st, isStruct := t.Underlying().(*types.Struct)
		if !isStruct || i >= st.NumFields() {
			return ""
		}
		f := st.Field(i)
		base += "." + f.Name()
		t = f.Type()
	}
	return base
}

// derefType strips pointer layers.
func derefType(t types.Type) types.Type {
	for {
		p, ok := t.Underlying().(*types.Pointer)
		if !ok {
			return t
		}
		t = p.Elem()
	}
}

// syncMethod resolves call to a method on sync.Mutex, sync.RWMutex, or
// sync.WaitGroup, returning the method name and the canonical key of the
// receiver path ("" when the receiver is not keyable).
func syncMethod(info *types.Info, call *ast.CallExpr) (name, key string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", false
	}
	recv := derefType(sig.Recv().Type())
	named, isNamed := recv.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex", "WaitGroup":
		return fn.Name(), selectorBaseKey(info, sel), true
	}
	return "", "", false
}

// closeArgKey resolves a builtin close(ch) call to ch's key; ok is false
// for any other call.
func closeArgKey(info *types.Info, call *ast.CallExpr) (string, bool) {
	id, isID := ast.Unparen(call.Fun).(*ast.Ident)
	if !isID || id.Name != "close" || len(call.Args) != 1 {
		return "", false
	}
	if obj := info.Uses[id]; obj == nil || obj.Parent() != types.Universe {
		return "", false
	}
	return exprKey(info, call.Args[0]), true
}

// applySyncEffects walks one CFG node and applies its synchronization
// effects to facts: lock/unlock transitions, Wait/Done, close. Func
// literals are opaque (their bodies run elsewhere or are analyzed
// separately); the deferred or go-dispatched top-level call's own effect is
// suppressed, with the exception of defer wg.Done()/mu.Unlock-at-return
// semantics noted inline.
func applySyncEffects(info *types.Info, n ast.Node, facts factSet) {
	skipCalls := map[*ast.CallExpr]bool{}
	switch s := n.(type) {
	case *ast.DeferStmt:
		// Arguments evaluate now; the call itself runs at return. A
		// deferred Unlock must not kill the held lock (it is exactly the
		// idiom that holds it for the rest of the function), but a deferred
		// Done does guarantee Done-at-exit for every later path.
		skipCalls[s.Call] = true
		if name, key, ok := syncMethod(info, s.Call); ok && name == "Done" && key != "" {
			facts["done:"+key] = true
		}
	case *ast.GoStmt:
		// Arguments evaluate now; the call runs on another goroutine.
		skipCalls[s.Call] = true
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		call, isCall := m.(*ast.CallExpr)
		if !isCall || skipCalls[call] {
			return true
		}
		if key, isClose := closeArgKey(info, call); isClose {
			if key != "" {
				facts["closed:"+key] = true
			}
			return true
		}
		name, key, ok := syncMethod(info, call)
		if !ok || key == "" {
			return true
		}
		switch name {
		case "Lock":
			facts["W:"+key] = true
		case "Unlock":
			delete(facts, "W:"+key)
		case "RLock":
			facts["R:"+key] = true
		case "RUnlock":
			delete(facts, "R:"+key)
		case "Wait":
			facts["wait:"+key] = true
		case "Done":
			facts["done:"+key] = true
		}
		return true
	})
}

// syncTransfer is the block transfer function for the sync fact domain.
func syncTransfer(info *types.Info) func(*cfgBlock, factSet) factSet {
	return func(b *cfgBlock, in factSet) factSet {
		out := in.clone()
		for _, n := range b.nodes {
			applySyncEffects(info, n, out)
		}
		return out
	}
}

// flowClosure is a func literal discovered during a flow walk, with the
// facts in force where the literal occurs and how it escapes: spawnedGo for
// `go func(){...}()`, spawnedPool for a literal handed to one of the
// internal/parallel spawn entry points, deferred for `defer func(){...}()`.
type flowClosure struct {
	lit         *ast.FuncLit
	at          factSet
	spawnedGo   bool
	spawnedPool bool
	deferred    bool
	// poolFn names the parallel entry point for spawnedPool closures
	// ("ForEach", "NewOrdered", …), so analyzers can tell the blocking
	// entry points — which join their workers before returning — from the
	// streaming pools that outlive the call.
	poolFn string
	// spawnPos is the position of the go/defer/pool-submit statement (the
	// literal's own position for ordinary closures).
	spawnPos token.Pos
}

// parallelSpawnFuncs are the internal/parallel entry points whose func
// arguments run on pool goroutines.
var parallelSpawnFuncs = map[string]bool{
	"ForEach": true, "ForEachMeter": true, "Map": true,
	"NewOrdered": true,
}

// parallelSpawnName resolves call to the internal/parallel pool entry
// point it invokes, or "".
func parallelSpawnName(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if fn.Pkg().Path() == "gpuresilience/internal/parallel" && parallelSpawnFuncs[fn.Name()] {
		return fn.Name()
	}
	return ""
}

// flowWalk runs the sync dataflow over body and then re-walks every
// reachable block in order, invoking visit on each node with the facts in
// force just before the node's own effect and the stack of enclosing nodes
// within the block entry. Func literals are reported (with their escape
// kind) and not descended into; the caller decides how to recurse.
func flowWalk(info *types.Info, body *ast.BlockStmt, entry factSet, must bool,
	visit func(n ast.Node, stack []ast.Node, facts factSet)) []flowClosure {
	g := buildCFG(body, info)
	in := forwardFlow(g, entry, must, syncTransfer(info))
	var closures []flowClosure
	for _, b := range g.blocks {
		facts := in[b]
		if facts == nil {
			continue // unreachable
		}
		facts = facts.clone()
		for _, n := range b.nodes {
			closures = append(closures, walkNodeWithFacts(info, n, facts, visit)...)
		}
	}
	return closures
}

// walkNodeWithFacts visits one CFG node's subtree in order, applying sync
// effects as calls are passed so later sub-nodes observe them, collecting
// func literals instead of descending.
func walkNodeWithFacts(info *types.Info, root ast.Node, facts factSet,
	visit func(n ast.Node, stack []ast.Node, facts factSet)) []flowClosure {
	var closures []flowClosure
	skipCalls := map[*ast.CallExpr]bool{}
	spawnKind := map[*ast.FuncLit]*flowClosure{}
	switch s := root.(type) {
	case *ast.DeferStmt:
		skipCalls[s.Call] = true
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			spawnKind[lit] = &flowClosure{deferred: true, spawnPos: s.Pos()}
		}
		if name, key, ok := syncMethod(info, s.Call); ok && name == "Done" && key != "" {
			defer func() { facts["done:"+key] = true }()
		}
	case *ast.GoStmt:
		skipCalls[s.Call] = true
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			spawnKind[lit] = &flowClosure{spawnedGo: true, spawnPos: s.Pos()}
		}
	}
	inspectWithStack(root, func(n ast.Node, stack []ast.Node) bool {
		if lit, isLit := n.(*ast.FuncLit); isLit {
			fc := flowClosure{lit: lit, at: facts.clone(), spawnPos: lit.Pos()}
			if k := spawnKind[lit]; k != nil {
				fc.spawnedGo, fc.deferred, fc.spawnPos = k.spawnedGo, k.deferred, k.spawnPos
			}
			// A literal argument of a parallel pool call runs on pool
			// goroutines.
			for i := len(stack) - 1; i >= 0; i-- {
				if call, isCall := stack[i].(*ast.CallExpr); isCall {
					if name := parallelSpawnName(info, call); name != "" {
						for _, a := range call.Args {
							if ast.Unparen(a) == lit {
								fc.spawnedPool = true
								fc.poolFn = name
								fc.spawnPos = call.Pos()
							}
						}
					}
					break
				}
			}
			closures = append(closures, fc)
			return false
		}
		if visit != nil {
			visit(n, stack, facts)
		}
		if call, isCall := n.(*ast.CallExpr); isCall && !skipCalls[call] {
			applyCallEffect(info, call, facts)
		}
		return true
	})
	return closures
}

// applyCallEffect applies a single call's sync effect to facts.
func applyCallEffect(info *types.Info, call *ast.CallExpr, facts factSet) {
	if key, isClose := closeArgKey(info, call); isClose {
		if key != "" {
			facts["closed:"+key] = true
		}
		return
	}
	name, key, ok := syncMethod(info, call)
	if !ok || key == "" {
		return
	}
	switch name {
	case "Lock":
		facts["W:"+key] = true
	case "Unlock":
		delete(facts, "W:"+key)
	case "RLock":
		facts["R:"+key] = true
	case "RUnlock":
		delete(facts, "R:"+key)
	case "Wait":
		facts["wait:"+key] = true
	case "Done":
		facts["done:"+key] = true
	}
}

// accessKind classifies how a selector (or identifier) expression is used.
type accessKind int

const (
	accessRead accessKind = iota
	accessWrite
)

// classifyAccess decides whether expr — found at the top of stack — is
// written: it (or a chain of selections/indexes/derefs rooted at it) is an
// assignment target, an inc/dec operand, or has its address taken. Map and
// slice element writes through the path count as writes of the path.
func classifyAccess(expr ast.Expr, stack []ast.Node) accessKind {
	cur := ast.Node(expr)
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			cur = p
		case *ast.SelectorExpr:
			if p.X != cur {
				return accessRead
			}
			cur = p
		case *ast.IndexExpr:
			if p.X != cur {
				return accessRead
			}
			cur = p
		case *ast.SliceExpr:
			if p.X != cur {
				return accessRead
			}
			cur = p
		case *ast.StarExpr:
			cur = p
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				// Address escapes: anything could write through it.
				return accessWrite
			}
			return accessRead
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == cur {
					return accessWrite
				}
			}
			return accessRead
		case *ast.IncDecStmt:
			if p.X == cur {
				return accessWrite
			}
			return accessRead
		case *ast.RangeStmt:
			if p.Key == cur || p.Value == cur {
				return accessWrite
			}
			return accessRead
		default:
			return accessRead
		}
	}
	return accessRead
}

// freshLocals returns the local variables of body whose every assignment is
// a freshly allocated value — &T{…}, T{…}, or new(T) — and whose contents
// therefore cannot be shared with another goroutine through a pre-existing
// alias. lockguard exempts accesses through them: a constructor filling in
// a struct it just allocated needs no lock.
func freshLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	dirty := map[types.Object]bool{}
	mark := func(lhs ast.Expr, rhs ast.Expr) {
		id, isID := ast.Unparen(lhs).(*ast.Ident)
		if !isID {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		if rhs != nil && isFreshAlloc(info, rhs) {
			fresh[obj] = true
		} else {
			dirty[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if len(n.Rhs) == len(n.Lhs) {
					mark(lhs, n.Rhs[i])
				} else {
					mark(lhs, nil)
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					mark(name, n.Values[i])
				}
			}
		case *ast.UnaryExpr:
			// &x escapes x; a fresh local whose address is taken may alias.
			if n.Op == token.AND {
				if id, isID := ast.Unparen(n.X).(*ast.Ident); isID {
					if obj := info.Uses[id]; obj != nil {
						dirty[obj] = true
					}
				}
			}
		}
		return true
	})
	for obj := range dirty {
		delete(fresh, obj)
	}
	return fresh
}

// isFreshAlloc reports whether e evaluates to newly allocated memory.
func isFreshAlloc(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		_, isLit := ast.Unparen(e.X).(*ast.CompositeLit)
		return isLit
	case *ast.CallExpr:
		id, isID := ast.Unparen(e.Fun).(*ast.Ident)
		if !isID || id.Name != "new" {
			return false
		}
		obj := info.Uses[id]
		return obj != nil && obj.Parent() == types.Universe
	}
	return false
}
