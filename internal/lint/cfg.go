package lint

import (
	"go/ast"
	"go/types"
)

// This file is the intraprocedural control-flow layer under the concurrency
// analyzers (lockguard, chanclose): a CFG builder over go/ast function
// bodies. Blocks hold statements and the
// expressions that execute with them, in approximate evaluation order;
// edges follow if/for/range/switch/select/branch/label/goto control flow.
// Statements that cannot complete normally — return, panic, os.Exit and
// friends — end their block without a successor (return routes to the
// virtual exit), so a must-dataflow over the graph reasons only about paths
// that actually reach the next program point.

// cfgBlock is one straight-line run of nodes. nodes hold the statements
// (and loose expressions such as loop conditions) executed in order; succs
// and preds are the control-flow edges.
type cfgBlock struct {
	index int
	nodes []ast.Node
	succs []*cfgBlock
	preds []*cfgBlock
}

// cfgGraph is one function body's control-flow graph. blocks[0] is the
// entry; exit is the virtual normal-return block (empty, no successors).
type cfgGraph struct {
	blocks []*cfgBlock
	exit   *cfgBlock
}

// entry returns the function's entry block.
func (g *cfgGraph) entry() *cfgBlock { return g.blocks[0] }

// cfgBuilder carries the construction state: the block under construction
// and the targets break/continue/goto resolve to.
type cfgBuilder struct {
	g    *cfgGraph
	info *types.Info
	cur  *cfgBlock

	// loops and switches stack their break (and for loops, continue)
	// targets; the label field is non-empty for labeled statements.
	breaks    []branchTarget
	continues []branchTarget
	// labelBlocks maps a label to the block its labeled statement starts,
	// for goto resolution; unresolved forward gotos are patched at the end.
	labelBlocks  map[string]*cfgBlock
	pendingGotos []pendingGoto
}

// branchTarget is one entry of the break/continue stacks.
type branchTarget struct {
	label string
	block *cfgBlock
}

// pendingGoto is a goto seen before its label.
type pendingGoto struct {
	from  *cfgBlock
	label string
}

// buildCFG constructs the control-flow graph of one function body. info
// resolves callees so calls that never return (panic, os.Exit, …) can
// terminate their block.
func buildCFG(body *ast.BlockStmt, info *types.Info) *cfgGraph {
	b := &cfgBuilder{
		g:           &cfgGraph{},
		info:        info,
		labelBlocks: map[string]*cfgBlock{},
	}
	entry := b.newBlock()
	b.g.exit = b.newBlock()
	b.cur = entry
	b.stmtList(body.List)
	b.edge(b.cur, b.g.exit)
	for _, pg := range b.pendingGotos {
		if target, ok := b.labelBlocks[pg.label]; ok {
			b.edge(pg.from, target)
		}
	}
	return b.g
}

// newBlock appends a fresh empty block to the graph.
func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

// edge records from → to.
func (b *cfgBuilder) edge(from, to *cfgBlock) {
	from.succs = append(from.succs, to)
	to.preds = append(to.preds, from)
}

// add appends a node to the current block.
func (b *cfgBuilder) add(n ast.Node) {
	if n != nil {
		b.cur.nodes = append(b.cur.nodes, n)
	}
}

// terminate ends the current path: subsequent statements land in a fresh
// block with no predecessors (unreachable until something jumps to it).
func (b *cfgBuilder) terminate() {
	b.cur = b.newBlock()
}

// stmtList builds each statement in order.
func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt builds one statement. label is the enclosing LabeledStmt's name, for
// labeled loops and switches ("" when unlabeled).
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		// The labeled statement begins a new block so goto can target it.
		target := b.newBlock()
		b.edge(b.cur, target)
		b.cur = target
		b.labelBlocks[s.Label.Name] = target
		b.stmt(s.Stmt, s.Label.Name)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, label)
	case *ast.RangeStmt:
		b.rangeStmt(s, label)
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s.Tag)
		b.switchBody(s.Body, label)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s.Assign)
		b.switchBody(s.Body, label)
	case *ast.SelectStmt:
		b.selectStmt(s, label)
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.exit)
		b.terminate()
	case *ast.BranchStmt:
		b.branchStmt(s)
	default:
		// Simple statements: assignments, expression statements, sends,
		// inc/dec, declarations, defer, go, empty.
		b.add(s)
		if es, ok := s.(*ast.ExprStmt); ok {
			if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok && isNoReturnCall(b.info, call) {
				b.terminate()
			}
		}
	}
}

// ifStmt: cond in the current block, then/else arms, join block.
func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init, "")
	}
	b.add(s.Cond)
	head := b.cur
	after := b.newBlock()

	thenBlk := b.newBlock()
	b.edge(head, thenBlk)
	b.cur = thenBlk
	b.stmtList(s.Body.List)
	b.edge(b.cur, after)

	if s.Else != nil {
		elseBlk := b.newBlock()
		b.edge(head, elseBlk)
		b.cur = elseBlk
		b.stmt(s.Else, "")
		b.edge(b.cur, after)
	} else {
		b.edge(head, after)
	}
	b.cur = after
}

// forStmt: init → head(cond) → body → post → head, with head → after.
func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init, "")
	}
	head := b.newBlock()
	b.edge(b.cur, head)
	b.cur = head
	b.add(s.Cond)
	after := b.newBlock()
	post := b.newBlock()
	if s.Cond != nil {
		b.edge(head, after)
	}

	body := b.newBlock()
	b.edge(head, body)
	b.cur = body
	b.pushLoop(label, after, post)
	b.stmtList(s.Body.List)
	b.popLoop()
	b.edge(b.cur, post)
	b.cur = post
	if s.Post != nil {
		b.stmt(s.Post, "")
	}
	b.edge(b.cur, head)
	b.cur = after
}

// rangeStmt: X in the current block, head → body → head, head → after.
func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	b.add(s.X)
	head := b.newBlock()
	b.edge(b.cur, head)
	after := b.newBlock()
	b.edge(head, after)

	body := b.newBlock()
	b.edge(head, body)
	b.cur = body
	b.pushLoop(label, after, head)
	b.stmtList(s.Body.List)
	b.popLoop()
	b.edge(b.cur, head)
	b.cur = after
}

// switchBody builds the case clauses of a switch/type switch. Every clause
// is a successor of the current block; fallthrough chains to the next
// clause; a missing default adds a direct edge to the join.
func (b *cfgBuilder) switchBody(body *ast.BlockStmt, label string) {
	head := b.cur
	after := b.newBlock()
	b.breaks = append(b.breaks, branchTarget{label: label, block: after})

	var clauseBlocks []*cfgBlock
	hasDefault := false
	for range body.List {
		clauseBlocks = append(clauseBlocks, b.newBlock())
	}
	for i, cs := range body.List {
		clause := cs.(*ast.CaseClause)
		if clause.List == nil {
			hasDefault = true
		}
		b.edge(head, clauseBlocks[i])
		b.cur = clauseBlocks[i]
		for _, e := range clause.List {
			b.add(e)
		}
		fallsThrough := false
		for _, st := range clause.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				fallsThrough = true
				continue
			}
			b.stmt(st, "")
		}
		if fallsThrough && i+1 < len(clauseBlocks) {
			b.edge(b.cur, clauseBlocks[i+1])
		} else {
			b.edge(b.cur, after)
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

// selectStmt: every comm clause is a successor; each rejoins after.
func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	after := b.newBlock()
	b.breaks = append(b.breaks, branchTarget{label: label, block: after})
	for _, cs := range s.Body.List {
		clause := cs.(*ast.CommClause)
		blk := b.newBlock()
		b.edge(head, blk)
		b.cur = blk
		if clause.Comm != nil {
			b.stmt(clause.Comm, "")
		}
		b.stmtList(clause.Body)
		b.edge(b.cur, after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

// branchStmt resolves break/continue/goto to their targets. fallthrough is
// handled by switchBody and never reaches here.
func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		if t := findTarget(b.breaks, label); t != nil {
			b.edge(b.cur, t)
		}
	case "continue":
		if t := findTarget(b.continues, label); t != nil {
			b.edge(b.cur, t)
		}
	case "goto":
		if t, ok := b.labelBlocks[label]; ok {
			b.edge(b.cur, t)
		} else {
			b.pendingGotos = append(b.pendingGotos, pendingGoto{from: b.cur, label: label})
		}
	}
	b.terminate()
}

// pushLoop/popLoop maintain the break/continue stacks around a loop body.
func (b *cfgBuilder) pushLoop(label string, brk, cont *cfgBlock) {
	b.breaks = append(b.breaks, branchTarget{label: label, block: brk})
	b.continues = append(b.continues, branchTarget{label: label, block: cont})
}

func (b *cfgBuilder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

// findTarget picks the innermost target, or the labeled one.
func findTarget(stack []branchTarget, label string) *cfgBlock {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

// noReturnFuncs are package-level functions that never return, keyed by
// package path then name.
var noReturnFuncs = map[string]map[string]bool{
	"os":      {"Exit": true},
	"runtime": {"Goexit": true},
	"log":     {"Fatal": true, "Fatalf": true, "Fatalln": true, "Panic": true, "Panicf": true, "Panicln": true},
}

// isNoReturnCall reports whether call can never complete normally: the
// builtin panic, or one of the well-known terminating functions.
func isNoReturnCall(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		if obj := info.Uses[id]; obj != nil && obj.Parent() == types.Universe {
			return true
		}
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	names := noReturnFuncs[fn.Pkg().Path()]
	return names != nil && names[fn.Name()]
}
