// Package cfg constructs per-function control-flow graphs from the
// checked AST.
//
// A Graph is a list of basic blocks connected by directed edges: one
// block per straight-line run of evaluation steps, with edges for
// if/while/do-while/for/switch, the short-circuit operators `&&`/`||`,
// the ternary `?:`, and return/break/continue. Block numbering is
// deterministic: blocks are numbered in creation order (a depth-first
// walk of the function body), the entry block is always B0, and the
// exit block is always the highest-numbered block — so dumps, golden
// tests, and dataflow results are stable across runs and worker counts.
//
// Each block carries its evaluation steps as a list of AST "atoms" in
// evaluation order: expression nodes (operands before operators,
// assignment right-hand side before the target), local declarations,
// constructor-initializer entries, and return markers. Literals,
// `this`, and parentheses carry no evaluation effect and are omitted.
// The atom list is what the dataflow layer (internal/dataflow,
// internal/lint) folds gen/kill facts over. A graph holds all its atoms
// in one slab (Graph.Atoms), block after block, and each block's list is
// a window of it.
package cfg

import (
	"deadmembers/internal/ast"
	"deadmembers/internal/token"
	"deadmembers/internal/types"
)

// Block is one basic block.
type Block struct {
	// ID is the deterministic block number: dense, creation-ordered,
	// entry first and exit last.
	ID int

	// Label names the block's syntactic role ("entry", "if.then",
	// "while.head", ...) for dumps; it carries no semantics.
	Label string

	// Nodes are the evaluation steps of the block, in evaluation order:
	// Graph.Atoms[Start : Start+len(Nodes)].
	Nodes []ast.Node
	Start int

	// Succs and Preds are the control-flow edges. Successor order is
	// deterministic and meaningful for branches: the first successor is
	// the "taken" path (then-branch, loop body, `&&` right-hand side).
	Succs []*Block
	Preds []*Block

	// Reachable reports whether the block can be reached from the entry
	// block. Code after a return/break/continue builds unreachable
	// blocks; analyses skip them when reporting.
	Reachable bool
}

// Graph is the control-flow graph of one function.
type Graph struct {
	Fn     *types.Func
	Blocks []*Block // Blocks[i].ID == i
	Entry  *Block
	Exit   *Block

	// Atoms holds every block's atoms, in creation order: each block
	// gathers its atoms in one uninterrupted run while the builder
	// appends to it, so its Nodes are one window of this slab.
	Atoms []ast.Node
}

// Build constructs the CFG of fn, or nil when fn has no body (library
// methods, pure-virtual declarations, builtins).
//
// For constructors, the member-initializer list is lowered into the
// entry block ahead of the body: each initializer contributes its
// argument expressions followed by the *ast.CtorInit entry itself,
// which analyses treat as the store to the named member.
func Build(fn *types.Func) *Graph {
	if fn == nil || (fn.Body == nil && len(fn.Inits) == 0) {
		return nil
	}
	// Most numbered nodes of the body become atoms, and type expressions
	// and literals leave room for the declarations and returns, so the
	// node count sizes the slab.
	b := &builder{atoms: make([]ast.Node, 0, max(fn.NodeHi-fn.NodeLo+1, 0)+len(fn.Inits))}
	entry := b.newBlock("entry")
	b.exit = &Block{Label: "exit"}
	b.cur = entry

	for i := range fn.Inits {
		init := &fn.Inits[i]
		for _, arg := range init.Args {
			b.expr(arg)
		}
		b.atom(init)
	}
	if fn.Body != nil {
		b.stmt(fn.Body)
	}
	if b.cur != nil {
		b.edge(b.cur, b.exit)
	}

	b.blocks = append(b.blocks, b.exit)
	g := &Graph{Fn: fn, Blocks: b.blocks, Entry: entry, Exit: b.exit, Atoms: b.atoms}
	for i, blk := range g.Blocks {
		blk.ID = i
		if n := len(blk.Nodes); n > 0 {
			blk.Nodes = g.Atoms[blk.Start : blk.Start+n : blk.Start+n]
		}
	}
	markReachable(entry)
	return g
}

// markReachable flags every block reachable from entry.
func markReachable(entry *Block) {
	stack := []*Block{entry}
	entry.Reachable = true
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if !s.Reachable {
				s.Reachable = true
				stack = append(stack, s)
			}
		}
	}
}

type builder struct {
	blocks    []*Block
	atoms     []ast.Node
	exit      *Block
	cur       *Block // nil after a terminator (return/break/continue)
	breaks    []*Block
	continues []*Block
}

func (b *builder) newBlock(label string) *Block {
	blk := &Block{Label: label}
	b.blocks = append(b.blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// ensure gives statements after a terminator a block of their own; it
// has no predecessors, so the code in it is marked unreachable.
func (b *builder) ensure() {
	if b.cur == nil {
		b.cur = b.newBlock("dead")
	}
}

// atom appends n to the current block. A block's atoms must form one
// run of the slab; Build windows the slab once the graph is complete.
func (b *builder) atom(n ast.Node) {
	blk := b.cur
	switch {
	case blk.Nodes == nil:
		blk.Start = len(b.atoms)
	case blk.Start+len(blk.Nodes) != len(b.atoms):
		panic("cfg: " + blk.Label + " block gathers atoms in two runs")
	}
	b.atoms = append(b.atoms, n)
	blk.Nodes = b.atoms[blk.Start:len(b.atoms)]
}

// ---------------------------------------------------------------------------
// Statements

func (b *builder) stmt(s ast.Stmt) {
	if s == nil {
		return
	}
	b.ensure()
	switch x := s.(type) {
	case *ast.BlockStmt:
		for _, st := range x.Stmts {
			b.stmt(st)
		}

	case *ast.DeclStmt:
		if x.Var.Init != nil {
			b.expr(x.Var.Init)
		}
		for _, arg := range x.Var.CtorArgs {
			b.expr(arg)
		}
		b.atom(x.Var)

	case *ast.ExprStmt:
		b.expr(x.X)

	case *ast.IfStmt:
		b.expr(x.Cond)
		head := b.cur
		then := b.newBlock("if.then")
		b.edge(head, then)
		b.cur = then
		b.stmt(x.Then)
		thenEnd := b.cur
		var elseEnd *Block
		hasElse := x.Else != nil
		if hasElse {
			els := b.newBlock("if.else")
			b.edge(head, els)
			b.cur = els
			b.stmt(x.Else)
			elseEnd = b.cur
		}
		join := b.newBlock("if.end")
		if thenEnd != nil {
			b.edge(thenEnd, join)
		}
		if hasElse {
			if elseEnd != nil {
				b.edge(elseEnd, join)
			}
		} else {
			b.edge(head, join)
		}
		b.cur = join

	case *ast.WhileStmt:
		head := b.newBlock("while.head")
		b.edge(b.cur, head)
		b.cur = head
		b.expr(x.Cond)
		condEnd := b.cur
		body := b.newBlock("while.body")
		b.edge(condEnd, body)
		done := b.newBlock("while.end")
		b.edge(condEnd, done)
		b.pushLoop(done, head)
		b.cur = body
		b.stmt(x.Body)
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.popLoop()
		b.cur = done

	case *ast.DoWhileStmt:
		body := b.newBlock("do.body")
		b.edge(b.cur, body)
		cond := b.newBlock("do.cond")
		done := b.newBlock("do.end")
		b.pushLoop(done, cond)
		b.cur = body
		b.stmt(x.Body)
		if b.cur != nil {
			b.edge(b.cur, cond)
		}
		b.popLoop()
		b.cur = cond
		b.expr(x.Cond)
		b.edge(b.cur, body)
		b.edge(b.cur, done)
		b.cur = done

	case *ast.ForStmt:
		if x.Init != nil {
			b.stmt(x.Init)
		}
		head := b.newBlock("for.head")
		b.edge(b.cur, head)
		b.cur = head
		if x.Cond != nil {
			b.expr(x.Cond)
		}
		condEnd := b.cur
		body := b.newBlock("for.body")
		b.edge(condEnd, body)
		done := b.newBlock("for.end")
		if x.Cond != nil {
			b.edge(condEnd, done)
		}
		cont := head
		var post *Block
		if x.Post != nil {
			post = b.newBlock("for.post")
			cont = post
		}
		b.pushLoop(done, cont)
		b.cur = body
		b.stmt(x.Body)
		if b.cur != nil {
			b.edge(b.cur, cont)
		}
		b.popLoop()
		if post != nil {
			b.cur = post
			b.expr(x.Post)
			b.edge(b.cur, head)
		}
		b.cur = done

	case *ast.SwitchStmt:
		b.expr(x.X)
		// Case values are evaluated while dispatching; they live in the
		// dispatch block (they can in principle split it, so re-read cur).
		for i := range x.Cases {
			for _, v := range x.Cases[i].Values {
				b.expr(v)
			}
		}
		dispatch := b.cur
		done := b.newBlock("switch.end")
		hasDefault := false
		b.breaks = append(b.breaks, done)
		for i := range x.Cases {
			label := "case"
			if x.Cases[i].Values == nil {
				label = "default"
				hasDefault = true
			}
			caseB := b.newBlock(label)
			b.edge(dispatch, caseB)
			b.cur = caseB
			for _, st := range x.Cases[i].Body {
				b.stmt(st)
			}
			// MC++ cases do not fall through: falling off the end exits
			// the switch.
			if b.cur != nil {
				b.edge(b.cur, done)
			}
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		if !hasDefault {
			b.edge(dispatch, done)
		}
		b.cur = done

	case *ast.ReturnStmt:
		if x.X != nil {
			b.expr(x.X)
		}
		b.atom(x)
		b.edge(b.cur, b.exit)
		b.cur = nil

	case *ast.BreakStmt:
		// A stray break outside any loop/switch is rejected by sema;
		// degrade to an exit edge if one slips through.
		if n := len(b.breaks); n > 0 {
			b.edge(b.cur, b.breaks[n-1])
		} else {
			b.edge(b.cur, b.exit)
		}
		b.cur = nil

	case *ast.ContinueStmt:
		if n := len(b.continues); n > 0 {
			b.edge(b.cur, b.continues[n-1])
		} else {
			b.edge(b.cur, b.exit)
		}
		b.cur = nil
	}
}

func (b *builder) pushLoop(brk, cont *Block) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

// ---------------------------------------------------------------------------
// Expressions
//
// expr appends e's evaluation steps to the current block in evaluation
// order (operands first), splitting blocks at `&&`, `||`, and `?:`.
// Expressions never terminate a block, so cur stays non-nil throughout.

func (b *builder) expr(e ast.Expr) {
	switch x := e.(type) {
	case nil:
		return
	case *ast.Paren:
		b.expr(x.X)

	case *ast.IntLit, *ast.FloatLit, *ast.CharLit, *ast.BoolLit,
		*ast.StringLit, *ast.NullLit, *ast.ThisExpr:
		// No evaluation effect worth tracking.

	case *ast.Ident, *ast.QualifiedIdent:
		b.atom(x)

	case *ast.Member:
		b.expr(x.X)
		b.atom(x)

	case *ast.MemberPtrDeref:
		b.expr(x.X)
		b.expr(x.Ptr)
		b.atom(x)

	case *ast.Index:
		b.expr(x.X)
		b.expr(x.I)
		b.atom(x)

	case *ast.Unary:
		if x.Op == token.Amp {
			if _, ok := ast.Unparen(x.X).(*ast.QualifiedIdent); ok {
				// &C::m forms a pointer-to-member constant; the operand
				// is not evaluated as an lvalue chain.
				b.atom(x)
				return
			}
		}
		b.expr(x.X)
		b.atom(x)

	case *ast.Postfix:
		b.expr(x.X)
		b.atom(x)

	case *ast.Binary:
		if x.Op == token.AmpAmp || x.Op == token.PipePipe {
			label := "and"
			if x.Op == token.PipePipe {
				label = "or"
			}
			b.expr(x.X)
			head := b.cur
			rhs := b.newBlock(label + ".rhs")
			b.edge(head, rhs)
			b.cur = rhs
			b.expr(x.Y)
			join := b.newBlock(label + ".end")
			b.edge(b.cur, join)
			b.edge(head, join) // the short-circuit edge
			b.cur = join
			return
		}
		b.expr(x.X)
		b.expr(x.Y)
		b.atom(x)

	case *ast.Assign:
		// The stored value is computed before the store takes effect.
		b.expr(x.RHS)
		b.expr(x.LHS)
		b.atom(x)

	case *ast.Cond:
		b.expr(x.C)
		head := b.cur
		then := b.newBlock("cond.then")
		b.edge(head, then)
		b.cur = then
		b.expr(x.Then)
		thenEnd := b.cur
		els := b.newBlock("cond.else")
		b.edge(head, els)
		b.cur = els
		b.expr(x.Else)
		elseEnd := b.cur
		join := b.newBlock("cond.end")
		b.edge(thenEnd, join)
		b.edge(elseEnd, join)
		b.cur = join

	case *ast.Call:
		// The callee name is not a value; a method call evaluates its
		// receiver expression, a free call nothing.
		switch fun := ast.Unparen(x.Fun).(type) {
		case *ast.Member:
			b.expr(fun.X)
		case *ast.Ident:
			// Free function or implicit this-> method: no receiver step.
		default:
			b.expr(x.Fun)
		}
		for _, arg := range x.Args {
			b.expr(arg)
		}
		b.atom(x)

	case *ast.Cast:
		b.expr(x.X)
		b.atom(x)

	case *ast.New:
		for _, arg := range x.Args {
			b.expr(arg)
		}
		if x.Len != nil {
			b.expr(x.Len)
		}
		b.atom(x)

	case *ast.Delete:
		b.expr(x.X)
		b.atom(x)

	case *ast.Sizeof:
		// sizeof does not evaluate its operand.
		b.atom(x)
	}
}
