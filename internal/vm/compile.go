package vm

import (
	"fmt"
	"slices"

	"deadmembers/internal/ast"
	"deadmembers/internal/hierarchy"
	"deadmembers/internal/interp"
	"deadmembers/internal/source"
	"deadmembers/internal/token"
	"deadmembers/internal/types"
)

// errUnsupported aborts compilation of a function that uses a construct
// the VM does not model; the caller falls back to the tree-walker.
var errUnsupported = fmt.Errorf("vm: unsupported construct")

// compiler translates function bodies to bytecode. An Executor keeps one
// and compiles every function of its run with it: code, consts and refs
// are emit buffers that each compile starts empty and hands to its chunk
// as exact-length copies, and isTarget and remap are the peephole
// passes' scratch.
type compiler struct {
	info *types.Info
	h    *hierarchy.Graph
	fn   *types.Func

	code   []instr
	consts []interp.Value
	refs   []ref
	slotOf map[*types.Var]int

	depth int // open destructor scopes
	ctxs  []ctrlCtx

	isTarget []bool
	remap    []int32
}

// ctrlCtx is an open break/continue target (a loop or a switch).
type ctrlCtx struct {
	isLoop     bool
	breakDepth int // scope depth at the break landing point
	contDepth  int
	breakSites []int
	contSites  []int
}

// compile translates fn's body to bytecode, or returns nil when any
// construct is unsupported (whole-function fallback: partial compilation
// could reorder side effects, so it is all-or-nothing). Any panic during
// compilation also falls back — the tree-walker is always a correct
// implementation, so a compiler gap degrades performance, never
// semantics.
func (c *compiler) compile(fn *types.Func) (ch *chunk) {
	defer func() {
		if r := recover(); r != nil {
			ch = nil
		}
	}()
	c.fn, c.depth = fn, 0
	c.code, c.consts, c.refs, c.ctxs = c.code[:0], c.consts[:0], c.refs[:0], c.ctxs[:0]
	clear(c.slotOf)
	for i, p := range fn.Params {
		c.slotOf[p] = i
	}
	c.scanDecls(fn.Body)
	c.stmt(fn.Body)
	c.emit(instr{op: opReturnVoid})
	// The peephole rewrites c.code in place; the chunk keeps exact-length
	// copies, not the emit buffers, for the rest of the run.
	ch = &chunk{
		code:   slices.Clone(c.peephole(c.code)),
		consts: slices.Clone(c.consts),
		refs:   slices.Clone(c.refs),
		vars:   make([]*types.Var, len(c.slotOf)),
	}
	for v, slot := range c.slotOf {
		ch.vars[slot] = v
	}
	return ch
}

// scanDecls pre-assigns a frame slot to every local declaration so
// identifier uses can compile to slot accesses regardless of where the
// declaration sits relative to the use (a use before the declaration
// executes finds a nil slot, reproducing the tree-walker's
// not-in-scope failure).
func (c *compiler) scanDecls(s ast.Stmt) {
	switch x := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range x.Stmts {
			c.scanDecls(st)
		}
	case *ast.DeclStmt:
		v := c.info.VarObjects[x.Var]
		if v == nil {
			panic(errUnsupported)
		}
		if _, dup := c.slotOf[v]; !dup {
			c.slotOf[v] = len(c.slotOf)
		}
	case *ast.IfStmt:
		c.scanDecls(x.Then)
		c.scanDecls(x.Else)
	case *ast.WhileStmt:
		c.scanDecls(x.Body)
	case *ast.DoWhileStmt:
		c.scanDecls(x.Body)
	case *ast.ForStmt:
		c.scanDecls(x.Init)
		c.scanDecls(x.Body)
	case *ast.SwitchStmt:
		for i := range x.Cases {
			for _, st := range x.Cases[i].Body {
				c.scanDecls(st)
			}
		}
	}
}

func (c *compiler) emit(ins instr) int {
	c.code = append(c.code, ins)
	return len(c.code) - 1
}

// emitRef emits ins with r as its side-table entry.
func (c *compiler) emitRef(ins instr, r ref) int {
	ins.r = int32(len(c.refs))
	c.refs = append(c.refs, r)
	return c.emit(ins)
}

func (c *compiler) constant(v interp.Value) int {
	c.consts = append(c.consts, v)
	return len(c.consts) - 1
}

func (c *compiler) emitConst(v interp.Value) {
	c.emit(instr{op: opConst, a: int32(c.constant(v))})
}

// here is the label for the next instruction to be emitted.
func (c *compiler) here() int { return len(c.code) }

func (c *compiler) patch(site, target int) { c.code[site].a = int32(target) }

// failAt compiles a deterministic runtime failure with a preformatted
// message, matching the tree-walker's error text and position.
func (c *compiler) failAt(pos source.Pos, format string, args ...interface{}) {
	c.emitRef(instr{op: opFail, pos: pos}, ref{str: fmt.Sprintf(format, args...)})
}

// ---------------------------------------------------------------------------
// Statements

func (c *compiler) stmt(s ast.Stmt) {
	c.emit(instr{op: opStep, pos: s.Pos()})
	switch x := s.(type) {
	case *ast.BlockStmt:
		c.emit(instr{op: opScopePush})
		c.depth++
		for _, st := range x.Stmts {
			c.stmt(st)
		}
		c.emit(instr{op: opScopePop})
		c.depth--

	case *ast.DeclStmt:
		c.decl(x.Var)

	case *ast.ExprStmt:
		if !c.stmtExpr(x.X) {
			c.expr(x.X)
			c.emit(instr{op: opPop})
		}

	case *ast.IfStmt:
		c.expr(x.Cond)
		jf := c.emit(instr{op: opJF})
		c.scoped(x.Then)
		if x.Else != nil {
			jend := c.emit(instr{op: opJump})
			c.patch(jf, c.here())
			c.scoped(x.Else)
			c.patch(jend, c.here())
		} else {
			c.patch(jf, c.here())
		}

	case *ast.WhileStmt:
		ctx := c.pushCtx(true, c.depth, c.depth)
		cond := c.here()
		c.expr(x.Cond)
		jf := c.emit(instr{op: opJF})
		c.scoped(x.Body)
		c.emit(instr{op: opJump, a: int32(cond)})
		end := c.here()
		c.patch(jf, end)
		c.popCtx(ctx, end, cond)

	case *ast.DoWhileStmt:
		ctx := c.pushCtx(true, c.depth, c.depth)
		body := c.here()
		c.scoped(x.Body)
		cond := c.here()
		c.expr(x.Cond)
		c.emit(instr{op: opJT, a: int32(body)})
		end := c.here()
		c.popCtx(ctx, end, cond)

	case *ast.ForStmt:
		// The for statement owns a scope holding the init declaration; it
		// closes after the loop ends, which is also where break lands.
		c.emit(instr{op: opScopePush})
		c.depth++
		if x.Init != nil {
			c.stmt(x.Init)
		}
		ctx := c.pushCtx(true, c.depth, c.depth)
		cond := c.here()
		var jf int = -1
		if x.Cond != nil {
			c.expr(x.Cond)
			jf = c.emit(instr{op: opJF})
		}
		c.scoped(x.Body)
		post := c.here()
		if x.Post != nil && !c.stmtExpr(x.Post) {
			c.expr(x.Post)
			c.emit(instr{op: opPop})
		}
		c.emit(instr{op: opJump, a: int32(cond)})
		end := c.here()
		if jf >= 0 {
			c.patch(jf, end)
		}
		c.emit(instr{op: opScopePop})
		c.depth--
		c.popCtx(ctx, end, post)

	case *ast.SwitchStmt:
		c.switchStmt(x)

	case *ast.ReturnStmt:
		if x.X != nil {
			c.expr(x.X)
			c.emitRef(instr{op: opReturnValue}, ref{typ: c.fn.Return})
		} else {
			c.emit(instr{op: opReturnVoid})
		}

	case *ast.BreakStmt:
		// sema rejects break outside a loop or switch, and continue
		// outside a loop, so the target context always exists.
		ctx := &c.ctxs[len(c.ctxs)-1]
		c.emitPopN(c.depth - ctx.breakDepth)
		ctx.breakSites = append(ctx.breakSites, c.emit(instr{op: opJump}))

	case *ast.ContinueStmt:
		ctx := c.loopCtx()
		c.emitPopN(c.depth - ctx.contDepth)
		ctx.contSites = append(ctx.contSites, c.emit(instr{op: opJump}))

	default:
		panic(errUnsupported)
	}
}

// scoped compiles s inside its own destructor scope (the tree-walker's
// execScoped).
func (c *compiler) scoped(s ast.Stmt) {
	c.emit(instr{op: opScopePush})
	c.depth++
	c.stmt(s)
	c.emit(instr{op: opScopePop})
	c.depth--
}

func (c *compiler) emitPopN(n int) {
	if n > 0 {
		c.emit(instr{op: opScopePopN, a: int32(n)})
	}
}

func (c *compiler) pushCtx(isLoop bool, breakDepth, contDepth int) int {
	c.ctxs = append(c.ctxs, ctrlCtx{isLoop: isLoop, breakDepth: breakDepth, contDepth: contDepth})
	return len(c.ctxs) - 1
}

func (c *compiler) popCtx(i, breakTarget, contTarget int) {
	ctx := c.ctxs[i]
	c.ctxs = c.ctxs[:i]
	for _, s := range ctx.breakSites {
		c.patch(s, breakTarget)
	}
	for _, s := range ctx.contSites {
		c.patch(s, contTarget)
	}
}

func (c *compiler) loopCtx() *ctrlCtx {
	for i := len(c.ctxs) - 1; i >= 0; i-- {
		if c.ctxs[i].isLoop {
			return &c.ctxs[i]
		}
	}
	return nil
}

// switchStmt compiles the no-fallthrough MC++ switch: the scrutinee is
// kept on the stack while non-default case values are tested in source
// order (each opCaseEq pops its case value and compares it with the
// scrutinee in place); the first match pops the scrutinee and enters
// that case's body, and a miss pops it before the default or the end,
// so the stack is balanced on every path.
func (c *compiler) switchStmt(x *ast.SwitchStmt) {
	c.expr(x.X)
	ctxIdx := c.pushCtx(false, c.depth, c.depth)

	caseSites := make([][]int, len(x.Cases))
	deflt := -1
	for i := range x.Cases {
		cs := &x.Cases[i]
		if cs.Values == nil {
			deflt = i
			continue
		}
		for _, ve := range cs.Values {
			c.expr(ve)
			caseSites[i] = append(caseSites[i], c.emit(instr{op: opCaseEq}))
		}
	}
	c.emit(instr{op: opPop}) // no case matched: drop the scrutinee
	jmiss := c.emit(instr{op: opJump})

	var endSites []int
	for i := range x.Cases {
		label := c.here()
		for _, s := range caseSites[i] {
			c.patch(s, label)
		}
		if i == deflt {
			c.patch(jmiss, label)
		}
		c.emit(instr{op: opScopePush})
		c.depth++
		for _, st := range x.Cases[i].Body {
			c.stmt(st)
		}
		c.emit(instr{op: opScopePop})
		c.depth--
		endSites = append(endSites, c.emit(instr{op: opJump}))
	}

	end := c.here()
	if deflt < 0 {
		c.patch(jmiss, end)
	}
	for _, s := range endSites {
		c.patch(s, end)
	}
	c.popCtx(ctxIdx, end, -1) // contSites stay with the enclosing loop ctx
}

// decl compiles a local variable declaration, slot-for-slot mirroring
// the tree-walker's execDecl ordering (cell registration, allocation,
// initializer evaluation, construction).
func (c *compiler) decl(d *ast.VarDecl) {
	v := c.info.VarObjects[d]
	t := c.info.VarTypes[d]
	slot, ok := c.slotOf[v]
	if !ok || t == nil {
		panic(errUnsupported)
	}

	a := int32(slot)
	if cls := types.IsClass(t); cls != nil {
		c.emit(instr{op: opDeclCell, a: a})
		if d.Init != nil {
			c.expr(d.Init)
			c.emitRef(instr{op: opDeclCopyInit, a: a}, ref{cls: cls})
			return
		}
		c.emitRef(instr{op: opNewObj}, ref{cls: cls})
		for _, arg := range d.CtorArgs {
			c.expr(arg)
		}
		c.emitRef(instr{op: opDeclConstruct, a: a, b: int32(len(d.CtorArgs))}, ref{fn: c.info.VarCtors[d]})
		return
	}

	if arr, isArr := t.(*types.Array); isArr {
		c.emitRef(instr{op: opDeclArray, a: a}, ref{typ: arr})
		return
	}

	// A scalar or pointer local whose address is never taken cannot
	// outlive its activation, so it lives in a cell the activation owns.
	op := opDeclLocal
	if v.AddrTaken {
		op = opDeclZero
	}
	c.emitRef(instr{op: op, a: a}, ref{typ: t})
	var init ast.Expr
	if d.Init != nil {
		init = d.Init
	} else if len(d.CtorArgs) == 1 {
		init = d.CtorArgs[0]
	}
	if init != nil {
		c.expr(init)
		c.emitRef(instr{op: opDeclStore, a: a}, ref{typ: t})
	}
}

// ---------------------------------------------------------------------------
// Expressions

// expr compiles e; at run time it leaves exactly one value on the stack.
func (c *compiler) expr(e ast.Expr) {
	switch x := e.(type) {
	case *ast.Paren:
		c.expr(x.X)
	case *ast.IntLit:
		c.emitConst(interp.IntValue(x.Value))
	case *ast.FloatLit:
		c.emitConst(interp.DoubleValue(x.Value))
	case *ast.CharLit:
		c.emitConst(interp.CharValue(x.Value))
	case *ast.BoolLit:
		c.emitConst(interp.BoolValue(x.Value))
	case *ast.NullLit:
		c.emitConst(interp.NullValue())
	case *ast.StringLit:
		c.emitRef(instr{op: opStr}, ref{str: x.Value})
	case *ast.ThisExpr:
		c.emit(instr{op: opThis, pos: x.Pos()})
	case *ast.Ident:
		if fld := c.info.FieldOf(x); fld != nil {
			c.emitRef(instr{op: opLoadField, pos: x.Pos()}, ref{fld: fld})
			return
		}
		c.varAccess(x, opLoadSlot, opLoadGlobal)
	case *ast.QualifiedIdent:
		c.failAt(x.Pos(), "qualified identifier %s::%s used as value", x.Class, x.Name)
	case *ast.Unary:
		c.unary(x)
	case *ast.Postfix:
		c.lvalue(x.X)
		var inc int32
		if x.Op == token.Inc {
			inc = 1
		}
		c.emit(instr{op: opPostfix, a: inc, pos: x.Pos()})
	case *ast.Binary:
		c.binary(x)
	case *ast.Assign:
		c.assign(x)
	case *ast.Cond:
		c.expr(x.C)
		jf := c.emit(instr{op: opJF})
		c.expr(x.Then)
		jend := c.emit(instr{op: opJump})
		c.patch(jf, c.here())
		c.expr(x.Else)
		c.patch(jend, c.here())
	case *ast.Member:
		c.member(x, true)
	case *ast.MemberPtrDeref:
		c.memberPtr(x, true)
	case *ast.Index:
		c.expr(x.X)
		c.expr(x.I)
		c.emit(instr{op: opIndexLoad, pos: x.Pos()})
	case *ast.Call:
		c.call(x)
	case *ast.Cast:
		c.expr(x.X)
		c.emitRef(instr{op: opConvert}, ref{typ: c.info.TypeExprOf(x.Type)})
	case *ast.New:
		c.newExpr(x)
	case *ast.Delete:
		c.expr(x.X)
		var arr int32
		var static *types.Class
		if x.Array {
			arr = 1
		} else {
			static = types.PointeeClass(c.info.TypeOf(x.X))
		}
		c.emitRef(instr{op: opDelete, a: arr, pos: x.Pos()}, ref{cls: static})
	case *ast.Sizeof:
		var t types.Type
		if x.Type != nil {
			t = c.info.TypeExprOf(x.Type)
		} else {
			t = c.info.TypeOf(x.X) // operand is not evaluated
		}
		if t == nil {
			panic(errUnsupported)
		}
		c.emitConst(interp.IntValue(int64(c.h.SizeOf(t))))
	default:
		c.failAt(e.Pos(), "unsupported expression")
	}
}

// varAccess compiles a plain identifier as either a frame-slot or a
// global-cell access, preserving the tree-walker's resolution order and
// failure messages.
func (c *compiler) varAccess(x *ast.Ident, slotOp, globalOp opcode) {
	v := c.info.VarOf(x)
	if v == nil {
		c.failAt(x.Pos(), "unresolved identifier %s", x.Name)
		return
	}
	if slot, ok := c.slotOf[v]; ok {
		c.emit(instr{op: slotOp, a: int32(slot), pos: x.Pos()})
		return
	}
	c.emitRef(instr{op: globalOp, pos: x.Pos()}, ref{vr: v})
}

func (c *compiler) unary(x *ast.Unary) {
	switch x.Op {
	case token.Amp:
		if qi, ok := ast.Unparen(x.X).(*ast.QualifiedIdent); ok {
			fld := c.info.QualFieldRefs[qi]
			if fld == nil {
				c.failAt(x.Pos(), "unresolved pointer-to-member &%s::%s", qi.Class, qi.Name)
				return
			}
			c.emitConst(interp.MemberPtrValue(fld))
			return
		}
		if ix, ok := ast.Unparen(x.X).(*ast.Index); ok {
			// Fast path: a pointer into the array. On a miss the operand
			// is re-evaluated as an lvalue — the tree-walker evaluates
			// base and index twice here, and so do we.
			c.expr(ix.X)
			c.expr(ix.I)
			try := c.emit(instr{op: opAddrIndexTry, pos: x.Pos()})
			c.lvalue(x.X)
			c.emit(instr{op: opAddrOf})
			c.patch(try, c.here())
			return
		}
		c.lvalue(x.X)
		c.emit(instr{op: opAddrOf})
	case token.Star:
		c.expr(x.X)
		c.emit(instr{op: opDerefLoad, pos: x.Pos()})
	case token.Minus:
		c.expr(x.X)
		c.emit(instr{op: opNeg})
	case token.Not:
		c.expr(x.X)
		c.emit(instr{op: opNot})
	case token.Tilde:
		c.expr(x.X)
		c.emit(instr{op: opTilde})
	case token.Inc, token.Dec:
		c.lvalue(x.X)
		var inc int32
		if x.Op == token.Inc {
			inc = 1
		}
		c.emit(instr{op: opPreIncDec, a: inc, pos: x.Pos()})
	default:
		c.failAt(x.Pos(), "unsupported unary operator %s", x.Op)
	}
}

func (c *compiler) binary(x *ast.Binary) {
	switch x.Op {
	case token.AmpAmp:
		c.expr(x.X)
		jf := c.emit(instr{op: opJF})
		c.expr(x.Y)
		c.emit(instr{op: opTruthy})
		jend := c.emit(instr{op: opJump})
		c.patch(jf, c.here())
		c.emitConst(interp.BoolValue(false))
		c.patch(jend, c.here())
	case token.PipePipe:
		c.expr(x.X)
		jt := c.emit(instr{op: opJT})
		c.expr(x.Y)
		c.emit(instr{op: opTruthy})
		jend := c.emit(instr{op: opJump})
		c.patch(jt, c.here())
		c.emitConst(interp.BoolValue(true))
		c.patch(jend, c.here())
	default:
		c.expr(x.X)
		c.expr(x.Y)
		op := opBinary
		if c.intStatic(x.X) && c.intStatic(x.Y) {
			// Both operands are statically integral, so their runtime
			// kinds are KInt/KChar/KBool and the operator runs on Int —
			// dispatch inline instead of through ApplyBinary.
			op = opIntBin
		}
		// The operator rides in c as well as b so the opIntBin family
		// (fused or not) reads it from one place; opBinary keeps b.
		c.emit(instr{op: op, b: int32(x.Op), c: int32(x.Op), pos: x.Pos()})
	}
}

// intStatic reports whether e's static type is integral (int, char, or
// bool), which confines its runtime kind to the kinds Int reads.
func (c *compiler) intStatic(e ast.Expr) bool {
	if b, ok := c.info.TypeOf(e).(*types.Basic); ok {
		return b.Kind == types.Int || b.Kind == types.Char || b.Kind == types.Bool
	}
	return false
}

// stmtExpr compiles e in statement position — its value is discarded —
// using fused forms that skip the push-back of assignment results.
// Returns false when e has no statement-position specialization (the
// caller then compiles it generically and pops).
func (c *compiler) stmtExpr(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Assign:
		lt := c.info.TypeOf(x.LHS)
		if x.Op == token.Assign {
			if slot, ok := c.intSlotTarget(x.LHS); ok {
				if d, fused := incPattern(x, c.info); fused {
					c.emit(instr{op: opIncSlotI, a: slot, b: d, pos: x.Pos()})
					return true
				}
			}
			c.lvalue(x.LHS)
			c.expr(x.RHS)
			c.emitRef(instr{op: opAssignPop, pos: x.Pos()}, ref{typ: lt})
			return true
		}
		c.lvalue(x.LHS)
		c.expr(x.RHS)
		c.emitRef(instr{op: opAssignOpPop, b: int32(x.Op.CompoundBase()), pos: x.Pos()}, ref{typ: lt})
		return true
	case *ast.Postfix:
		c.incDecStmt(x.X, x.Op, x.Pos())
		return true
	case *ast.Unary:
		if x.Op == token.Inc || x.Op == token.Dec {
			c.incDecStmt(x.X, x.Op, x.Pos())
			return true
		}
	}
	return false
}

// incDecStmt compiles a statement-position ++/--.
func (c *compiler) incDecStmt(target ast.Expr, op token.Kind, pos source.Pos) {
	if slot, ok := c.intSlotTarget(target); ok {
		d := int32(1)
		if op == token.Dec {
			d = -1
		}
		c.emit(instr{op: opIncSlotI, a: slot, b: d, pos: pos})
		return
	}
	c.lvalue(target)
	var inc int32
	if op == token.Inc {
		inc = 1
	}
	c.emit(instr{op: opIncDecPop, a: inc, pos: pos})
}

// intSlotTarget matches e as a local frame slot of static type int.
func (c *compiler) intSlotTarget(e ast.Expr) (int32, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || c.info.FieldOf(id) != nil {
		return 0, false
	}
	v := c.info.VarOf(id)
	if v == nil {
		return 0, false
	}
	slot, ok := c.slotOf[v]
	if !ok {
		return 0, false
	}
	if b, isBasic := v.Type.(*types.Basic); !isBasic || b.Kind != types.Int {
		return 0, false
	}
	return int32(slot), true
}

// incPattern matches x as `v = v + c` / `v = v - c` with an integer
// literal c, returning the signed delta. Both loads are side-effect
// free, so the whole statement collapses to one instruction.
func incPattern(x *ast.Assign, info *types.Info) (int32, bool) {
	lhs, ok := ast.Unparen(x.LHS).(*ast.Ident)
	if !ok {
		return 0, false
	}
	bin, ok := ast.Unparen(x.RHS).(*ast.Binary)
	if !ok || (bin.Op != token.Plus && bin.Op != token.Minus) {
		return 0, false
	}
	rid, ok := ast.Unparen(bin.X).(*ast.Ident)
	if !ok || info.VarOf(rid) == nil || info.VarOf(rid) != info.VarOf(lhs) {
		return 0, false
	}
	lit, ok := ast.Unparen(bin.Y).(*ast.IntLit)
	if !ok || lit.Value > 1<<30 || lit.Value < -(1<<30) {
		return 0, false
	}
	d := int32(lit.Value)
	if bin.Op == token.Minus {
		d = -d
	}
	return d, true
}

func (c *compiler) assign(x *ast.Assign) {
	c.lvalue(x.LHS)
	c.expr(x.RHS)
	lt := c.info.TypeOf(x.LHS)
	if x.Op == token.Assign {
		c.emitRef(instr{op: opAssign, pos: x.Pos()}, ref{typ: lt})
		return
	}
	c.emitRef(instr{op: opAssignOp, b: int32(x.Op.CompoundBase()), pos: x.Pos()}, ref{typ: lt})
}

// member compiles a data-member access; rvalue selects load vs location.
func (c *compiler) member(x *ast.Member, rvalue bool) {
	fld := c.info.FieldRefs[x]
	c.expr(x.X)
	var arrow int32
	if x.Arrow {
		arrow = 1
	}
	if fld == nil {
		// The tree-walker converts the receiver first, then fails.
		c.emit(instr{op: opReceiver, a: arrow, pos: x.X.Pos()})
		c.failAt(x.Pos(), "member %s did not resolve to a data member", x.Name)
		return
	}
	op := opLvMember
	if rvalue {
		op = opMemberLoad
	}
	c.emitRef(instr{op: op, a: arrow, pos: x.Pos(), pos2: x.X.Pos()}, ref{fld: fld})
}

func (c *compiler) memberPtr(x *ast.MemberPtrDeref, rvalue bool) {
	c.expr(x.X)
	var arrow int32
	if x.Arrow {
		arrow = 1
	}
	c.emit(instr{op: opReceiver, a: arrow, pos: x.X.Pos()})
	c.expr(x.Ptr)
	op := opLvMPtr
	if rvalue {
		op = opMPtrLoad
	}
	c.emit(instr{op: op, pos: x.Pos()})
}

// lvalue compiles e as an assignable location pushed on the Loc stack.
func (c *compiler) lvalue(e ast.Expr) {
	switch x := e.(type) {
	case *ast.Paren:
		c.lvalue(x.X)
	case *ast.Ident:
		if fld := c.info.FieldOf(x); fld != nil {
			c.emitRef(instr{op: opLvField, pos: x.Pos()}, ref{fld: fld})
			return
		}
		c.varAccess(x, opLvSlot, opLvGlobal)
	case *ast.Member:
		c.member(x, false)
	case *ast.MemberPtrDeref:
		c.memberPtr(x, false)
	case *ast.Index:
		c.expr(x.X)
		c.expr(x.I)
		c.emit(instr{op: opLvIndex, pos: x.Pos()})
	case *ast.Unary:
		if x.Op == token.Star {
			c.expr(x.X)
			c.emit(instr{op: opLvDeref, pos: x.Pos()})
			return
		}
		c.failAt(e.Pos(), "expression is not an lvalue at run time")
	default:
		c.failAt(e.Pos(), "expression is not an lvalue at run time")
	}
}

func (c *compiler) call(x *ast.Call) {
	switch fun := ast.Unparen(x.Fun).(type) {
	case *ast.Ident:
		if mth, ok := c.info.IdentMethods[fun]; ok {
			c.emitRef(instr{op: opPendImplicit, pos: x.Pos()}, ref{fn: mth})
			for _, a := range x.Args {
				c.expr(a)
			}
			c.emit(instr{op: opCall, a: int32(len(x.Args))})
			return
		}
		if fn, ok := c.info.IdentFuncs[fun]; ok {
			if fn.Builtin {
				c.builtin(fn.Name, x)
				return
			}
			c.emitRef(instr{op: opPendFunc}, ref{fn: fn})
			for _, a := range x.Args {
				c.expr(a)
			}
			c.emit(instr{op: opCall, a: int32(len(x.Args))})
			return
		}
		c.failAt(x.Pos(), "unresolved call target %s", fun.Name)
	case *ast.Member:
		mth, ok := c.info.MethodRefs[fun]
		if !ok {
			c.failAt(x.Pos(), "unresolved method %s", fun.Name)
			return
		}
		var arrow int32
		if fun.Arrow {
			arrow = 1
		}
		c.expr(fun.X)
		c.emitRef(instr{op: opPendMethod, a: arrow, pos: x.Pos(), pos2: fun.X.Pos()}, ref{fn: mth, str: fun.Qual})
		for _, a := range x.Args {
			c.expr(a)
		}
		c.emit(instr{op: opCall, a: int32(len(x.Args))})
	default:
		c.failAt(x.Pos(), "called expression is not callable")
	}
}

// builtin compiles a runtime-builtin call. Argument evaluation mirrors
// the tree-walker exactly: print/println evaluate their argument only
// when there is exactly one; clock and abort never evaluate arguments.
// Arity mismatches on the one-argument builtins fall back to the
// tree-walker, which owns that failure mode.
func (c *compiler) builtin(name string, x *ast.Call) {
	oneArg := func() {
		if len(x.Args) != 1 {
			panic(errUnsupported)
		}
		c.expr(x.Args[0])
	}
	switch name {
	case "print", "println":
		if len(x.Args) == 1 {
			c.expr(x.Args[0])
			c.emitRef(instr{op: opPrint}, ref{typ: c.info.TypeOf(x.Args[0])})
		}
		if name == "println" {
			c.emit(instr{op: opPrintNL})
		}
		c.emitConst(interp.Value{K: interp.KVoid})
	case "malloc":
		oneArg()
		c.emit(instr{op: opMalloc, pos: x.Pos()})
	case "free":
		oneArg()
		c.emit(instr{op: opFree, pos: x.Pos()})
	case "rand_seed":
		oneArg()
		c.emit(instr{op: opRandSeed})
	case "rand_next":
		oneArg()
		c.emit(instr{op: opRandNext, pos: x.Pos()})
	case "clock":
		c.emit(instr{op: opClock})
	case "abort":
		c.failAt(x.Pos(), "abort() called")
	default:
		c.failAt(x.Pos(), "unknown builtin %s", name)
	}
}

func (c *compiler) newExpr(x *ast.New) {
	t := c.info.TypeExprOf(x.Type)
	if t == nil {
		panic(errUnsupported)
	}

	if x.Len != nil { // new T[n]
		c.expr(x.Len)
		c.emitRef(instr{op: opNewArr, pos: x.Pos()}, ref{typ: t})
		return
	}

	if cls := types.IsClass(t); cls != nil { // new C(args)
		// Allocation (and its ledger record) precedes the arguments.
		c.emitRef(instr{op: opNewHeap}, ref{cls: cls})
		for _, a := range x.Args {
			c.expr(a)
		}
		c.emitRef(instr{op: opFinishNew, a: int32(len(x.Args))}, ref{fn: c.info.NewCtors[x]})
		return
	}

	// Scalar new.
	var hasInit int32
	if len(x.Args) == 1 {
		c.expr(x.Args[0])
		hasInit = 1
	} else if len(x.Args) > 1 {
		panic(errUnsupported)
	}
	c.emitRef(instr{op: opNewScalar, a: hasInit}, ref{typ: t})
}
