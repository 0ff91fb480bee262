package sema

import (
	"deadmembers/internal/ast"
	"deadmembers/internal/types"
)

// checkBodies type-checks global initializers and every function body.
func (c *Checker) checkBodies() {
	for _, g := range c.prog.Globals {
		c.checkVarDecl(g.Decl, g)
	}
	for _, f := range c.prog.Functions {
		c.checkFuncBody(f)
	}
	for _, cls := range c.prog.Classes {
		for _, m := range cls.Methods {
			c.checkFuncBody(m)
		}
	}
	if c.prog.Main != nil {
		if len(c.prog.Main.Params) != 0 {
			c.diags.Errorf(c.prog.Main.Pos, "main must take no parameters")
		}
		if !types.Identical(c.prog.Main.Return, types.IntType) {
			c.diags.Errorf(c.prog.Main.Pos, "main must return int")
		}
	}
}

func (c *Checker) checkFuncBody(f *types.Func) {
	if f.Body == nil {
		if !f.Pure && f.Owner == nil {
			// Prototype-only free function: legal only if never called;
			// calls to it are rejected at the call site.
			return
		}
		return
	}
	c.cur = f
	c.pushScope()
	for _, p := range f.Params {
		if p.Name != "" {
			c.declare(p)
		}
	}
	// Sema numbers nodes as it first records them, so the initializers
	// and body take one contiguous run of numbers, which the lint pass
	// indexes its per-function tables by.
	f.NodeLo = c.info.Nodes() + 1
	if f.IsCtor {
		c.checkCtorInits(f)
	}
	c.checkStmt(f.Body)
	f.NodeHi = c.info.Nodes()
	c.popScope()
	c.cur = nil
}

// checkCtorInits resolves each member-initializer entry to a field of the
// constructor's class or to a direct/virtual base class.
func (c *Checker) checkCtorInits(f *types.Func) {
	cls := f.Owner
	seen := map[string]bool{}
	for i := range f.Inits {
		init := &f.Inits[i]
		if seen[init.Name] {
			c.diags.Errorf(init.Pos(), "duplicate initializer for %s", init.Name)
		}
		seen[init.Name] = true

		var argTypes []types.Type
		for _, a := range init.Args {
			argTypes = append(argTypes, c.checkExpr(a))
		}

		if fld := cls.FieldByName(init.Name); fld != nil {
			c.info.CtorInitFields[init] = fld
			if mc := types.IsClass(fld.Type); mc != nil {
				c.checkConstructible(init, mc, len(init.Args))
			} else {
				if len(init.Args) != 1 {
					c.diags.Errorf(init.Pos(), "initializer for scalar member %s needs exactly one argument", init.Name)
				} else if !c.assignable(fld.Type, argTypes[0], init.Args[0]) {
					c.diags.Errorf(init.Pos(), "cannot initialize %s (%s) with %s", init.Name, fld.Type, argTypes[0])
				}
			}
			continue
		}

		if base, ok := c.prog.ClassByName[init.Name]; ok && c.isBaseInitTarget(cls, base) {
			c.info.CtorInitBases[init] = base
			c.checkConstructible(init, base, len(init.Args))
			continue
		}
		c.diags.Errorf(init.Pos(), "%s is neither a member nor a base of %s", init.Name, cls.Name)
	}
}

// isBaseInitTarget reports whether base may appear in a ctor-init list of
// cls: a direct base or any virtual base.
func (c *Checker) isBaseInitTarget(cls, base *types.Class) bool {
	for _, b := range cls.Bases {
		if b.Class == base {
			return true
		}
	}
	for _, vb := range c.graph.VirtualBases(cls) {
		if vb == base {
			return true
		}
	}
	return false
}

// checkConstructible checks that class cls can be constructed with nargs
// arguments and returns the selected constructor (nil for implicit
// default construction of a ctor-less class).
func (c *Checker) checkConstructible(node ast.Node, cls *types.Class, nargs int) *types.Func {
	if cls == nil {
		return nil
	}
	if !cls.Complete {
		c.diags.Errorf(node.Pos(), "cannot construct incomplete class %s", cls.Name)
		return nil
	}
	ctors := cls.Ctors()
	if len(ctors) == 0 {
		if nargs != 0 {
			c.diags.Errorf(node.Pos(), "class %s has no %d-argument constructor", cls.Name, nargs)
		}
		return nil
	}
	ct := cls.CtorByArity(nargs)
	if ct == nil {
		c.diags.Errorf(node.Pos(), "class %s has no %d-argument constructor", cls.Name, nargs)
	}
	return ct
}

// checkStmt type-checks one statement.
func (c *Checker) checkStmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		c.pushScope()
		for _, st := range x.Stmts {
			c.checkStmt(st)
		}
		c.popScope()
	case *ast.DeclStmt:
		v := &types.Var{Name: x.Var.Name, Pos: x.Var.Pos(), Decl: x.Var}
		c.info.VarObjects[x.Var] = v
		c.checkVarDecl(x.Var, v)
		c.declare(v)
	case *ast.ExprStmt:
		c.checkExpr(x.X)
	case *ast.IfStmt:
		c.checkCond(x.Cond)
		c.checkStmt(x.Then)
		if x.Else != nil {
			c.checkStmt(x.Else)
		}
	case *ast.WhileStmt:
		c.checkCond(x.Cond)
		c.checkLoopBody(x.Body)
	case *ast.DoWhileStmt:
		c.checkLoopBody(x.Body)
		c.checkCond(x.Cond)
	case *ast.ForStmt:
		c.pushScope()
		if x.Init != nil {
			c.checkStmt(x.Init)
		}
		if x.Cond != nil {
			c.checkCond(x.Cond)
		}
		if x.Post != nil {
			c.checkExpr(x.Post)
		}
		c.checkLoopBody(x.Body)
		c.popScope()
	case *ast.SwitchStmt:
		t := c.checkExpr(x.X)
		if !isIntegral(t) {
			c.diags.Errorf(x.Pos(), "switch operand must be integral, have %s", t)
		}
		defaults := 0
		c.switches++
		for i := range x.Cases {
			cs := &x.Cases[i]
			if cs.Values == nil {
				defaults++
			}
			for _, v := range cs.Values {
				vt := c.checkExpr(v)
				if !isIntegral(vt) {
					c.diags.Errorf(v.Pos(), "case value must be integral, have %s", vt)
				}
			}
			c.pushScope()
			for _, st := range cs.Body {
				c.checkStmt(st)
			}
			c.popScope()
		}
		c.switches--
		if defaults > 1 {
			c.diags.Errorf(x.Pos(), "switch has multiple default cases")
		}
	case *ast.ReturnStmt:
		c.checkReturn(x)
	case *ast.BreakStmt:
		if c.loops == 0 && c.switches == 0 {
			c.diags.Errorf(x.Pos(), "break statement not within a loop or switch")
		}
	case *ast.ContinueStmt:
		if c.loops == 0 {
			c.diags.Errorf(x.Pos(), "continue statement not within a loop")
		}
	}
}

// checkLoopBody checks a loop body with one more loop open. The counts
// are per function body: checking never enters a callee, so a break in
// one function is never matched with a loop in its caller.
func (c *Checker) checkLoopBody(body ast.Stmt) {
	c.loops++
	c.checkStmt(body)
	c.loops--
}

func (c *Checker) checkReturn(r *ast.ReturnStmt) {
	if c.cur == nil {
		return
	}
	want := c.cur.Return
	if c.cur.IsCtor || c.cur.IsDtor {
		want = types.VoidType
	}
	if r.X == nil {
		if !types.IsVoid(want) {
			c.diags.Errorf(r.Pos(), "return without value in function returning %s", want)
		}
		return
	}
	got := c.checkExpr(r.X)
	if types.IsVoid(want) {
		c.diags.Errorf(r.Pos(), "return with value in void function")
		return
	}
	if !c.assignable(want, got, r.X) {
		c.diags.Errorf(r.Pos(), "cannot return %s from function returning %s", got, want)
	}
}

// checkVarDecl resolves the type and initializer of a variable declaration
// (global or local).
func (c *Checker) checkVarDecl(d *ast.VarDecl, v *types.Var) {
	t := c.resolveType(d.Type)
	v.Type = t
	c.info.VarTypes[d] = t

	if cls := types.IsClass(t); cls != nil {
		if d.Init != nil {
			it := c.checkExpr(d.Init)
			if !types.Identical(it, cls) {
				c.diags.Errorf(d.Pos(), "cannot initialize %s (%s) from %s", d.Name, cls.Name, it)
			}
			return
		}
		ct := c.checkConstructible(d, cls, len(d.CtorArgs))
		c.info.VarCtors[d] = ct
		if ct != nil {
			c.checkArgs(d, ct, d.CtorArgs)
		} else {
			for _, a := range d.CtorArgs {
				c.checkExpr(a)
			}
		}
		return
	}

	if arr, ok := t.(*types.Array); ok {
		if ec := types.IsClass(arr.Elem); ec != nil {
			c.checkConstructible(d, ec, 0) // array elements default-construct
		}
		if d.Init != nil || len(d.CtorArgs) > 0 {
			c.diags.Errorf(d.Pos(), "array variable %s cannot have an initializer", d.Name)
		}
		return
	}

	if len(d.CtorArgs) > 1 {
		c.diags.Errorf(d.Pos(), "scalar variable %s takes at most one initializer", d.Name)
	}
	var init ast.Expr
	if d.Init != nil {
		init = d.Init
	} else if len(d.CtorArgs) == 1 {
		init = d.CtorArgs[0]
	}
	if init != nil {
		it := c.checkExpr(init)
		if !c.assignable(t, it, init) {
			c.diags.Errorf(d.Pos(), "cannot initialize %s (%s) from %s", d.Name, t, it)
		}
	}
}

// checkCond checks an expression used as a condition: arithmetic,
// boolean, or pointer (non-null test).
func (c *Checker) checkCond(e ast.Expr) {
	t := c.checkExpr(e)
	if isCondition(t) {
		return
	}
	c.diags.Errorf(e.Pos(), "invalid condition of type %s", t)
}

func isCondition(t types.Type) bool {
	switch x := t.(type) {
	case *types.Basic:
		return x.Kind != types.Void
	case *types.Pointer, *types.MemberPointer:
		return true
	}
	return false
}

func isIntegral(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && (b.Kind == types.Int || b.Kind == types.Char || b.Kind == types.Bool)
}

func isArith(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind != types.Void
}
