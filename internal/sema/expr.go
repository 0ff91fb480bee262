package sema

import (
	"deadmembers/internal/ast"
	"deadmembers/internal/hierarchy"
	"deadmembers/internal/token"
	"deadmembers/internal/types"
)

// checkExpr type-checks e, records its type in Info (see Info.TypeOf), and
// returns it. Errors yield IntType so checking continues. Recursion is bounded by
// MaxExprDepth; subtrees past the limit are typed as int without descent.
func (c *Checker) checkExpr(e ast.Expr) types.Type {
	c.exprDepth++
	defer func() { c.exprDepth-- }()
	if c.exprDepth > MaxExprDepth {
		if !c.tooDeep {
			c.tooDeep = true
			c.diags.Errorf(e.Pos(), "expression nesting exceeds checker limit (%d)", MaxExprDepth)
		}
		c.info.SetType(e, types.IntType)
		return types.IntType
	}
	t := c.checkExpr1(e)
	if t == nil {
		t = types.IntType
	}
	c.info.SetType(e, t)
	return t
}

func (c *Checker) checkExpr1(e ast.Expr) types.Type {
	switch x := e.(type) {
	case *ast.IntLit:
		return types.IntType
	case *ast.FloatLit:
		return types.DoubleType
	case *ast.CharLit:
		return types.CharType
	case *ast.BoolLit:
		return types.BoolType
	case *ast.StringLit:
		return &types.Pointer{Elem: types.CharType}
	case *ast.NullLit:
		return &types.Pointer{Elem: types.VoidType}
	case *ast.Paren:
		return c.checkExpr(x.X)
	case *ast.ThisExpr:
		if c.cur == nil || c.cur.Owner == nil {
			c.diags.Errorf(x.Pos(), "this used outside a member function")
			return &types.Pointer{Elem: types.VoidType}
		}
		return &types.Pointer{Elem: c.cur.Owner}
	case *ast.Ident:
		return c.checkIdent(x, false)
	case *ast.QualifiedIdent:
		c.diags.Errorf(x.Pos(), "%s::%s can only be used as &%s::%s (pointer to member)",
			x.Class, x.Name, x.Class, x.Name)
		return types.IntType
	case *ast.Unary:
		return c.checkUnary(x)
	case *ast.Postfix:
		t := c.checkExpr(x.X)
		c.requireLvalue(x.X)
		if !isArith(t) && !types.IsPointer(t) {
			c.diags.Errorf(x.Pos(), "%s requires an arithmetic or pointer operand, have %s", x.Op, t)
		}
		return t
	case *ast.Binary:
		return c.checkBinary(x)
	case *ast.Assign:
		return c.checkAssign(x)
	case *ast.Cond:
		c.checkCond(x.C)
		t1 := c.checkExpr(x.Then)
		t2 := c.checkExpr(x.Else)
		return c.mergeCondTypes(x, t1, t2)
	case *ast.Member:
		return c.checkMember(x)
	case *ast.MemberPtrDeref:
		return c.checkMemberPtrDeref(x)
	case *ast.Index:
		xt := c.checkExpr(x.X)
		it := c.checkExpr(x.I)
		if !isIntegral(it) {
			c.diags.Errorf(x.I.Pos(), "array index must be integral, have %s", it)
		}
		if elem := types.Deref(xt); elem != nil {
			return elem
		}
		c.diags.Errorf(x.Pos(), "cannot index value of type %s", xt)
		return types.IntType
	case *ast.Call:
		return c.checkCall(x)
	case *ast.Cast:
		return c.checkCast(x)
	case *ast.New:
		return c.checkNew(x)
	case *ast.Delete:
		t := c.checkExpr(x.X)
		if !types.IsPointer(t) {
			c.diags.Errorf(x.Pos(), "delete requires a pointer operand, have %s", t)
		}
		return types.VoidType
	case *ast.Sizeof:
		if x.Type != nil {
			c.resolveType(x.Type)
		} else {
			c.checkExpr(x.X)
		}
		return types.IntType
	}
	c.diags.Errorf(e.Pos(), "unsupported expression")
	return types.IntType
}

// checkIdent resolves a plain identifier: local/param, global, implicit
// member of the enclosing class, or (when asCallee) a free function.
func (c *Checker) checkIdent(x *ast.Ident, asCallee bool) types.Type {
	if v := c.lookupVar(x.Name); v != nil {
		c.info.SetVar(x, v)
		if v.Type == nil {
			return types.IntType
		}
		return v.Type
	}
	// Implicit this-> member access inside a method.
	if c.cur != nil && c.cur.Owner != nil {
		if f, err := c.graph.LookupField(c.cur.Owner, x.Name); err == nil {
			c.info.SetField(x, f)
			return f.Type
		} else if _, amb := err.(*hierarchy.AmbiguityError); amb {
			c.diags.Errorf(x.Pos(), "%v", err)
			return types.IntType
		}
		if m, err := c.graph.LookupMethod(c.cur.Owner, x.Name); err == nil {
			if asCallee {
				c.info.IdentMethods[x] = m
				return types.VoidType // callee placeholder; Call computes result
			}
			c.diags.Errorf(x.Pos(), "method %s used without call", m.QualifiedName())
			return types.IntType
		}
	}
	if asCallee {
		if f, ok := c.prog.FuncByName[x.Name]; ok {
			c.info.IdentFuncs[x] = f
			return types.VoidType
		}
	}
	c.diags.Errorf(x.Pos(), "undeclared identifier %s", x.Name)
	return types.IntType
}

func (c *Checker) checkUnary(x *ast.Unary) types.Type {
	// &C::m — pointer-to-member constant.
	if x.Op == token.Amp {
		if qi, ok := ast.Unparen(x.X).(*ast.QualifiedIdent); ok {
			cls, ok := c.prog.ClassByName[qi.Class]
			if !ok {
				c.diags.Errorf(qi.Pos(), "unknown class %s", qi.Class)
				return types.IntType
			}
			f, err := c.graph.LookupField(cls, qi.Name)
			if err != nil {
				c.diags.Errorf(qi.Pos(), "%v", err)
				return types.IntType
			}
			c.info.QualFieldRefs[qi] = f
			c.info.SetType(qi, f.Type)
			return &types.MemberPointer{Class: cls, Elem: f.Type}
		}
		t := c.checkExpr(x.X)
		c.requireLvalue(x.X)
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if v := c.info.VarOf(id); v != nil {
				v.AddrTaken = true
			}
		}
		return &types.Pointer{Elem: t}
	}

	t := c.checkExpr(x.X)
	switch x.Op {
	case token.Minus:
		if !isArith(t) {
			c.diags.Errorf(x.Pos(), "unary - requires an arithmetic operand, have %s", t)
			return types.IntType
		}
		return promote(t)
	case token.Not:
		if !isCondition(t) {
			c.diags.Errorf(x.Pos(), "! requires a scalar operand, have %s", t)
		}
		return types.BoolType
	case token.Tilde:
		if !isIntegral(t) {
			c.diags.Errorf(x.Pos(), "~ requires an integral operand, have %s", t)
		}
		return types.IntType
	case token.Star:
		if p, ok := t.(*types.Pointer); ok {
			if types.IsVoid(p.Elem) {
				c.diags.Errorf(x.Pos(), "cannot dereference void*")
				return types.IntType
			}
			return p.Elem
		}
		c.diags.Errorf(x.Pos(), "cannot dereference non-pointer type %s", t)
		return types.IntType
	case token.Inc, token.Dec:
		c.requireLvalue(x.X)
		if !isArith(t) && !types.IsPointer(t) {
			c.diags.Errorf(x.Pos(), "%s requires an arithmetic or pointer operand, have %s", x.Op, t)
		}
		return t
	}
	c.diags.Errorf(x.Pos(), "unsupported unary operator %s", x.Op)
	return types.IntType
}

// promote applies the usual arithmetic promotions: bool/char -> int.
func promote(t types.Type) types.Type {
	if b, ok := t.(*types.Basic); ok {
		switch b.Kind {
		case types.Bool, types.Char:
			return types.IntType
		}
	}
	return t
}

// arithResult merges two arithmetic operand types.
func arithResult(a, b types.Type) types.Type {
	if ab, ok := a.(*types.Basic); ok && ab.Kind == types.Double {
		return types.DoubleType
	}
	if bb, ok := b.(*types.Basic); ok && bb.Kind == types.Double {
		return types.DoubleType
	}
	return types.IntType
}

func (c *Checker) checkBinary(x *ast.Binary) types.Type {
	lt := c.checkExpr(x.X)
	rt := c.checkExpr(x.Y)
	switch x.Op {
	case token.Plus, token.Minus:
		// pointer arithmetic: ptr ± int, int + ptr, ptr - ptr.
		if p, ok := lt.(*types.Pointer); ok {
			if isIntegral(rt) {
				return p
			}
			if x.Op == token.Minus {
				if q, ok := rt.(*types.Pointer); ok && types.Identical(p.Elem, q.Elem) {
					return types.IntType
				}
			}
			c.diags.Errorf(x.Pos(), "invalid pointer arithmetic: %s %s %s", lt, x.Op, rt)
			return p
		}
		if q, ok := rt.(*types.Pointer); ok && x.Op == token.Plus && isIntegral(lt) {
			return q
		}
		fallthrough
	case token.Star, token.Slash:
		if !isArith(lt) || !isArith(rt) {
			c.diags.Errorf(x.Pos(), "operator %s requires arithmetic operands, have %s and %s", x.Op, lt, rt)
			return types.IntType
		}
		return arithResult(lt, rt)
	case token.Percent, token.Shl, token.Shr, token.Amp, token.Pipe, token.Caret:
		if !isIntegral(lt) || !isIntegral(rt) {
			c.diags.Errorf(x.Pos(), "operator %s requires integral operands, have %s and %s", x.Op, lt, rt)
		}
		return types.IntType
	case token.Eq, token.Ne:
		if c.comparable(lt, rt) {
			return types.BoolType
		}
		c.diags.Errorf(x.Pos(), "cannot compare %s and %s", lt, rt)
		return types.BoolType
	case token.Lt, token.Gt, token.Le, token.Ge:
		if (isArith(lt) && isArith(rt)) || (types.IsPointer(lt) && types.IsPointer(rt)) {
			return types.BoolType
		}
		c.diags.Errorf(x.Pos(), "cannot order %s and %s", lt, rt)
		return types.BoolType
	case token.AmpAmp, token.PipePipe:
		if !isCondition(lt) || !isCondition(rt) {
			c.diags.Errorf(x.Pos(), "operator %s requires scalar operands, have %s and %s", x.Op, lt, rt)
		}
		return types.BoolType
	}
	c.diags.Errorf(x.Pos(), "unsupported binary operator %s", x.Op)
	return types.IntType
}

// comparable reports whether == / != applies to the operand types.
func (c *Checker) comparable(a, b types.Type) bool {
	if isArith(a) && isArith(b) {
		return true
	}
	pa, aok := a.(*types.Pointer)
	pb, bok := b.(*types.Pointer)
	if aok && bok {
		if types.IsVoid(pa.Elem) || types.IsVoid(pb.Elem) || types.Identical(pa.Elem, pb.Elem) {
			return true
		}
		ca, cb := types.IsClass(pa.Elem), types.IsClass(pb.Elem)
		return ca != nil && cb != nil && c.graph.Related(ca, cb)
	}
	_, ma := a.(*types.MemberPointer)
	_, mb := b.(*types.MemberPointer)
	if ma && mb {
		return true
	}
	// Pointer-to-member against the null constant (nullptr or 0).
	if ma && (bok && types.IsVoid(pb.Elem) || isIntegral(b)) {
		return true
	}
	if mb && (aok && types.IsVoid(pa.Elem) || isIntegral(a)) {
		return true
	}
	// pointer vs literal 0 is normalized to NullLit (void*) by the parser
	// grammar only for `nullptr`; integer 0 comparisons fall under
	// assignability below.
	if aok && isIntegral(b) || bok && isIntegral(a) {
		return true
	}
	return false
}

func (c *Checker) checkAssign(x *ast.Assign) types.Type {
	lt := c.checkExpr(x.LHS)
	rt := c.checkExpr(x.RHS)
	c.requireLvalue(x.LHS)
	if x.Op == token.Assign {
		if !c.assignable(lt, rt, x.RHS) {
			c.diags.Errorf(x.Pos(), "cannot assign %s to %s", rt, lt)
		}
		return lt
	}
	// Compound assignment.
	base := x.Op.CompoundBase()
	if p, ok := lt.(*types.Pointer); ok && (base == token.Plus || base == token.Minus) && isIntegral(rt) {
		return p
	}
	if !isArith(lt) || !isArith(rt) {
		c.diags.Errorf(x.Pos(), "operator %s requires arithmetic operands, have %s and %s", x.Op, lt, rt)
	} else if base == token.Percent && (!isIntegral(lt) || !isIntegral(rt)) {
		c.diags.Errorf(x.Pos(), "operator %%= requires integral operands")
	}
	return lt
}

func (c *Checker) mergeCondTypes(x *ast.Cond, t1, t2 types.Type) types.Type {
	if types.Identical(t1, t2) {
		return t1
	}
	if isArith(t1) && isArith(t2) {
		return arithResult(t1, t2)
	}
	p1, ok1 := t1.(*types.Pointer)
	p2, ok2 := t2.(*types.Pointer)
	if ok1 && ok2 {
		if types.IsVoid(p1.Elem) {
			return p2
		}
		if types.IsVoid(p2.Elem) {
			return p1
		}
		c1, c2 := types.IsClass(p1.Elem), types.IsClass(p2.Elem)
		if c1 != nil && c2 != nil {
			if c.graph.IsBaseOf(c1, c2) {
				return p1
			}
			if c.graph.IsBaseOf(c2, c1) {
				return p2
			}
		}
	}
	c.diags.Errorf(x.Pos(), "incompatible operands of ?: (%s and %s)", t1, t2)
	return t1
}

// classOfAccess returns the class through which a member access with the
// given receiver type and arrow-ness operates, or nil with an error.
func (c *Checker) classOfAccess(x *ast.Member, recv types.Type) *types.Class {
	if x.Arrow {
		p, ok := recv.(*types.Pointer)
		if !ok {
			c.diags.Errorf(x.Pos(), "-> requires a pointer receiver, have %s", recv)
			return nil
		}
		recv = p.Elem
	}
	cls := types.IsClass(recv)
	if cls == nil {
		c.diags.Errorf(x.Pos(), "member access on non-class type %s", recv)
	}
	return cls
}

// checkMember resolves a data-member access X.m / X->m / X.B::m.
func (c *Checker) checkMember(x *ast.Member) types.Type {
	recv := c.checkExpr(x.X)
	cls := c.classOfAccess(x, recv)
	if cls == nil {
		return types.IntType
	}
	look := cls
	if x.Qual != "" {
		q, ok := c.prog.ClassByName[x.Qual]
		if !ok {
			c.diags.Errorf(x.Pos(), "unknown class %s in qualified access", x.Qual)
			return types.IntType
		}
		if q != cls && !c.graph.IsBaseOf(q, cls) {
			c.diags.Errorf(x.Pos(), "%s is not a base of %s", x.Qual, cls.Name)
			return types.IntType
		}
		look = q
	}
	f, err := c.graph.LookupField(look, x.Name)
	if err == nil {
		c.info.FieldRefs[x] = f
		return f.Type
	}
	if _, amb := err.(*hierarchy.AmbiguityError); amb {
		c.diags.Errorf(x.Pos(), "%v", err)
		return types.IntType
	}
	// Maybe a method used without a call (Call handles callee members
	// before checkExpr sees them).
	if m, merr := c.graph.LookupMethod(look, x.Name); merr == nil {
		c.diags.Errorf(x.Pos(), "method %s used without call", m.QualifiedName())
		return types.IntType
	}
	c.diags.Errorf(x.Pos(), "%v", err)
	return types.IntType
}

func (c *Checker) checkMemberPtrDeref(x *ast.MemberPtrDeref) types.Type {
	recv := c.checkExpr(x.X)
	pt := c.checkExpr(x.Ptr)
	if x.Arrow {
		p, ok := recv.(*types.Pointer)
		if !ok {
			c.diags.Errorf(x.Pos(), "->* requires a pointer receiver, have %s", recv)
			return types.IntType
		}
		recv = p.Elem
	}
	cls := types.IsClass(recv)
	if cls == nil {
		c.diags.Errorf(x.Pos(), ".* requires a class receiver, have %s", recv)
		return types.IntType
	}
	mp, ok := pt.(*types.MemberPointer)
	if !ok {
		c.diags.Errorf(x.Pos(), ".* requires a pointer-to-member operand, have %s", pt)
		return types.IntType
	}
	if mp.Class != cls && !c.graph.IsBaseOf(mp.Class, cls) {
		c.diags.Errorf(x.Pos(), "pointer to member of %s applied to %s", mp.Class.Name, cls.Name)
	}
	return mp.Elem
}

// checkCall resolves the callee and checks arguments.
func (c *Checker) checkCall(x *ast.Call) types.Type {
	if c.cur != nil {
		c.info.CallSites[x] = c.cur
	}
	switch fun := ast.Unparen(x.Fun).(type) {
	case *ast.Ident:
		c.checkIdent(fun, true)
		if m, ok := c.info.IdentMethods[fun]; ok {
			c.checkArgs(x, m, x.Args)
			return retType(m)
		}
		if f, ok := c.info.IdentFuncs[fun]; ok {
			if f.Builtin {
				return c.checkBuiltinCall(x, f)
			}
			if f.Body == nil {
				c.diags.Errorf(x.Pos(), "call to function %s which has no definition", f.Name)
			}
			c.checkArgs(x, f, x.Args)
			return retType(f)
		}
		// Variable of non-function type used as callee.
		if c.info.VarOf(fun) != nil {
			c.diags.Errorf(x.Pos(), "%s is not a function", fun.Name)
		}
		for _, a := range x.Args {
			c.checkExpr(a)
		}
		return types.IntType
	case *ast.Member:
		recv := c.checkExpr(fun.X)
		cls := c.classOfAccess(fun, recv)
		if cls == nil {
			for _, a := range x.Args {
				c.checkExpr(a)
			}
			return types.IntType
		}
		look := cls
		if fun.Qual != "" {
			q, ok := c.prog.ClassByName[fun.Qual]
			if !ok || (q != cls && !c.graph.IsBaseOf(q, cls)) {
				c.diags.Errorf(fun.Pos(), "invalid qualifier %s in method call", fun.Qual)
				return types.IntType
			}
			look = q
		}
		m, err := c.graph.LookupMethod(look, fun.Name)
		if err != nil {
			c.diags.Errorf(fun.Pos(), "%v", err)
			for _, a := range x.Args {
				c.checkExpr(a)
			}
			return types.IntType
		}
		c.info.MethodRefs[fun] = m
		c.info.SetType(fun, types.VoidType) // callee placeholder
		c.checkArgs(x, m, x.Args)
		return retType(m)
	}
	c.diags.Errorf(x.Pos(), "called expression is not a function (MC++ has no function pointers)")
	for _, a := range x.Args {
		c.checkExpr(a)
	}
	return types.IntType
}

func retType(f *types.Func) types.Type {
	if f.Return == nil {
		return types.VoidType
	}
	return f.Return
}

func (c *Checker) checkArgs(node ast.Node, f *types.Func, args []ast.Expr) {
	if len(args) != len(f.Params) {
		c.diags.Errorf(node.Pos(), "%s expects %d argument(s), got %d", f.QualifiedName(), len(f.Params), len(args))
	}
	for i, a := range args {
		at := c.checkExpr(a)
		if i < len(f.Params) && f.Params[i].Type != nil {
			if !c.assignable(f.Params[i].Type, at, a) {
				c.diags.Errorf(a.Pos(), "argument %d of %s: cannot pass %s as %s",
					i+1, f.QualifiedName(), at, f.Params[i].Type)
			}
		}
	}
}

// checkBuiltinCall validates calls to the predeclared runtime functions.
func (c *Checker) checkBuiltinCall(x *ast.Call, f *types.Func) types.Type {
	switch f.Name {
	case "print", "println":
		if f.Name == "println" && len(x.Args) == 0 {
			return types.VoidType
		}
		if len(x.Args) != 1 {
			c.diags.Errorf(x.Pos(), "%s takes exactly one argument", f.Name)
		}
		for _, a := range x.Args {
			t := c.checkExpr(a)
			if !isCondition(t) { // any scalar: arithmetic, bool, pointer
				c.diags.Errorf(a.Pos(), "%s cannot print a value of type %s", f.Name, t)
			}
		}
		return types.VoidType
	default:
		c.checkArgs(x, f, x.Args)
		return retType(f)
	}
}

// checkCast resolves a C-style cast and classifies its safety per the
// paper: casts to a class (pointer) type from a base class (pointer) of
// that type — downcasts — and casts between unrelated class pointer types
// are potentially unsafe; Info.UnsafeCasts records the source class whose
// members the conservative analysis must mark fully live.
func (c *Checker) checkCast(x *ast.Cast) types.Type {
	target := c.resolveType(x.Type)
	src := c.checkExpr(x.X)

	tc := castClass(target)
	sc := castClass(src)
	switch {
	case tc != nil && sc != nil:
		if tc == sc || c.graph.IsBaseOf(tc, sc) {
			// Identity or upcast: always safe.
		} else {
			// Downcast or cross-cast: potentially unsafe (paper §3).
			c.info.UnsafeCasts[x] = sc
		}
	case tc != nil && sc == nil:
		// e.g. void* or int reinterpreted as class pointer: no source
		// class to mark; the paper's rule marks members of the *source*
		// type, which has none.
	}

	if !c.castAllowed(target, src) {
		c.diags.Errorf(x.Pos(), "invalid cast from %s to %s", src, target)
	}
	return target
}

// castClass extracts the class of a cast operand type: C or C*.
func castClass(t types.Type) *types.Class {
	if cls := types.IsClass(t); cls != nil {
		return cls
	}
	return types.PointeeClass(t)
}

func (c *Checker) castAllowed(dst, src types.Type) bool {
	if types.Identical(dst, src) {
		return true
	}
	if isArith(dst) && isArith(src) {
		return true
	}
	_, dp := dst.(*types.Pointer)
	_, sp := src.(*types.Pointer)
	if dp && sp {
		return true
	}
	if dp && isIntegral(src) || sp && isIntegral(dst) {
		return true // pointer <-> integer reinterpretation
	}
	return false
}

func (c *Checker) checkNew(x *ast.New) types.Type {
	t := c.resolveType(x.Type)
	if types.IsVoid(t) {
		c.diags.Errorf(x.Pos(), "cannot allocate void")
		return &types.Pointer{Elem: types.VoidType}
	}
	if x.Len != nil {
		lt := c.checkExpr(x.Len)
		if !isIntegral(lt) {
			c.diags.Errorf(x.Len.Pos(), "array size must be integral, have %s", lt)
		}
		if cls := types.IsClass(t); cls != nil {
			c.checkConstructible(x, cls, 0)
		}
		return &types.Pointer{Elem: t}
	}
	if cls := types.IsClass(t); cls != nil {
		ct := c.checkConstructible(x, cls, len(x.Args))
		c.info.NewCtors[x] = ct
		if ct != nil {
			c.checkArgs(x, ct, x.Args)
			return &types.Pointer{Elem: t}
		}
	}
	if len(x.Args) > 1 {
		c.diags.Errorf(x.Pos(), "scalar new takes at most one initializer")
	}
	for _, a := range x.Args {
		at := c.checkExpr(a)
		if types.IsClass(t) == nil && !c.assignable(t, at, a) {
			c.diags.Errorf(a.Pos(), "cannot initialize new %s with %s", t, at)
		}
	}
	return &types.Pointer{Elem: t}
}

// assignable reports whether a value of type src (from expression srcExpr,
// used to special-case the literal 0 null pointer constant) can be
// assigned to a location of type dst.
func (c *Checker) assignable(dst, src types.Type, srcExpr ast.Expr) bool {
	if types.Identical(dst, src) {
		return true
	}
	if isArith(dst) && isArith(src) {
		return true
	}
	dp, dok := dst.(*types.Pointer)
	if dok {
		// Null pointer constants: nullptr (typed void*) or literal 0.
		if sp, ok := src.(*types.Pointer); ok {
			if types.IsVoid(sp.Elem) || types.IsVoid(dp.Elem) {
				return true
			}
			if types.Identical(dp.Elem, sp.Elem) {
				return true
			}
			// Implicit upcast: D* -> B*.
			dc, sc := types.IsClass(dp.Elem), types.IsClass(sp.Elem)
			if dc != nil && sc != nil && c.graph.IsBaseOf(dc, sc) {
				return true
			}
			return false
		}
		if lit, ok := ast.Unparen(srcExpr).(*ast.IntLit); ok && lit.Value == 0 {
			return true
		}
		return false
	}
	dm, dok := dst.(*types.MemberPointer)
	if dok {
		sm, ok := src.(*types.MemberPointer)
		if !ok {
			if lit, isLit := ast.Unparen(srcExpr).(*ast.IntLit); isLit && lit.Value == 0 {
				return true
			}
			return false
		}
		// B::* converts to D::* when B is a base of D.
		return types.Identical(dm.Elem, sm.Elem) &&
			(dm.Class == sm.Class || c.graph.IsBaseOf(sm.Class, dm.Class))
	}
	return false
}

// requireLvalue reports an error when e cannot appear on the left of an
// assignment or under &.
func (c *Checker) requireLvalue(e ast.Expr) {
	if !c.isLvalue(e) {
		c.diags.Errorf(e.Pos(), "expression is not an lvalue")
	}
}

func (c *Checker) isLvalue(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return c.info.VarOf(x) != nil || c.info.FieldOf(x) != nil
	case *ast.Member, *ast.MemberPtrDeref, *ast.Index:
		return true
	case *ast.Unary:
		return x.Op == token.Star
	}
	return false
}
