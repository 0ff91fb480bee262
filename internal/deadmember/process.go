package deadmember

import (
	"deadmembers/internal/ast"
	"deadmembers/internal/source"
	"deadmembers/internal/token"
	"deadmembers/internal/types"
)

// This file implements ProcessStatement of the paper's Figure 2: the
// classification of every member-access expression in reachable code as a
// read access, a pure write, an address-taking, or a skipped delete/free
// argument.
//
// The walk is context-directed:
//
//	ctxRead   — the expression's value is used: member accesses are reads.
//	ctxWrite  — the expression is the target of a plain assignment: the
//	            final member is written, not read (volatile members become
//	            live anyway); the receiver path is ctxLValuePath.
//	ctxAddr   — the expression is the operand of &: the final member's
//	            address is taken (live); receiver path is ctxLValuePath.
//	ctxLValuePath — the expression only locates a subobject: dot-accesses
//	            are neither read nor written; arrow-accesses read the
//	            pointer-valued prefix and switch it to ctxRead.
//	ctxDeleteArg — the expression is the argument of delete/free: a member
//	            access here is not marked live (paper footnote: freeing a
//	            member cannot affect observable behaviour); its receiver
//	            is still walked as an lvalue path.
type ctx int

const (
	ctxRead ctx = iota
	ctxWrite
	ctxAddr
	ctxLValuePath
	ctxDeleteArg
)

// processFunc walks the body and constructor-initializer list of f.
func (a *analysis) processFunc(f *types.Func) {
	for i := range f.Inits {
		init := &f.Inits[i]
		// `: m(e)` writes m (not a read of m); volatile members become
		// live when written.
		if fld := a.info.CtorInitFields[init]; fld != nil {
			if fld.Volatile {
				a.markLive(fld, ReasonVolatileWrite, init.Pos())
			} else if a.opts.WritesAreUses {
				a.markLive(fld, ReasonWrite, init.Pos())
			}
		}
		for _, arg := range init.Args {
			a.visitExpr(arg, ctxRead)
		}
	}
	if f.Body != nil {
		a.visitStmt(f.Body)
	}
}

func (a *analysis) visitStmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		for _, st := range x.Stmts {
			a.visitStmt(st)
		}
	case *ast.DeclStmt:
		a.visitVarDecl(x.Var)
	case *ast.ExprStmt:
		a.visitExpr(x.X, ctxRead)
	case *ast.IfStmt:
		a.visitExpr(x.Cond, ctxRead)
		a.visitStmt(x.Then)
		if x.Else != nil {
			a.visitStmt(x.Else)
		}
	case *ast.WhileStmt:
		a.visitExpr(x.Cond, ctxRead)
		a.visitStmt(x.Body)
	case *ast.DoWhileStmt:
		a.visitStmt(x.Body)
		a.visitExpr(x.Cond, ctxRead)
	case *ast.ForStmt:
		if x.Init != nil {
			a.visitStmt(x.Init)
		}
		if x.Cond != nil {
			a.visitExpr(x.Cond, ctxRead)
		}
		if x.Post != nil {
			a.visitExpr(x.Post, ctxRead)
		}
		a.visitStmt(x.Body)
	case *ast.SwitchStmt:
		a.visitExpr(x.X, ctxRead)
		for i := range x.Cases {
			for _, v := range x.Cases[i].Values {
				a.visitExpr(v, ctxRead)
			}
			for _, st := range x.Cases[i].Body {
				a.visitStmt(st)
			}
		}
	case *ast.ReturnStmt:
		if x.X != nil {
			a.visitExpr(x.X, ctxRead)
		}
	}
}

func (a *analysis) visitVarDecl(v *ast.VarDecl) {
	if v.Init != nil {
		a.visitExpr(v.Init, ctxRead)
	}
	for _, arg := range v.CtorArgs {
		a.visitExpr(arg, ctxRead)
	}
}

// markWrite applies the write rules: volatile members become live on any
// write; under the WritesAreUses ablation every write marks the member.
func (a *analysis) markWrite(fld *types.Field, at source.Pos) {
	if fld.Volatile {
		a.markLive(fld, ReasonVolatileWrite, at)
		return
	}
	if a.opts.WritesAreUses {
		a.markLive(fld, ReasonWrite, at)
	}
}

func (a *analysis) visitExpr(e ast.Expr, c ctx) {
	switch x := e.(type) {
	case nil:
		return
	case *ast.Paren:
		a.visitExpr(x.X, c)

	case *ast.IntLit, *ast.FloatLit, *ast.CharLit, *ast.BoolLit,
		*ast.StringLit, *ast.NullLit, *ast.ThisExpr:
		// Literals: nothing to mark.

	case *ast.Ident:
		fld := a.info.FieldOf(x)
		if fld == nil {
			return // plain variable
		}
		// Implicit this->field access.
		switch c {
		case ctxRead:
			a.markLive(fld, ReasonRead, x.Pos())
		case ctxWrite:
			a.markWrite(fld, x.Pos())
		case ctxAddr:
			a.markLive(fld, ReasonAddressTaken, x.Pos())
		case ctxLValuePath, ctxDeleteArg:
			// not marked
		}

	case *ast.QualifiedIdent:
		// Reached only as the operand of & (checked by sema); handled in
		// Unary below. Defensive: treat as pointer-to-member formation.
		if fld := a.info.QualFieldRefs[x]; fld != nil {
			a.markLive(fld, ReasonPointerToMember, x.Pos())
		}

	case *ast.Member:
		fld := a.info.FieldRefs[x]
		if fld != nil {
			switch c {
			case ctxRead:
				a.markLive(fld, ReasonRead, x.Pos())
			case ctxWrite:
				a.markWrite(fld, x.Pos())
			case ctxAddr:
				a.markLive(fld, ReasonAddressTaken, x.Pos())
			case ctxLValuePath, ctxDeleteArg:
				// not marked
			}
		}
		// Receiver: through a pointer the prefix value is read; through
		// dot it only locates a subobject — unless this whole access is a
		// read, in which case the paper treats the chained accesses as
		// reads too (its Figure 1 marks both B::mb2 and N::mn1 live for
		// `b.mb2.mn1`).
		if x.Arrow {
			a.visitExpr(x.X, ctxRead)
		} else if c == ctxRead {
			a.visitExpr(x.X, ctxRead)
		} else {
			a.visitExpr(x.X, ctxLValuePath)
		}

	case *ast.Unary:
		switch x.Op {
		case token.Amp:
			if qi, ok := ast.Unparen(x.X).(*ast.QualifiedIdent); ok {
				// &C::m — pointer-to-member formation (paper lines 26-28):
				// assume the member may be accessed anywhere.
				if fld := a.info.QualFieldRefs[qi]; fld != nil {
					a.markLive(fld, ReasonPointerToMember, x.Pos())
				}
				return
			}
			a.visitExpr(x.X, ctxAddr)
		case token.Star:
			a.visitExpr(x.X, ctxRead)
		case token.Inc, token.Dec:
			// ++m reads and writes m.
			a.visitExpr(x.X, ctxRead)
		default:
			a.visitExpr(x.X, ctxRead)
		}

	case *ast.Postfix:
		a.visitExpr(x.X, ctxRead)

	case *ast.Binary:
		a.visitExpr(x.X, ctxRead)
		a.visitExpr(x.Y, ctxRead)

	case *ast.Assign:
		if x.Op == token.Assign {
			a.visitExpr(x.LHS, ctxWrite)
		} else {
			// Compound assignment reads the old value.
			a.visitExpr(x.LHS, ctxRead)
		}
		a.visitExpr(x.RHS, ctxRead)

	case *ast.Cond:
		a.visitExpr(x.C, ctxRead)
		a.visitExpr(x.Then, c)
		a.visitExpr(x.Else, c)

	case *ast.MemberPtrDeref:
		// Which member is accessed is unknown statically; &C::m already
		// marked every member whose pointer was formed. The receiver and
		// the pointer operand are read.
		if x.Arrow {
			a.visitExpr(x.X, ctxRead)
		} else {
			a.visitExpr(x.X, ctxLValuePath)
		}
		a.visitExpr(x.Ptr, ctxRead)

	case *ast.Index:
		// Indexing a member array: in a read context the array member is
		// read; as a store target only the element is written.
		switch c {
		case ctxRead, ctxAddr:
			a.visitExpr(x.X, ctxRead)
		default:
			a.visitExpr(x.X, ctxLValuePath)
		}
		a.visitExpr(x.I, ctxRead)

	case *ast.Call:
		a.visitCall(x)

	case *ast.Cast:
		a.visitCast(x, c)

	case *ast.New:
		for _, arg := range x.Args {
			a.visitExpr(arg, ctxRead)
		}
		if x.Len != nil {
			a.visitExpr(x.Len, ctxRead)
		}

	case *ast.Delete:
		// Paper line 18 & footnote: delete's argument need not mark the
		// member live — freeing cannot affect observable behaviour. The
		// receiver path to the member is still processed (the Member case
		// reads pointer-valued prefixes).
		if a.opts.NoDeleteSpecialCase {
			a.visitExpr(x.X, ctxRead)
		} else {
			a.visitExpr(x.X, ctxDeleteArg)
		}

	case *ast.Sizeof:
		// Paper §3.2: by default sizeof is conservative; the user may
		// declare sizeof uses behaviour-neutral (storage allocation).
		if a.opts.Sizeof == SizeofConservative {
			var t types.Type
			if x.Type != nil {
				t = a.info.TypeExprOf(x.Type)
			} else if x.X != nil {
				t = a.info.TypeOf(x.X)
			}
			if cls := types.IsClass(t); cls != nil {
				a.markAllContainedMembers(cls, ReasonSizeof, x.Pos())
			}
		}
		if x.X != nil {
			// sizeof does not evaluate its operand; no member access
			// occurs at run time, so nothing else is marked.
			_ = x.X
		}
	}
}

// visitCall handles calls: free() gets the delete special case; all other
// arguments are reads. Method-call receivers locate the object (lvalue
// path) unless accessed through a pointer.
func (a *analysis) visitCall(x *ast.Call) {
	if fn, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
		if f := a.info.IdentFuncs[fn]; f != nil && f.Builtin && f.Name == "free" && !a.opts.NoDeleteSpecialCase {
			for _, arg := range x.Args {
				a.visitExpr(arg, ctxDeleteArg)
			}
			return
		}
	}
	if m, ok := ast.Unparen(x.Fun).(*ast.Member); ok {
		if m.Arrow {
			a.visitExpr(m.X, ctxRead)
		} else {
			a.visitExpr(m.X, ctxLValuePath)
		}
	}
	for _, arg := range x.Args {
		a.visitExpr(arg, ctxRead)
	}
}

// visitCast applies the unsafe-cast rule (paper lines 29-32): for a
// potentially unsafe cast (T)(e), all members contained in the static
// class of e are marked live; the operand itself is a read — except in a
// delete/free argument, where the special case looks through casts
// (`delete (T*)this->buf` keeps buf dead).
func (a *analysis) visitCast(x *ast.Cast, c ctx) {
	if src, unsafe := a.info.UnsafeCasts[x]; unsafe && !a.opts.TrustDowncasts {
		a.markAllContainedMembers(src, ReasonUnsafeCast, x.Pos())
	}
	if c == ctxDeleteArg {
		a.visitExpr(x.X, ctxDeleteArg)
		return
	}
	a.visitExpr(x.X, ctxRead)
}
