package deadmember

import (
	"deadmembers/internal/ast"
	"deadmembers/internal/source"
	"deadmembers/internal/token"
	"deadmembers/internal/types"
)

// This file implements the classification half of ProcessStatement of
// the paper's Figure 2: one context-directed walk that sorts every
// member access of a function into a read, a pure write, an
// address-taking, an lvalue path step, or a delete/free argument, and
// reports it to a Visitor. The walk marks nothing itself. The liveness
// pass (process.go) is one visitor; internal/lint's per-function
// classification, which feeds deadlint's gen/kill atoms, is the other.

// Access is the context in which the walk meets an expression. The
// zero value, AccNone, means no access.
type Access int8

const (
	AccNone Access = iota

	// AccRead: the expression's value is used.
	AccRead

	// AccWrite: the expression is the target of a plain assignment, or
	// the member a constructor initializer writes: the final member is
	// written, not read; the receiver path is AccPath.
	AccWrite

	// AccAddr: the expression is the operand of &: the final member's
	// address is taken; the receiver path is AccPath.
	AccAddr

	// AccPath: the expression only locates a subobject: a dot access is
	// neither read nor written, an arrow access reads its pointer-valued
	// prefix.
	AccPath

	// AccDelete: the expression is the argument of delete or free under
	// the paper's special case (its footnote: freeing a member cannot
	// affect observable behaviour). The member itself is not read; its
	// receiver is walked as an lvalue path.
	AccDelete
)

// Visitor receives the accesses of one walk. The walk reports them in a
// fixed order, on which first-wins consumers depend: a constructor
// initializer's field before its arguments, a member before its
// receiver, a mutation before its target, and a dereference, o.*p or a
// cast before its operands.
type Visitor interface {
	// Field reports an access to data member f at n: an *ast.Member, an
	// implicit-this *ast.Ident, or the *ast.CtorInit that writes f.
	Field(n ast.Node, f *types.Field, c Access)

	// Var reports an identifier denoting a local, parameter or global.
	Var(x *ast.Ident, v *types.Var, c Access)

	// MemberPointer reports the formation of a pointer to f: &C::m, at
	// the & expression, or a bare C::m, at the identifier.
	MemberPointer(f *types.Field, at source.Pos)

	// Mutate reports that n (an assignment, ++ or --) modifies the plain
	// variable v.
	Mutate(n ast.Node, v *types.Var)

	// Deref reports *p or a[i], whose value is used in context c.
	Deref(x ast.Expr, c Access)

	// MemberPtrDeref reports o.*p or p->*pm, which access a statically
	// unknown member.
	MemberPtrDeref(x *ast.MemberPtrDeref)

	// Cast reports (T)e.
	Cast(x *ast.Cast)

	// Sizeof reports sizeof, whose operand is neither evaluated nor
	// walked.
	Sizeof(x *ast.Sizeof)
}

// Walk walks f's constructor initializers and body and reports every
// access to v. deleteRule applies the paper's delete/free special case:
// the argument of delete or free, looking through casts, is walked as
// AccDelete; without it, the argument is a read. The walk keeps its
// state on the stack, so concurrent walks share nothing.
func Walk(info *types.Info, f *types.Func, deleteRule bool, v Visitor) {
	w := walker{info: info, deleteRule: deleteRule, v: v}
	for i := range f.Inits {
		init := &f.Inits[i]
		// `: m(e)` writes m; it does not read it.
		if fld := info.CtorInitFields[init]; fld != nil {
			v.Field(init, fld, AccWrite)
		}
		for _, arg := range init.Args {
			w.expr(arg, AccRead)
		}
	}
	if f.Body != nil {
		w.stmt(f.Body)
	}
}

type walker struct {
	info       *types.Info
	deleteRule bool
	v          Visitor
}

func (w *walker) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		for _, st := range x.Stmts {
			w.stmt(st)
		}
	case *ast.DeclStmt:
		w.expr(x.Var.Init, AccRead)
		for _, arg := range x.Var.CtorArgs {
			w.expr(arg, AccRead)
		}
	case *ast.ExprStmt:
		w.expr(x.X, AccRead)
	case *ast.IfStmt:
		w.expr(x.Cond, AccRead)
		w.stmt(x.Then)
		w.stmt(x.Else)
	case *ast.WhileStmt:
		w.expr(x.Cond, AccRead)
		w.stmt(x.Body)
	case *ast.DoWhileStmt:
		w.stmt(x.Body)
		w.expr(x.Cond, AccRead)
	case *ast.ForStmt:
		w.stmt(x.Init)
		w.expr(x.Cond, AccRead)
		w.expr(x.Post, AccRead)
		w.stmt(x.Body)
	case *ast.SwitchStmt:
		w.expr(x.X, AccRead)
		for i := range x.Cases {
			for _, v := range x.Cases[i].Values {
				w.expr(v, AccRead)
			}
			for _, st := range x.Cases[i].Body {
				w.stmt(st)
			}
		}
	case *ast.ReturnStmt:
		w.expr(x.X, AccRead)
	}
}

// expr walks e in context c. Literals, this and absent expressions
// access nothing.
func (w *walker) expr(e ast.Expr, c Access) {
	switch x := e.(type) {
	case *ast.Paren:
		w.expr(x.X, c)

	case *ast.Ident:
		if fld := w.info.FieldOf(x); fld != nil {
			w.v.Field(x, fld, c) // implicit this->field
		} else if v := w.info.VarOf(x); v != nil {
			w.v.Var(x, v, c)
		}

	case *ast.QualifiedIdent:
		// Reached only as the operand of & (checked by sema), which the
		// Unary case handles. Defensive: a pointer-to-member formation.
		if fld := w.info.QualFieldRefs[x]; fld != nil {
			w.v.MemberPointer(fld, x.Pos())
		}

	case *ast.Member:
		if fld := w.info.FieldRefs[x]; fld != nil {
			w.v.Field(x, fld, c)
		}
		// When the whole access is a read, the paper treats the chained
		// accesses as reads too (its Figure 1 marks both B::mb2 and
		// N::mn1 live for `b.mb2.mn1`).
		w.receiver(x.X, x.Arrow || c == AccRead)

	case *ast.Unary:
		switch x.Op {
		case token.Amp:
			if qi, ok := ast.Unparen(x.X).(*ast.QualifiedIdent); ok {
				// &C::m (paper lines 26-28).
				if fld := w.info.QualFieldRefs[qi]; fld != nil {
					w.v.MemberPointer(fld, x.Pos())
				}
				return
			}
			w.expr(x.X, AccAddr)
		case token.Star:
			w.v.Deref(x, c)
			w.expr(x.X, AccRead)
		case token.Inc, token.Dec:
			// ++m reads and writes m.
			w.mutate(x, x.X)
			w.expr(x.X, AccRead)
		default:
			w.expr(x.X, AccRead)
		}

	case *ast.Postfix:
		w.mutate(x, x.X)
		w.expr(x.X, AccRead)

	case *ast.Binary:
		w.expr(x.X, AccRead)
		w.expr(x.Y, AccRead)

	case *ast.Assign:
		w.mutate(x, x.LHS)
		if x.Op == token.Assign {
			w.expr(x.LHS, AccWrite)
		} else {
			// Compound assignment reads the old value.
			w.expr(x.LHS, AccRead)
		}
		w.expr(x.RHS, AccRead)

	case *ast.Cond:
		w.expr(x.C, AccRead)
		w.expr(x.Then, c)
		w.expr(x.Else, c)

	case *ast.MemberPtrDeref:
		w.v.MemberPtrDeref(x)
		w.receiver(x.X, x.Arrow)
		w.expr(x.Ptr, AccRead)

	case *ast.Index:
		// Indexing a member array: in a read context the array member
		// is read; as a store target only the element is written.
		w.v.Deref(x, c)
		w.receiver(x.X, c == AccRead || c == AccAddr)
		w.expr(x.I, AccRead)

	case *ast.Call:
		w.call(x)

	case *ast.Cast:
		// The delete/free special case looks through casts
		// (`delete (T*)this->buf` keeps buf dead).
		w.v.Cast(x)
		if c != AccDelete {
			c = AccRead
		}
		w.expr(x.X, c)

	case *ast.New:
		for _, arg := range x.Args {
			w.expr(arg, AccRead)
		}
		w.expr(x.Len, AccRead)

	case *ast.Delete:
		w.expr(x.X, w.freed())

	case *ast.Sizeof:
		w.v.Sizeof(x)
	}
}

// receiver walks the object of a member access: read when the access
// goes through a pointer (or is itself read), an lvalue path otherwise.
func (w *walker) receiver(x ast.Expr, read bool) {
	if read {
		w.expr(x, AccRead)
	} else {
		w.expr(x, AccPath)
	}
}

// mutate reports n as a mutation when its target is a plain variable.
func (w *walker) mutate(n ast.Node, target ast.Expr) {
	if v := MutatedVar(w.info, target); v != nil {
		w.v.Mutate(n, v)
	}
}

// MutatedVar returns the plain variable that assigning to, incrementing
// or decrementing target modifies, or nil when target is not one: the
// variable Walk reports to Visitor.Mutate for that target.
func MutatedVar(info *types.Info, target ast.Expr) *types.Var {
	if id, ok := ast.Unparen(target).(*ast.Ident); ok {
		return info.VarOf(id)
	}
	return nil
}

// freed is the context of a delete or free argument.
func (w *walker) freed() Access {
	if w.deleteRule {
		return AccDelete
	}
	return AccRead
}

// call walks a call: free's arguments are freed, every other argument
// is read, and a method call's receiver is walked like a member
// access's.
func (w *walker) call(x *ast.Call) {
	arg := AccRead
	switch fun := ast.Unparen(x.Fun).(type) {
	case *ast.Ident:
		if f := w.info.IdentFuncs[fun]; f != nil && f.Builtin && f.Name == "free" {
			arg = w.freed()
		}
	case *ast.Member:
		w.receiver(fun.X, fun.Arrow)
	}
	for _, a := range x.Args {
		w.expr(a, arg)
	}
}
