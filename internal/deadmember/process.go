package deadmember

import (
	"deadmembers/internal/ast"
	"deadmembers/internal/source"
	"deadmembers/internal/types"
)

// This file implements the marking half of ProcessStatement of the
// paper's Figure 2: the liveness pass is a Visitor of the access walk
// (walk.go) that marks live every member read or whose address is
// taken, ignores pure writes, lvalue path steps and delete/free
// arguments, and applies the write, unsafe-cast and sizeof rules.
// markLive keeps the first reason and witness, in walk order.

// processFunc marks the members f accesses.
func (a *analysis) processFunc(f *types.Func) {
	Walk(a.info, f, !a.opts.NoDeleteSpecialCase, a)
}

// Field marks reads and address-takings live. A write marks a volatile
// member live, and under the WritesAreUses ablation every member.
func (a *analysis) Field(n ast.Node, f *types.Field, c Access) {
	switch c {
	case AccRead:
		a.markLive(f, ReasonRead, n.Pos())
	case AccAddr:
		a.markLive(f, ReasonAddressTaken, n.Pos())
	case AccWrite:
		if f.Volatile {
			a.markLive(f, ReasonVolatileWrite, n.Pos())
		} else if a.opts.WritesAreUses {
			a.markLive(f, ReasonWrite, n.Pos())
		}
	}
}

// MemberPointer applies the pointer-to-member rule (paper lines 26-28):
// the member may be accessed anywhere.
func (a *analysis) MemberPointer(f *types.Field, at source.Pos) {
	a.markLive(f, ReasonPointerToMember, at)
}

// Cast applies the unsafe-cast rule (paper lines 29-32): for a
// potentially unsafe cast (T)(e), all members contained in the static
// class of e are marked live.
func (a *analysis) Cast(x *ast.Cast) {
	if src, unsafe := a.info.UnsafeCasts[x]; unsafe && !a.opts.TrustDowncasts {
		a.markAllContainedMembers(src, ReasonUnsafeCast, x.Pos())
	}
}

// Sizeof applies the sizeof policy (paper §3.2): conservatively, every
// member contained in the measured class is live; by default sizeof is
// taken to serve storage allocation, and its unevaluated operand
// accesses nothing.
func (a *analysis) Sizeof(x *ast.Sizeof) {
	if a.opts.Sizeof != SizeofConservative {
		return
	}
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

// Variables, mutations and dereferences mark no member; o.*p reads a
// member only &C::m can name, and MemberPointer already marked it.
func (a *analysis) Var(*ast.Ident, *types.Var, Access) {}
func (a *analysis) Mutate(ast.Node, *types.Var)        {}
func (a *analysis) Deref(ast.Expr, Access)             {}
func (a *analysis) MemberPtrDeref(*ast.MemberPtrDeref) {}
