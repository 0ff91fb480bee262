package lint

import (
	"deadmembers/internal/ast"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/source"
	"deadmembers/internal/types"
)

// This file records deadmember's access walk (deadmember.Walk) for one
// function: the context of every member and variable access, keyed by
// AST node so the flow-sensitive passes can attach gen/kill effects to
// the CFG atoms, and the function's contribution to the suppressions
// and callee summaries. It is the walk's second visitor; the liveness
// pass is the first.
//
// The walk runs without the delete/free special case, so the argument
// of delete/free counts as a read here. The paper's special case
// licenses removing the member altogether (store sites and the delete
// together); a lint finding on a single store whose value a later
// delete consumes would read as a false positive.

// writeSite is one member store site (for the write-only pass).
type writeSite struct {
	field *types.Field
	pos   source.Pos
}

// classification is the per-function access record, filled as the
// walk's visitor.
type classification struct {
	info *types.Info

	// acc classifies *ast.Member and field-resolving *ast.Ident nodes.
	acc map[ast.Node]deadmember.Access

	// varAcc classifies variable-resolving *ast.Ident nodes, so the
	// dataflow pass can tell a class-value copy (read) from a receiver
	// path step or a store target.
	varAcc map[*ast.Ident]deadmember.Access

	// recv holds the unparenthesized receiver of every field-resolving
	// member access, which tells a chain step (the o and the o.in
	// inside o.in.val) from a maximal read or a whole-object copy. It
	// is allocated at the first such access.
	recv map[ast.Node]bool

	// escaped holds local/param/global variables whose address is taken
	// in this function; stores through them cannot be tracked.
	escaped map[*types.Var]bool

	// mut maps Assign/Unary/Postfix nodes that modify a plain variable
	// (x = e, x += e, ++x, x--) to that variable: mutating a base
	// invalidates every tracked location under it.
	mut map[ast.Node]*types.Var

	// reads is the set of fields this function reads directly — the
	// seed of the transitive callee summaries. Class-value copies
	// (returning, passing, or assigning whole objects) read every
	// contained field.
	reads map[*types.Field]bool

	// addr is the set of fields whose address is taken here, via &expr
	// or &C::m (suppressed program-wide).
	addr map[*types.Field]bool

	// writes lists every member store site in source-walk order,
	// including constructor initializers.
	writes []writeSite

	// universal marks a function containing a pointer-to-member
	// dereference: which member it reads is statically unknown.
	universal bool
}

// classify walks f's initializer list and body.
func classify(info *types.Info, f *types.Func) *classification {
	cl := &classification{
		info:    info,
		acc:     map[ast.Node]deadmember.Access{},
		varAcc:  map[*ast.Ident]deadmember.Access{},
		escaped: map[*types.Var]bool{},
		mut:     map[ast.Node]*types.Var{},
		reads:   map[*types.Field]bool{},
		addr:    map[*types.Field]bool{},
	}
	deadmember.Walk(info, f, false, cl)
	return cl
}

// Field records a field access and folds it into the summaries; only a
// member read copies a class value.
func (cl *classification) Field(n ast.Node, fld *types.Field, c deadmember.Access) {
	cl.acc[n] = c
	switch c {
	case deadmember.AccRead:
		cl.reads[fld] = true
	case deadmember.AccWrite:
		cl.writes = append(cl.writes, writeSite{fld, n.Pos()})
	case deadmember.AccAddr:
		cl.addr[fld] = true
	}
	if m, ok := n.(*ast.Member); ok {
		if cl.recv == nil {
			cl.recv = map[ast.Node]bool{}
		}
		cl.recv[ast.Unparen(m.X)] = true
		if c == deadmember.AccRead {
			cl.readsClass(cl.info.TypeOf(m))
		}
	}
}

// Var records a variable access: taking its address escapes it, and
// reading a class-typed variable copies it.
func (cl *classification) Var(x *ast.Ident, v *types.Var, c deadmember.Access) {
	cl.varAcc[x] = c
	switch c {
	case deadmember.AccAddr:
		cl.escaped[v] = true
	case deadmember.AccRead:
		cl.readsClass(v.Type)
	}
}

// MemberPointer suppresses the member program-wide, as address-taken.
func (cl *classification) MemberPointer(fld *types.Field, _ source.Pos) { cl.addr[fld] = true }

func (cl *classification) Mutate(n ast.Node, v *types.Var) { cl.mut[n] = v }

// Deref records that reading *p or a[i] of class type copies the value.
func (cl *classification) Deref(x ast.Expr, c deadmember.Access) {
	if c == deadmember.AccRead {
		cl.readsClass(cl.info.TypeOf(x))
	}
}

func (cl *classification) MemberPtrDeref(*ast.MemberPtrDeref) { cl.universal = true }

// Casts and sizeof add nothing: the unsafe-cast rule is a program-wide
// suppression, and sizeof's operand is not evaluated.
func (cl *classification) Cast(*ast.Cast)     {}
func (cl *classification) Sizeof(*ast.Sizeof) {}

// readsClass records that every field contained in a value of type t is
// read: copying a class value reads all of it.
func (cl *classification) readsClass(t types.Type) {
	if c := types.IsClass(t); c != nil {
		types.Contained(c, map[*types.Class]bool{}, func(k *types.Class) {
			for _, f := range k.Fields {
				cl.reads[f] = true
			}
		})
	}
}
