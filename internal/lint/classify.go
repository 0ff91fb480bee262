package lint

import (
	"fmt"
	"slices"

	"deadmembers/internal/ast"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/source"
	"deadmembers/internal/types"
)

// This file records deadmember's access walk (deadmember.Walk) for one
// function: the context of every member and variable access, in a fact
// table indexed by node number, so the flow-sensitive passes can attach
// gen/kill effects to the CFG atoms, and the function's contribution to
// the suppressions and callee summaries. It is the walk's second
// visitor; the liveness pass is the first.
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

// fact is what the walk reported at one node of the function.
type fact struct {
	// acc is the context of a field access (an *ast.Member or a
	// field-resolving *ast.Ident) or of a variable access (a
	// variable-resolving *ast.Ident): an identifier resolves to one or
	// the other, never both. It lets the dataflow pass tell a
	// class-value copy (read) from a receiver path step or a store
	// target.
	acc deadmember.Access

	// recv marks the unparenthesized receiver of a field-resolving
	// member access, which tells a chain step (the o and the o.in
	// inside o.in.val) from a maximal read or a whole-object copy.
	recv bool

	// mut marks an assignment, ++ or -- that modifies a plain variable
	// (x = e, x += e, ++x, x--): mutating a base invalidates every
	// tracked location under it. The variable is deadmember.MutatedVar
	// of the node's target.
	mut bool
}

// classification is the per-function access record, filled as the
// walk's visitor.
type classification struct {
	info *types.Info

	// facts holds, for each node sema numbered in the function
	// (types.Func.NodeLo..NodeHi), what the walk reported there: the
	// fact of node n is facts[n.ID()-lo]. A node outside the range has
	// no fact; asking for one panics, so a numbering that broke its
	// contract fails the function's pass instead of reading a wrong fact.
	lo    int
	facts []fact

	// escaped lists local/param/global variables whose address is taken
	// in this function; stores through them cannot be tracked.
	escaped []*types.Var

	// reads seeds the function's read summary, as sorted, distinct
	// types.Field.IDs: each field it reads, with every field contained
	// in it by value (a read atom's gen closes a read the same way), and
	// every field of a class value it copies (returning, passing, or
	// assigning whole objects). While the walk runs, marks, which the
	// sequential classifications share, gathers them.
	reads []int32
	marks *fieldMarks

	// classes is readsClass's containment walk, reused.
	classes map[*types.Class]bool

	// addr lists the fields whose address is taken here, via &expr or
	// &C::m (suppressed program-wide).
	addr []*types.Field

	// writes lists every member store site in source-walk order,
	// including constructor initializers. A function with none holds no
	// candidate store at either tier.
	writes []writeSite

	// universal marks a function containing a pointer-to-member
	// dereference: which member it reads is statically unknown.
	universal bool
}

// classify walks f's initializer list and body, gathering reads in m,
// which it leaves empty, as it found it, even when the walk panics.
func classify(info *types.Info, f *types.Func, m *fieldMarks) *classification {
	cl := &classification{info: info, lo: f.NodeLo, marks: m}
	if f.NodeLo > 0 && f.NodeHi >= f.NodeLo {
		cl.facts = make([]fact, f.NodeHi-f.NodeLo+1)
	}
	defer func() {
		cl.reads = m.take()
		cl.marks, cl.classes = nil, nil
	}()
	deadmember.Walk(info, f, false, cl)
	return cl
}

// at returns n's fact.
func (cl *classification) at(n ast.Node) *fact {
	i := n.ID() - cl.lo
	if i < 0 || i >= len(cl.facts) {
		panic(fmt.Sprintf("lint: %T node %d at %d is outside the function's node range %d..%d",
			n, n.ID(), n.Pos(), cl.lo, cl.lo+len(cl.facts)-1))
	}
	return &cl.facts[i]
}

// Field records a field access and folds it into the summaries. A
// constructor initializer is no atom the passes look up, so it has no
// fact.
func (cl *classification) Field(n ast.Node, fld *types.Field, c deadmember.Access) {
	switch c {
	case deadmember.AccRead:
		cl.marks.add(fld.ID)
		cl.readsClass(types.ArrayElem(fld.Type))
	case deadmember.AccWrite:
		cl.writes = append(cl.writes, writeSite{fld, n.Pos()})
	case deadmember.AccAddr:
		cl.addr = append(cl.addr, fld)
	}
	switch x := n.(type) {
	case *ast.Member:
		cl.at(x).acc = c
		cl.at(ast.Unparen(x.X)).recv = true
	case *ast.Ident:
		cl.at(x).acc = c
	}
}

// Var records a variable access: taking its address escapes it, and
// reading a class-typed variable copies it.
func (cl *classification) Var(x *ast.Ident, v *types.Var, c deadmember.Access) {
	cl.at(x).acc = c
	switch c {
	case deadmember.AccAddr:
		if !slices.Contains(cl.escaped, v) {
			cl.escaped = append(cl.escaped, v)
		}
	case deadmember.AccRead:
		cl.readsClass(v.Type)
	}
}

// MemberPointer suppresses the member program-wide, as address-taken.
func (cl *classification) MemberPointer(fld *types.Field, _ source.Pos) {
	cl.addr = append(cl.addr, fld)
}

func (cl *classification) Mutate(n ast.Node, _ *types.Var) { cl.at(n).mut = true }

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
		if cl.classes == nil {
			cl.classes = map[*types.Class]bool{}
		}
		clear(cl.classes)
		types.Contained(c, cl.classes, func(k *types.Class) {
			for _, f := range k.Fields {
				cl.marks.add(f.ID)
			}
		})
	}
}
