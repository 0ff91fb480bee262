package interp

import (
	"deadmembers/internal/source"
	"deadmembers/internal/types"
)

// This file holds the runtime-core entry points that exist for the sake
// of an external Executor (the bytecode VM in internal/vm). They expose
// value-level operations whose tree-walking counterparts are tangled with
// AST evaluation, so both engines share one implementation of every
// observable behaviour.

// GlobalCell resolves a global variable to its storage cell. Globals are
// registered incrementally while their initializers run, so a lookup
// during global initialization can miss — the caller must fail exactly
// like varCell does.
func (m *Machine) GlobalCell(v *types.Var) (*Cell, bool) {
	c, ok := m.globals[v]
	return c, ok
}

// StringValue materializes a string literal: a fresh NUL-terminated cell
// array per evaluation, exactly as the tree-walker builds one each time
// the literal is evaluated.
func (m *Machine) StringValue(s string) Value {
	cells := cellSlab(len(s) + 1)
	for i := 0; i < len(s); i++ {
		cells[i].V = CharValue(s[i])
	}
	cells[len(s)].V = CharValue(0)
	return ptrV(Pointer{Arr: cells, arrp: true})
}

// TryAddrOfIndex implements the &arr[i] fast path on an evaluated base
// and index: a pointer into the array (one-past-the-end allowed). ok is
// false when base is neither an array value nor an array pointer — the
// caller must then fall back to re-evaluating the operand as an lvalue,
// preserving the tree-walker's double evaluation.
func (m *Machine) TryAddrOfIndex(pos source.Pos, base Value, idx64 int64) (Value, bool) {
	idx := int(idx64)
	switch base.K {
	case KArr:
		cells := base.Cells()
		if idx < 0 || idx > len(cells) {
			m.Fail(pos, "&array[%d] out of range [0,%d]", idx, len(cells))
		}
		return ptrV(Pointer{Arr: cells, Idx: idx, arrp: true}), true
	case KPtr:
		if p := *base.Ptr(); p.arrp {
			p.Idx += idx
			return ptrV(p), true
		}
	}
	return Value{}, false
}

// AddrOfLoc takes the address of an evaluated lvalue (the & slow path):
// object locations and object-valued cells yield object pointers,
// everything else a plain cell pointer.
func AddrOfLoc(l Loc) Value {
	if obj := l.ObjectOf(); obj != nil && (l.C == nil || l.C.V.K == KObj) {
		return ptrV(Pointer{Obj: obj})
	}
	return ptrV(Pointer{Cell: l.C})
}

// ObjectPointer builds a pointer to obj (the value of `this`).
func ObjectPointer(obj *Object) Value {
	return ptrV(Pointer{Obj: obj})
}
