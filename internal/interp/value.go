// Package interp implements the MC++ runtime core — an instrumented
// object model plus a tree-walking evaluator that the bytecode VM
// (internal/vm) replaces for function bodies through Options.Executor.
// It executes the benchmark corpus to produce
// the dynamic measurements of the paper's Table 2: every class-object
// creation and destruction is reported to a heapsim.Ledger together with
// its byte-exact layout size.
//
// A run allocates no cell that cannot outlive its activation. The
// Machine reuses Frames last in, first out, so an Executor keeps none
// past ExecBody, and a frame's parameter cells are a slab the frame owns
// and every activation it hosts reuses. Only a function that takes a
// parameter's address (types.Var.AddrTaken) gets a fresh slab per call,
// because &param can outlive it. An object's cells are one []Cell slab,
// and each class's per-run FieldPlan records once the slot of every
// level's first field and the flattened destruction order, so
// construction and destruction index cells without hashing.
//
// Semantics notes (documented deviations from full C++, all irrelevant to
// the measurements):
//
//   - all storage is zero-initialized (execution is deterministic);
//   - memory is modeled as typed cells, not raw bytes: casts between
//     pointer types reinterpret nothing, and pointer arithmetic works at
//     element granularity;
//   - class-typed temporaries (by-value returns) are not destructed;
//   - what C++ leaves undefined is a runtime error where it can be told
//     (free of class objects, mismatched delete/delete[]); a delete
//     through a base without a virtual destructor runs the base's
//     destruction, as C++ compilers do.
package interp

import (
	"fmt"

	"deadmembers/internal/types"
)

// Kind tags a runtime value.
type Kind int

// Value kinds.
const (
	KVoid Kind = iota
	KInt
	KChar
	KBool
	KDouble
	KPtr
	KMemberPtr
	KObj
	KArr
)

// Cell is one mutable storage slot (the target of an lvalue).
type Cell struct {
	V Value
}

// Pointer is the runtime representation of a pointer value. Exactly one
// shape is active: a single cell, a class object, or a position within an
// array of cells. The zero Pointer is the null pointer.
//
// Values reference their Pointer payload by pointer (see Value), so a
// Pointer reached through a Value must be treated as immutable: copy it
// (`p := *v.P`) before deriving a new pointer from it.
type Pointer struct {
	Cell *Cell
	Obj  *Object
	Arr  []*Cell
	Idx  int
	arrp bool // distinguishes a (possibly empty) array pointer from null

	// Block tracks the heap allocation this pointer derives from, for
	// delete/free bookkeeping; nil for pointers to locals/globals.
	Block *HeapBlock
}

// IsNull reports whether the pointer is null. A nil *Pointer counts as
// null so a zero Value with K forced to KPtr stays well-behaved.
func (p *Pointer) IsNull() bool {
	return p == nil || (p.Cell == nil && p.Obj == nil && !p.arrp)
}

// nullPtr is the shared payload of every null pointer value.
var nullPtr = &Pointer{}

// HeapBlock describes one heap allocation (new, new[], or malloc).
type HeapBlock struct {
	// Objs is non-nil for new C / new C[n] allocations.
	Objs []*Object
	// Cells is non-nil for scalar new / new[] / malloc allocations.
	Cells []*Cell
	Freed bool
	Array bool // allocated with new[] (or malloc)
}

// allocation holds one heap allocation's bookkeeping in a single Go
// allocation: the block, the backing of a new C(…)'s one-object Objs,
// and the pointer value the allocator returns.
type allocation struct {
	blk HeapBlock
	one [1]*Object
	ptr Pointer
}

// cellSlab returns n fresh zero cells, all in one slab.
func cellSlab(n int) []*Cell {
	slab := make([]Cell, n)
	cells := make([]*Cell, n)
	for i := range cells {
		cells[i] = &slab[i]
	}
	return cells
}

// Value is a tagged-union runtime value. The pointer and array payloads
// are boxed so the struct stays small enough (56 bytes) for the compiler
// to move it in registers instead of calling duffcopy — Value copies
// dominate the VM dispatch loop, so the layout is performance-sensitive.
type Value struct {
	K   Kind
	I   int64    // KInt, KChar, KBool
	F   float64  // KDouble
	P   *Pointer // KPtr (shared, immutable; see Pointer)
	MP  *types.Field
	Obj *Object  // KObj (class values live in cells as objects)
	Arr *[]*Cell // KArr (array values; read via Cells)
}

// Cells returns the elements of a KArr value (nil for other kinds).
func (v Value) Cells() []*Cell {
	if v.Arr == nil {
		return nil
	}
	return *v.Arr
}

// NullValue returns the null pointer value (the vm package's NullLit
// constant; interp-internal code uses nullV).
func NullValue() Value { return nullV() }

// Convenience constructors.
func intV(v int64) Value      { return Value{K: KInt, I: v} }
func charV(v byte) Value      { return Value{K: KChar, I: int64(v)} }
func boolV(v bool) Value      { return Value{K: KBool, I: b2i(v)} }
func doubleV(v float64) Value { return Value{K: KDouble, F: v} }
func ptrV(p Pointer) Value    { return Value{K: KPtr, P: &p} }
func nullV() Value            { return Value{K: KPtr, P: nullPtr} }
func arrV(cells []*Cell) Value {
	return Value{K: KArr, Arr: &cells}
}
func memberPtrV(f *types.Field) Value {
	return Value{K: KMemberPtr, MP: f}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// IsTruthy interprets the value as a condition.
func (v Value) IsTruthy() bool {
	switch v.K {
	case KInt, KChar, KBool:
		return v.I != 0
	case KDouble:
		return v.F != 0
	case KPtr:
		return !v.P.IsNull()
	case KMemberPtr:
		return v.MP != nil
	}
	return false
}

// AsInt converts a numeric value to int64.
func (v Value) AsInt() int64 {
	if v.K == KDouble {
		return int64(v.F)
	}
	return v.I
}

// AsFloat converts a numeric value to float64.
func (v Value) AsFloat() float64 {
	if v.K == KDouble {
		return v.F
	}
	return float64(v.I)
}

// String renders the value for the print builtin and diagnostics.
func (v Value) String() string {
	switch v.K {
	case KVoid:
		return "void"
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KChar:
		return string(rune(byte(v.I)))
	case KBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KDouble:
		return formatDouble(v.F)
	case KPtr:
		if v.P.IsNull() {
			return "nullptr"
		}
		return "<ptr>"
	case KMemberPtr:
		if v.MP == nil {
			return "<null-member-ptr>"
		}
		return "&" + v.MP.QualifiedName()
	case KObj:
		if v.Obj != nil {
			return "<" + v.Obj.Class.Name + " object>"
		}
	case KArr:
		return "<array>"
	}
	return "<?>"
}

// formatDouble prints a float like C's %g.
func formatDouble(f float64) string {
	return fmt.Sprintf("%g", f)
}

// FieldPlan is the per-class storage layout shared by every instance:
// the distinct data members in a deterministic order (own fields first,
// then bases depth-first, with members shared through virtual bases
// appearing once) and the inverse index. Instances store their cells in
// a flat slice in plan order, which is what makes the VM's monomorphic
// inline caches possible: a (class, field) pair resolves to a fixed slot
// number.
type FieldPlan struct {
	Fields []*types.Field
	Index  map[*types.Field]int

	// levels holds every class whose fields the plan holds, with the
	// slot of its first field: a class's fields are contiguous, in
	// declaration order, so construction indexes them from there.
	levels []level

	// dtor is the destruction protocol of a complete object, flattened
	// once per class: the levels whose destructor bodies and members
	// run, in order (see PlanOf).
	dtor []level

	// vbases are the class's virtual bases, which a complete object
	// constructs first.
	vbases []*types.Class

	// Ledger sizes of a counted instance (see NewObject).
	size, deadBytes, adjSize int
}

// level is one class of a field plan: where its fields start in an
// instance's cells, and its destructor when that has a body.
type level struct {
	cls  *types.Class
	off  int
	body *types.Func
}

// offset returns the slot of cls's first field in p, or -1 when p holds
// no cls level. Plans hold a handful of levels, so a scan beats hashing.
func (p *FieldPlan) offset(cls *types.Class) int {
	for _, l := range p.levels {
		if l.cls == cls {
			return l.off
		}
	}
	return -1
}

// Object is a class instance with one cell per distinct data member
// (members shared through virtual bases occupy a single cell).
type Object struct {
	Class *types.Class
	Plan  *FieldPlan
	Cells []Cell // one per Plan.Fields entry, same order

	// Size/DeadBytes/AdjSize cache the ledger accounting recorded at
	// allocation so destruction balances exactly.
	Size      int
	DeadBytes int
	AdjSize   int

	Destroyed bool
}

// Cell returns the storage cell of field f, which must exist in the
// object (a failed lookup indicates an invalid downcast).
func (o *Object) Cell(f *types.Field) (*Cell, bool) {
	i, ok := o.Plan.Index[f]
	if !ok {
		return nil, false
	}
	return &o.Cells[i], true
}
