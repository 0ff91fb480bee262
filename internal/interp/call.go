package interp

import (
	"fmt"

	"deadmembers/internal/ast"
	"deadmembers/internal/source"
	"deadmembers/internal/types"
)

// evalCall dispatches function, method, and builtin calls.
func (m *Machine) evalCall(f *Frame, x *ast.Call) Value {
	switch fun := ast.Unparen(x.Fun).(type) {
	case *ast.Ident:
		if mth, ok := m.info.IdentMethods[fun]; ok {
			// Implicit this->m(...): virtual dispatch on the dynamic
			// class of the receiver.
			if f.This == nil {
				m.Fail(x.Pos(), "implicit member call with no receiver")
			}
			target := m.Dispatch(x.Pos(), f.This, mth, true, "")
			args := m.evalArgs(f, x.Args)
			return m.CallFunction(target, f.This, args)
		}
		if fn, ok := m.info.IdentFuncs[fun]; ok {
			if fn.Builtin {
				return m.callBuiltin(f, fn.Name, x)
			}
			args := m.evalArgs(f, x.Args)
			return m.CallFunction(fn, nil, args)
		}
		m.Fail(x.Pos(), "unresolved call target %s", fun.Name)
	case *ast.Member:
		mth, ok := m.info.MethodRefs[fun]
		if !ok {
			m.Fail(x.Pos(), "unresolved method %s", fun.Name)
		}
		obj := m.receiverObject(f, fun.X, fun.Arrow)
		target := m.Dispatch(x.Pos(), obj, mth, true, fun.Qual)
		args := m.evalArgs(f, x.Args)
		return m.CallFunction(target, obj, args)
	}
	m.Fail(x.Pos(), "called expression is not callable")
	return Value{}
}

func (m *Machine) evalArgs(f *Frame, args []ast.Expr) []Value {
	out := make([]Value, len(args))
	for i, a := range args {
		out[i] = m.evalExpr(f, a)
	}
	return out
}

// Dispatch resolves the method actually invoked: virtual methods dispatch
// on the receiver's dynamic class unless an explicit qualifier pins the
// target.
func (m *Machine) Dispatch(pos source.Pos, obj *Object, mth *types.Func, dynamic bool, qual string) *types.Func {
	if qual != "" || !mth.Virtual || !dynamic {
		if mth.Body == nil && mth.Virtual {
			// Pure or body-less virtual reached statically: try dynamic.
			if t := m.h.Overrides(obj.Class, mth.Name); t != nil && t.Body != nil {
				return t
			}
		}
		return mth
	}
	target := m.h.Overrides(obj.Class, mth.Name)
	if target == nil || target.Body == nil {
		m.Fail(pos, "pure virtual method %s called on %s", mth.QualifiedName(), obj.Class.Name)
	}
	return target
}

// ---------------------------------------------------------------------------
// new / delete
//
// The AST-level evaluators delegate to exported value-level helpers so the
// VM shares the exact allocation protocol (ledger records included) with
// the tree-walker.

func (m *Machine) evalNew(f *Frame, x *ast.New) Value {
	t := m.info.TypeExprOf(x.Type)

	if x.Len != nil { // new T[n]
		n := m.evalExpr(f, x.Len).AsInt()
		return m.NewArray(x.Pos(), t, n)
	}

	if cls := types.IsClass(t); cls != nil { // new C(args)
		// The allocation (and its ledger record) precedes argument
		// evaluation, matching constructor-call ordering.
		p := m.NewHeapObject(cls)
		args := m.evalArgs(f, x.Args)
		return m.FinishNew(p, m.info.NewCtors[x], args)
	}

	// Scalar new.
	var init *Value
	if len(x.Args) == 1 {
		v := m.evalExpr(f, x.Args[0])
		init = &v
	}
	return m.NewScalar(t, init)
}

// NewArray implements new T[n] on an evaluated length.
func (m *Machine) NewArray(pos source.Pos, t types.Type, n64 int64) Value {
	n := int(n64)
	if n < 0 {
		m.Fail(pos, "negative array size %d in new[]", n)
	}
	a := &allocation{blk: HeapBlock{Array: true}}
	cells := cellSlab(n)
	if cls := types.IsClass(t); cls != nil {
		a.blk.Objs = make([]*Object, n)
		for i, c := range cells {
			obj := m.NewObject(cls, true)
			m.ConstructObject(obj, cls.CtorByArity(0), nil)
			c.V = ObjValue(obj)
			a.blk.Objs[i] = obj
		}
	} else {
		for _, c := range cells {
			c.V = m.ZeroValue(t)
		}
	}
	a.blk.Cells = cells
	a.ptr = Pointer{Arr: cells, arrp: true, Block: &a.blk}
	return a.value()
}

// NewHeapObject allocates the object of new C(…) and records it in the
// ledger. It returns the pointer new yields, which FinishNew completes:
// the object header, its heap block and that pointer are one Go
// allocation, so an object costs two with its cell slab.
func (m *Machine) NewHeapObject(cls *types.Class) Value {
	a := &objectAllocation{}
	m.initObject(&a.obj, cls, true)
	a.one[0] = &a.obj
	a.blk.Objs = a.one[:]
	a.ptr = Pointer{Obj: &a.obj, Block: &a.blk}
	return a.value()
}

// FinishNew completes new C(args) on p, the pointer NewHeapObject
// returned, and returns p.
func (m *Machine) FinishNew(p Value, ctor *types.Func, args []Value) Value {
	m.ConstructObject(p.Ptr().Obj, ctor, args)
	return p
}

// NewScalar implements scalar new T(init); init may be nil.
func (m *Machine) NewScalar(t types.Type, init *Value) Value {
	cell := &Cell{V: m.ZeroValue(t)}
	if init != nil {
		m.StoreInto(cell, m.Convert(*init, t))
	}
	a := &allocation{blk: HeapBlock{Cells: []*Cell{cell}}}
	a.ptr = Pointer{Cell: cell, Block: &a.blk}
	return a.value()
}

func (m *Machine) evalDelete(f *Frame, x *ast.Delete) {
	var static *types.Class
	if !x.Array {
		static = types.PointeeClass(m.info.TypeOf(x.X))
	}
	m.DeleteValue(x.Pos(), m.evalExpr(f, x.X), x.Array, static)
}

// DeleteValue implements delete / delete[] on an evaluated operand.
// static is the operand's static pointee class for a scalar delete, nil
// otherwise. When the object's class is a proper subclass of static and
// static's destructor is not virtual, only static's destruction runs
// (its destructor body, members and bases), as C++ compilers do; the
// block is still freed whole, with the object's ledger charge.
func (m *Machine) DeleteValue(pos source.Pos, v Value, isArray bool, static *types.Class) {
	if v.K != KPtr {
		m.Fail(pos, "delete of non-pointer")
	}
	p := v.Ptr()
	if p.IsNull() {
		return // deleting null is a no-op, as in C++
	}
	blk := p.Block
	if blk == nil {
		m.Fail(pos, "delete of pointer not obtained from new")
	}
	if blk.Freed {
		m.Fail(pos, "double delete")
	}
	if isArray != blk.Array {
		if blk.Array {
			m.Fail(pos, "array allocated with new[] must be released with delete[]")
		}
		m.Fail(pos, "scalar allocation must be released with delete, not delete[]")
	}
	blk.Freed = true
	if static != nil && len(blk.Objs) == 1 {
		if obj := blk.Objs[0]; static != obj.Class && !obj.Destroyed &&
			!m.h.HasVirtualDtor(static) && m.h.IsBaseOf(static, obj.Class) {
			m.destroy(obj, m.PlanOf(static))
			m.release(obj)
			return
		}
	}
	for i := len(blk.Objs) - 1; i >= 0; i-- {
		m.DestroyObject(blk.Objs[i])
	}
}

// ---------------------------------------------------------------------------
// Builtins
//
// As with new/delete, the AST wrappers evaluate exactly the arguments the
// tree-walker always evaluated and delegate to value-level helpers shared
// with the VM.

func (m *Machine) callBuiltin(f *Frame, name string, x *ast.Call) Value {
	switch name {
	case "print", "println":
		if len(x.Args) == 1 {
			m.PrintValueTyped(m.evalExpr(f, x.Args[0]), m.info.TypeOf(x.Args[0]))
		}
		if name == "println" {
			m.PrintNewline()
		}
		return Value{K: KVoid}
	case "malloc":
		return m.Malloc(x.Pos(), m.evalExpr(f, x.Args[0]).AsInt())
	case "free":
		return m.FreeValue(x.Pos(), m.evalExpr(f, x.Args[0]))
	case "rand_seed":
		return m.RandSeed(m.evalExpr(f, x.Args[0]).AsInt())
	case "rand_next":
		return m.RandNext(x.Pos(), m.evalExpr(f, x.Args[0]).AsInt())
	case "clock":
		return m.ClockValue()
	case "abort":
		m.Fail(x.Pos(), "abort() called")
	}
	m.Fail(x.Pos(), "unknown builtin %s", name)
	return Value{}
}

// Malloc implements the malloc builtin on an evaluated size.
func (m *Machine) Malloc(pos source.Pos, n64 int64) Value {
	n := int(n64)
	if n < 0 {
		m.Fail(pos, "malloc of negative size %d", n)
	}
	cells := cellSlab(n)
	for _, c := range cells {
		c.V = IntValue(0)
	}
	a := &allocation{blk: HeapBlock{Cells: cells, Array: true}}
	a.ptr = Pointer{Arr: cells, arrp: true, Block: &a.blk}
	return a.value()
}

// FreeValue implements the free builtin on an evaluated argument. free
// runs no destructor, so a block holding class objects must be released
// with delete or delete[].
func (m *Machine) FreeValue(pos source.Pos, v Value) Value {
	p := v.Ptr()
	if p.IsNull() {
		return Value{K: KVoid} // free(nullptr) is a no-op
	}
	blk := p.Block
	if blk == nil {
		m.Fail(pos, "free of pointer not obtained from an allocator")
	}
	if blk.Freed {
		m.Fail(pos, "double free")
	}
	if len(blk.Objs) > 0 {
		m.Fail(pos, "free of class objects allocated with new; release them with delete")
	}
	blk.Freed = true
	return Value{K: KVoid}
}

// RandSeed implements the rand_seed builtin.
func (m *Machine) RandSeed(v int64) Value {
	m.rng = uint64(v)*2862933555777941757 + 3037000493
	return Value{K: KVoid}
}

// RandNext implements the rand_next builtin.
func (m *Machine) RandNext(pos source.Pos, n int64) Value {
	if n <= 0 {
		m.Fail(pos, "rand_next bound must be positive, got %d", n)
	}
	m.rng = m.rng*6364136223846793005 + 1442695040888963407
	return IntValue(int64((m.rng >> 33) % uint64(n)))
}

// ClockValue implements the clock builtin: the executed-statement count.
func (m *Machine) ClockValue() Value { return IntValue(m.steps) }

// PrintNewline emits println's trailing newline.
func (m *Machine) PrintNewline() { fmt.Fprintln(m.out) }

// PrintValueTyped renders one print argument; char* (judged by the
// argument's static type t) prints as a NUL-terminated string.
func (m *Machine) PrintValueTyped(v Value, t types.Type) {
	if p, ok := t.(*types.Pointer); ok {
		if b, isBasic := p.Elem.(*types.Basic); isBasic && b.Kind == types.Char && !v.Ptr().IsNull() {
			m.printCString(v.Ptr())
			return
		}
	}
	fmt.Fprint(m.out, v.String())
}

func (m *Machine) printCString(p *Pointer) {
	if !p.arrp {
		if p.Cell != nil {
			fmt.Fprint(m.out, string(rune(byte(p.Cell.V.AsInt()))))
		}
		return
	}
	for i := p.Idx; i < len(p.Arr); i++ {
		c := byte(p.Arr[i].V.AsInt())
		if c == 0 {
			return
		}
		fmt.Fprint(m.out, string(rune(c)))
	}
}
