package interp

import (
	"deadmembers/internal/ast"
	"deadmembers/internal/source"
	"deadmembers/internal/token"
	"deadmembers/internal/types"
)

// Loc is an evaluated lvalue: either a storage cell or a bare object (the
// result of dereferencing an object pointer). Exactly one of C and O is
// set.
type Loc struct {
	C *Cell
	O *Object
}

func (l Loc) Load() Value {
	if l.C != nil {
		return l.C.V
	}
	return Value{K: KObj, Obj: l.O}
}

func (m *Machine) StoreLoc(l Loc, v Value) {
	if l.C != nil {
		m.StoreInto(l.C, v)
		return
	}
	if v.K == KObj && v.Obj != nil {
		m.CopyObject(l.O, v.Obj)
	}
}

// objectOf extracts the class object an lvalue denotes.
func (l Loc) ObjectOf() *Object {
	if l.O != nil {
		return l.O
	}
	if l.C != nil && l.C.V.K == KObj {
		return l.C.V.Obj
	}
	return nil
}

// ---------------------------------------------------------------------------
// Expression evaluation

func (m *Machine) evalExpr(f *Frame, e ast.Expr) Value {
	switch x := e.(type) {
	case *ast.Paren:
		return m.evalExpr(f, x.X)
	case *ast.IntLit:
		return intV(x.Value)
	case *ast.FloatLit:
		return doubleV(x.Value)
	case *ast.CharLit:
		return charV(x.Value)
	case *ast.BoolLit:
		return boolV(x.Value)
	case *ast.NullLit:
		return nullV()
	case *ast.StringLit:
		return m.StringValue(x.Value)
	case *ast.ThisExpr:
		if f.This == nil {
			m.Fail(x.Pos(), "this used with no receiver")
		}
		return ptrV(Pointer{Obj: f.This})
	case *ast.Ident:
		if fld := m.info.FieldOf(x); fld != nil {
			cell := m.FieldCell(x.Pos(), f.This, fld)
			return cell.V
		}
		return m.varCell(f, x).V
	case *ast.QualifiedIdent:
		m.Fail(x.Pos(), "qualified identifier %s::%s used as value", x.Class, x.Name)
	case *ast.Unary:
		return m.evalUnary(f, x)
	case *ast.Postfix:
		l := m.evalLValue(f, x.X)
		old := l.Load()
		m.StoreLoc(l, m.IncDec(x.Pos(), old, x.Op == token.Inc))
		return old
	case *ast.Binary:
		return m.evalBinary(f, x)
	case *ast.Assign:
		return m.evalAssign(f, x)
	case *ast.Cond:
		if m.evalExpr(f, x.C).IsTruthy() {
			return m.evalExpr(f, x.Then)
		}
		return m.evalExpr(f, x.Else)
	case *ast.Member:
		l := m.evalLValue(f, x)
		return l.Load()
	case *ast.MemberPtrDeref:
		l := m.evalLValue(f, x)
		return l.Load()
	case *ast.Index:
		l := m.evalLValue(f, x)
		return l.Load()
	case *ast.Call:
		return m.evalCall(f, x)
	case *ast.Cast:
		v := m.evalExpr(f, x.X)
		return m.Convert(v, m.info.TypeExprOf(x.Type))
	case *ast.New:
		return m.evalNew(f, x)
	case *ast.Delete:
		m.evalDelete(f, x)
		return Value{K: KVoid}
	case *ast.Sizeof:
		var t types.Type
		if x.Type != nil {
			t = m.info.TypeExprOf(x.Type)
		} else {
			t = m.info.TypeOf(x.X) // operand is not evaluated
		}
		return intV(int64(m.h.SizeOf(t)))
	}
	m.Fail(e.Pos(), "unsupported expression")
	return Value{}
}

// varCell resolves a plain identifier to its storage cell: a local
// declared in the frame, then a parameter by its position in Fn.Params,
// then a global.
func (m *Machine) varCell(f *Frame, x *ast.Ident) *Cell {
	v := m.info.VarOf(x)
	if v == nil {
		m.Fail(x.Pos(), "unresolved identifier %s", x.Name)
	}
	if c, ok := f.Vars[v]; ok {
		return c
	}
	if f.Fn != nil {
		for i, p := range f.Fn.Params {
			if p == v && i < len(f.Params) {
				return &f.Params[i]
			}
		}
	}
	if c, ok := m.globals[v]; ok {
		return c
	}
	m.Fail(x.Pos(), "variable %s has no storage (not in scope)", x.Name)
	return nil
}

// fieldCell locates the cell of fld inside obj.
func (m *Machine) FieldCell(pos source.Pos, obj *Object, fld *types.Field) *Cell {
	if obj == nil {
		m.Fail(pos, "member %s accessed with null receiver", fld.QualifiedName())
	}
	c, ok := obj.Cell(fld)
	if !ok {
		m.Fail(pos, "object of class %s has no member %s (invalid downcast?)",
			obj.Class.Name, fld.QualifiedName())
	}
	return c
}

// evalLValue evaluates e as an assignable location.
func (m *Machine) evalLValue(f *Frame, e ast.Expr) Loc {
	switch x := e.(type) {
	case *ast.Paren:
		return m.evalLValue(f, x.X)
	case *ast.Ident:
		if fld := m.info.FieldOf(x); fld != nil {
			return Loc{C: m.FieldCell(x.Pos(), f.This, fld)}
		}
		return Loc{C: m.varCell(f, x)}
	case *ast.Member:
		obj := m.receiverObject(f, x.X, x.Arrow)
		fld := m.info.FieldRefs[x]
		if fld == nil {
			m.Fail(x.Pos(), "member %s did not resolve to a data member", x.Name)
		}
		return Loc{C: m.FieldCell(x.Pos(), obj, fld)}
	case *ast.MemberPtrDeref:
		obj := m.receiverObject(f, x.X, x.Arrow)
		pv := m.evalExpr(f, x.Ptr)
		if pv.K != KMemberPtr || pv.MP == nil {
			m.Fail(x.Pos(), "dereference of null pointer-to-member")
		}
		return Loc{C: m.FieldCell(x.Pos(), obj, pv.MP)}
	case *ast.Index:
		base := m.evalExpr(f, x.X)
		idx := int(m.evalExpr(f, x.I).AsInt())
		switch base.K {
		case KArr:
			cells := base.Cells()
			if idx < 0 || idx >= len(cells) {
				m.Fail(x.Pos(), "array index %d out of range [0,%d)", idx, len(cells))
			}
			return Loc{C: cells[idx]}
		case KPtr:
			return m.PointerElem(x.Pos(), base.P, idx)
		}
		m.Fail(x.Pos(), "indexing non-array value")
	case *ast.Unary:
		if x.Op == token.Star {
			p := m.evalExpr(f, x.X)
			if p.K != KPtr {
				m.Fail(x.Pos(), "dereference of non-pointer")
			}
			return m.PointerElem(x.Pos(), p.P, 0)
		}
	}
	m.Fail(e.Pos(), "expression is not an lvalue at run time")
	return Loc{}
}

// pointerElem resolves ptr+delta to a location, checking null,
// use-after-free, and bounds.
func (m *Machine) PointerElem(pos source.Pos, p *Pointer, delta int) Loc {
	if p.IsNull() {
		m.Fail(pos, "null pointer dereference")
	}
	if p.Block != nil && p.Block.Freed {
		m.Fail(pos, "use after free")
	}
	switch {
	case p.Obj != nil:
		if delta != 0 {
			m.Fail(pos, "pointer arithmetic on object pointer")
		}
		return Loc{O: p.Obj}
	case p.Cell != nil:
		if delta != 0 {
			m.Fail(pos, "pointer arithmetic on non-array pointer")
		}
		return Loc{C: p.Cell}
	default:
		i := p.Idx + delta
		if i < 0 || i >= len(p.Arr) {
			m.Fail(pos, "pointer index %d out of range [0,%d)", i, len(p.Arr))
		}
		return Loc{C: p.Arr[i]}
	}
}

// receiverObject evaluates a member-access receiver to an object.
func (m *Machine) receiverObject(f *Frame, e ast.Expr, arrow bool) *Object {
	return m.ReceiverFromValue(e.Pos(), m.evalExpr(f, e), arrow)
}

// ReceiverFromValue converts an already-evaluated member-access receiver
// to an object; pos is the receiver expression's position (used by the
// failure diagnostics, which are shared verbatim with the tree-walker).
func (m *Machine) ReceiverFromValue(pos source.Pos, v Value, arrow bool) *Object {
	if arrow {
		if v.K != KPtr {
			m.Fail(pos, "-> on non-pointer value")
		}
		l := m.PointerElem(pos, v.P, 0)
		obj := l.ObjectOf()
		if obj == nil {
			m.Fail(pos, "-> target is not a class object")
		}
		return obj
	}
	if v.K != KObj || v.Obj == nil {
		m.Fail(pos, "member access on non-object value")
	}
	return v.Obj
}

func (m *Machine) evalUnary(f *Frame, x *ast.Unary) Value {
	switch x.Op {
	case token.Amp:
		if qi, ok := ast.Unparen(x.X).(*ast.QualifiedIdent); ok {
			fld := m.info.QualFieldRefs[qi]
			if fld == nil {
				m.Fail(x.Pos(), "unresolved pointer-to-member &%s::%s", qi.Class, qi.Name)
			}
			return memberPtrV(fld)
		}
		// &arr[i] yields a pointer into the array so that pointer
		// arithmetic on the result works.
		if ix, ok := ast.Unparen(x.X).(*ast.Index); ok {
			base := m.evalExpr(f, ix.X)
			idx := int(m.evalExpr(f, ix.I).AsInt())
			switch base.K {
			case KArr:
				cells := base.Cells()
				if idx < 0 || idx > len(cells) {
					m.Fail(x.Pos(), "&array[%d] out of range [0,%d]", idx, len(cells))
				}
				return ptrV(Pointer{Arr: cells, Idx: idx, arrp: true})
			case KPtr:
				if base.P.arrp {
					p := *base.P
					p.Idx += idx
					return ptrV(p)
				}
			}
		}
		l := m.evalLValue(f, x.X)
		if obj := l.ObjectOf(); obj != nil && (l.C == nil || l.C.V.K == KObj) {
			return ptrV(Pointer{Obj: obj})
		}
		return ptrV(Pointer{Cell: l.C})
	case token.Star:
		l := m.evalLValue(f, x)
		return l.Load()
	case token.Minus:
		v := m.evalExpr(f, x.X)
		if v.K == KDouble {
			return doubleV(-v.F)
		}
		return intV(-v.AsInt())
	case token.Not:
		return boolV(!m.evalExpr(f, x.X).IsTruthy())
	case token.Tilde:
		return intV(^m.evalExpr(f, x.X).AsInt())
	case token.Inc, token.Dec:
		l := m.evalLValue(f, x.X)
		nv := m.IncDec(x.Pos(), l.Load(), x.Op == token.Inc)
		m.StoreLoc(l, nv)
		return nv
	}
	m.Fail(x.Pos(), "unsupported unary operator %s", x.Op)
	return Value{}
}

func (m *Machine) IncDec(pos source.Pos, v Value, inc bool) Value {
	d := int64(1)
	if !inc {
		d = -1
	}
	switch v.K {
	case KDouble:
		return doubleV(v.F + float64(d))
	case KPtr:
		p := *v.P
		if p.Cell != nil || p.Obj != nil {
			m.Fail(pos, "pointer arithmetic on non-array pointer")
		}
		p.Idx += int(d)
		return ptrV(p)
	default:
		nv := v
		nv.I += d
		return nv
	}
}

func (m *Machine) evalAssign(f *Frame, x *ast.Assign) Value {
	l := m.evalLValue(f, x.LHS)
	rhs := m.evalExpr(f, x.RHS)
	if x.Op == token.Assign {
		// Convert to the static type of the LHS for numeric narrowing.
		if lt := m.info.TypeOf(x.LHS); lt != nil {
			rhs = m.Convert(rhs, lt)
		}
		m.StoreLoc(l, rhs)
		return l.Load()
	}
	old := l.Load()
	res := m.ApplyBinary(x.Pos(), x.Op.CompoundBase(), old, rhs)
	if lt := m.info.TypeOf(x.LHS); lt != nil {
		res = m.Convert(res, lt)
	}
	m.StoreLoc(l, res)
	return res
}

func (m *Machine) evalBinary(f *Frame, x *ast.Binary) Value {
	// Short-circuit logical operators.
	switch x.Op {
	case token.AmpAmp:
		if !m.evalExpr(f, x.X).IsTruthy() {
			return boolV(false)
		}
		return boolV(m.evalExpr(f, x.Y).IsTruthy())
	case token.PipePipe:
		if m.evalExpr(f, x.X).IsTruthy() {
			return boolV(true)
		}
		return boolV(m.evalExpr(f, x.Y).IsTruthy())
	}
	a := m.evalExpr(f, x.X)
	b := m.evalExpr(f, x.Y)
	return m.ApplyBinary(x.Pos(), x.Op, a, b)
}

func (m *Machine) ApplyBinary(pos source.Pos, op token.Kind, a, b Value) Value {
	// Pointer-to-member comparisons (including against the null constant,
	// whose MP field is nil) take precedence over plain pointer handling.
	if a.K == KMemberPtr || b.K == KMemberPtr {
		switch op {
		case token.Eq:
			return boolV(a.MP == b.MP)
		case token.Ne:
			return boolV(a.MP != b.MP)
		}
		m.Fail(pos, "invalid operation on pointer-to-member")
	}
	// Pointer arithmetic and comparisons.
	if a.K == KPtr || b.K == KPtr {
		return m.pointerBinary(pos, op, a, b)
	}
	if a.K == KDouble || b.K == KDouble {
		x, y := a.AsFloat(), b.AsFloat()
		switch op {
		case token.Plus:
			return doubleV(x + y)
		case token.Minus:
			return doubleV(x - y)
		case token.Star:
			return doubleV(x * y)
		case token.Slash:
			if y == 0 {
				m.Fail(pos, "floating division by zero")
			}
			return doubleV(x / y)
		case token.Eq:
			return boolV(x == y)
		case token.Ne:
			return boolV(x != y)
		case token.Lt:
			return boolV(x < y)
		case token.Gt:
			return boolV(x > y)
		case token.Le:
			return boolV(x <= y)
		case token.Ge:
			return boolV(x >= y)
		}
		m.Fail(pos, "invalid floating operation %s", op)
	}
	x, y := a.AsInt(), b.AsInt()
	switch op {
	case token.Plus:
		return intV(x + y)
	case token.Minus:
		return intV(x - y)
	case token.Star:
		return intV(x * y)
	case token.Slash:
		if y == 0 {
			m.Fail(pos, "integer division by zero")
		}
		return intV(x / y)
	case token.Percent:
		if y == 0 {
			m.Fail(pos, "integer modulo by zero")
		}
		return intV(x % y)
	case token.Shl:
		return intV(x << (uint(y) & 63))
	case token.Shr:
		return intV(x >> (uint(y) & 63))
	case token.Amp:
		return intV(x & y)
	case token.Pipe:
		return intV(x | y)
	case token.Caret:
		return intV(x ^ y)
	case token.Eq:
		return boolV(x == y)
	case token.Ne:
		return boolV(x != y)
	case token.Lt:
		return boolV(x < y)
	case token.Gt:
		return boolV(x > y)
	case token.Le:
		return boolV(x <= y)
	case token.Ge:
		return boolV(x >= y)
	}
	m.Fail(pos, "invalid integer operation %s", op)
	return Value{}
}

// ptrIdentity canonicalizes a pointer for comparison.
func ptrIdentity(p *Pointer) (interface{}, int) {
	switch {
	case p == nil:
		return nil, -1 // null
	case p.Obj != nil:
		return p.Obj, 0
	case p.Cell != nil:
		return p.Cell, 0
	case p.arrp:
		if len(p.Arr) > 0 {
			return p.Arr[0], p.Idx
		}
		return nil, p.Idx
	}
	return nil, -1 // null
}

func (m *Machine) pointerBinary(pos source.Pos, op token.Kind, a, b Value) Value {
	// ptr ± int, int + ptr, ptr - ptr.
	switch op {
	case token.Plus, token.Minus:
		if a.K == KPtr && b.K != KPtr {
			d := int(b.AsInt())
			if op == token.Minus {
				d = -d
			}
			p := *a.P
			if p.Cell != nil || p.Obj != nil {
				if d != 0 {
					m.Fail(pos, "pointer arithmetic on non-array pointer")
				}
				return a
			}
			p.Idx += d
			return ptrV(p)
		}
		if b.K == KPtr && op == token.Plus {
			return m.pointerBinary(pos, op, b, a)
		}
		if a.K == KPtr && b.K == KPtr && op == token.Minus {
			if !a.P.arrp || !b.P.arrp ||
				len(a.P.Arr) == 0 || len(b.P.Arr) == 0 || a.P.Arr[0] != b.P.Arr[0] {
				m.Fail(pos, "subtraction of pointers into different allocations")
			}
			return intV(int64(a.P.Idx - b.P.Idx))
		}
	case token.Eq, token.Ne, token.Lt, token.Gt, token.Le, token.Ge:
		// Comparisons against integral 0 (null constant).
		na, nb := a, b
		if na.K != KPtr {
			if na.AsInt() == 0 {
				na = nullV()
			} else {
				m.Fail(pos, "comparison of pointer with non-zero integer")
			}
		}
		if nb.K != KPtr {
			if nb.AsInt() == 0 {
				nb = nullV()
			} else {
				m.Fail(pos, "comparison of pointer with non-zero integer")
			}
		}
		ia, oa := ptrIdentity(na.P)
		ib, ob := ptrIdentity(nb.P)
		switch op {
		case token.Eq:
			return boolV(ia == ib && oa == ob)
		case token.Ne:
			return boolV(!(ia == ib && oa == ob))
		case token.Lt:
			return boolV(oa < ob)
		case token.Gt:
			return boolV(oa > ob)
		case token.Le:
			return boolV(oa <= ob)
		case token.Ge:
			return boolV(oa >= ob)
		}
	}
	m.Fail(pos, "invalid pointer operation %s", op)
	return Value{}
}

// convert adapts v to type t (numeric conversions, pointer passthrough).
func (m *Machine) Convert(v Value, t types.Type) Value {
	switch x := t.(type) {
	case *types.Basic:
		switch x.Kind {
		case types.Int:
			if v.K == KPtr {
				// Deterministic pointer-to-integer: null -> 0, else 1.
				if v.P.IsNull() {
					return intV(0)
				}
				return intV(1)
			}
			return intV(v.AsInt())
		case types.Char:
			return charV(byte(v.AsInt()))
		case types.Bool:
			return boolV(v.IsTruthy())
		case types.Double:
			return doubleV(v.AsFloat())
		case types.Void:
			return Value{K: KVoid}
		}
	case *types.Pointer:
		if v.K == KPtr {
			return v
		}
		if v.AsInt() == 0 {
			return nullV()
		}
		// Reinterpreting a nonzero integer as a pointer cannot be
		// materialized in the cell model.
		return nullV()
	case *types.MemberPointer:
		if v.K == KMemberPtr {
			return v
		}
		return Value{K: KMemberPtr}
	}
	return v
}
