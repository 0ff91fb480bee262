package interp

import (
	"deadmembers/internal/ast"
	"deadmembers/internal/types"
)

// pushScope/PopScope manage block-scoped class objects: objects declared
// in a block are destroyed, in reverse order, when the block exits —
// normally or by break/continue/return unwinding. A mark is a snapshot
// of len(f.Locals); PopScope is exported for executors, which replicate
// the same discipline with explicit scope instructions.
func (f *Frame) pushScope() int { return len(f.Locals) }

func (m *Machine) PopScope(f *Frame, mark int) {
	for i := len(f.Locals) - 1; i >= mark; i-- {
		m.DestroyObject(f.Locals[i])
	}
	f.Locals = f.Locals[:mark]
}

// execScoped runs s in its own destructor scope.
func (m *Machine) execScoped(f *Frame, s ast.Stmt) {
	mark := f.pushScope()
	defer m.PopScope(f, mark)
	m.execStmt(f, s)
}

// execStmt executes one statement.
func (m *Machine) execStmt(f *Frame, s ast.Stmt) {
	m.Step(f, s.Pos())
	switch x := s.(type) {
	case *ast.BlockStmt:
		mark := f.pushScope()
		defer m.PopScope(f, mark)
		for _, st := range x.Stmts {
			m.execStmt(f, st)
		}

	case *ast.DeclStmt:
		m.execDecl(f, x.Var)

	case *ast.ExprStmt:
		m.evalExpr(f, x.X)

	case *ast.IfStmt:
		if m.evalExpr(f, x.Cond).IsTruthy() {
			m.execScoped(f, x.Then)
		} else if x.Else != nil {
			m.execScoped(f, x.Else)
		}

	case *ast.WhileStmt:
		for m.evalExpr(f, x.Cond).IsTruthy() {
			if m.execLoopBody(f, x.Body) {
				break
			}
		}

	case *ast.DoWhileStmt:
		for {
			if m.execLoopBody(f, x.Body) {
				break
			}
			if !m.evalExpr(f, x.Cond).IsTruthy() {
				break
			}
		}

	case *ast.ForStmt:
		mark := f.pushScope()
		defer m.PopScope(f, mark)
		if x.Init != nil {
			m.execStmt(f, x.Init)
		}
		for x.Cond == nil || m.evalExpr(f, x.Cond).IsTruthy() {
			if m.execLoopBody(f, x.Body) {
				break
			}
			if x.Post != nil {
				m.evalExpr(f, x.Post)
			}
		}

	case *ast.SwitchStmt:
		m.execSwitch(f, x)

	case *ast.ReturnStmt:
		var v Value
		if x.X != nil {
			v = m.evalExpr(f, x.X)
			if f.Fn != nil && f.Fn.Return != nil {
				v = m.Convert(v, f.Fn.Return)
			}
			if o := v.Obj(); o != nil {
				v = ObjValue(m.CloneObject(o)) // return by value
			}
		} else {
			v = Value{K: KVoid}
		}
		panic(ctrlReturn{v})

	case *ast.BreakStmt:
		panic(ctrlBreak{})

	case *ast.ContinueStmt:
		panic(ctrlContinue{})
	}
}

// execLoopBody runs one iteration; reports true when the loop must stop
// (break). continue is absorbed.
func (m *Machine) execLoopBody(f *Frame, body ast.Stmt) (stop bool) {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case ctrlBreak:
				stop = true
			case ctrlContinue:
				stop = false
			default:
				panic(r)
			}
		}
	}()
	m.execScoped(f, body)
	return false
}

// execSwitch evaluates the scrutinee and runs the matching case group (or
// default). MC++ cases do not fall through; break exits the switch.
func (m *Machine) execSwitch(f *Frame, x *ast.SwitchStmt) {
	v := m.evalExpr(f, x.X).AsInt()
	var target *ast.SwitchCase
	var deflt *ast.SwitchCase
	for i := range x.Cases {
		cs := &x.Cases[i]
		if cs.Values == nil {
			deflt = cs
			continue
		}
		for _, ve := range cs.Values {
			if m.evalExpr(f, ve).AsInt() == v {
				target = cs
				break
			}
		}
		if target != nil {
			break
		}
	}
	if target == nil {
		target = deflt
	}
	if target == nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(ctrlBreak); ok {
				return // break exits the switch
			}
			panic(r)
		}
	}()
	mark := f.pushScope()
	defer m.PopScope(f, mark)
	for _, st := range target.Body {
		m.execStmt(f, st)
	}
}

// execDecl executes a local variable declaration.
func (m *Machine) execDecl(f *Frame, d *ast.VarDecl) {
	v := m.info.VarObjects[d]
	t := m.info.VarTypes[d]
	cell := &Cell{}
	if f.Vars == nil {
		f.Vars = map[*types.Var]*Cell{}
	}
	f.Vars[v] = cell

	if cls := types.IsClass(t); cls != nil {
		if d.Init != nil {
			src := m.evalExpr(f, d.Init)
			obj := m.NewObject(cls, true)
			if o := src.Obj(); o != nil {
				m.CopyObject(obj, o)
			}
			cell.V = ObjValue(obj)
			f.Locals = append(f.Locals, obj)
			return
		}
		obj := m.NewObject(cls, true)
		var args []Value
		for _, a := range d.CtorArgs {
			args = append(args, m.evalExpr(f, a))
		}
		m.ConstructObject(obj, m.info.VarCtors[d], args)
		cell.V = ObjValue(obj)
		f.Locals = append(f.Locals, obj)
		return
	}

	if arr, ok := t.(*types.Array); ok {
		var objs []*Object
		cell.V = m.MakeArray(arr, &objs)
		f.Locals = append(f.Locals, objs...)
		return
	}

	cell.V = m.ZeroValue(t)
	var init ast.Expr
	if d.Init != nil {
		init = d.Init
	} else if len(d.CtorArgs) == 1 {
		init = d.CtorArgs[0]
	}
	if init != nil {
		m.StoreInto(cell, m.Convert(m.evalExpr(f, init), t))
	}
}
