package vm

import (
	"deadmembers/internal/hierarchy"
	"deadmembers/internal/interp"
	"deadmembers/internal/token"
	"deadmembers/internal/types"
)

// Executor compiles function bodies to bytecode on first call and runs
// them on a dispatch loop. It implements interp.Executor.
//
// An Executor is built per run (engine code constructs one per
// interp.Run / dynprof.Run invocation): the inline caches embedded in
// the bytecode resolve global-variable cells and field slots that are
// specific to one Machine, and mutation of those caches assumes a
// single goroutine.
type Executor struct {
	prog *types.Program
	h    *hierarchy.Graph
	info *types.Info

	chunks map[*types.Func]*chunk // nil entry = compile declined, tree-walk
	comp   compiler               // compiles every chunk of the run

	compiled int // functions compiled to bytecode
	fallback int // functions declined to the tree-walker

	pool []*frameState // reusable per-activation scratch state
}

// frameState is the scratch state of one bytecode activation, pooled on
// the Executor so recursive call chains do not allocate per call.
//
// cells holds the activation's own locals: a scalar or pointer local
// whose address is never taken (types.Var.AddrTaken) lives in the cell
// of its slot, which every activation that reuses the state reuses.
// Nothing else can reach such a cell, so it dies with the activation.
// Its slot still turns non-nil only when the declaration executes.
type frameState struct {
	slots []*interp.Cell
	cells []interp.Cell
	stack []interp.Value
	locs  []interp.Loc
	marks []int
	pend  []pending
}

func (e *Executor) acquire(numSlots int) *frameState {
	var fs *frameState
	if n := len(e.pool); n > 0 {
		fs = e.pool[n-1]
		e.pool = e.pool[:n-1]
	} else {
		fs = &frameState{}
	}
	if cap(fs.slots) < numSlots {
		fs.slots = make([]*interp.Cell, numSlots)
		fs.cells = make([]interp.Cell, numSlots)
	} else {
		fs.slots = fs.slots[:numSlots]
		clear(fs.slots)
	}
	fs.stack = fs.stack[:0]
	fs.locs = fs.locs[:0]
	fs.marks = fs.marks[:0]
	fs.pend = fs.pend[:0]
	return fs
}

func (e *Executor) release(fs *frameState) { e.pool = append(e.pool, fs) }

// NewExecutor builds a VM executor for one program. Pass it via
// interp.Options.Executor (or dynprof.Options.Executor).
func NewExecutor(prog *types.Program, h *hierarchy.Graph) *Executor {
	return &Executor{
		prog: prog, h: h, info: prog.Info,
		chunks: map[*types.Func]*chunk{},
		comp:   compiler{info: prog.Info, h: h, slotOf: map[*types.Var]int{}},
	}
}

// Counts reports how many distinct functions were compiled versus
// declined to the tree-walker so far.
func (e *Executor) Counts() (compiled, fallback int) { return e.compiled, e.fallback }

func (e *Executor) chunkFor(fn *types.Func) *chunk {
	ch, ok := e.chunks[fn]
	if !ok {
		ch = e.comp.compile(fn)
		e.chunks[fn] = ch
		if ch != nil {
			e.compiled++
		} else {
			e.fallback++
		}
	}
	return ch
}

// ExecBody implements interp.Executor. It declines (false) for
// functions whose bodies did not compile; otherwise it runs the
// bytecode and — matching the tree-walker's execFuncBody defer — it
// destroys the frame's counted locals in reverse order on both normal
// return and panic unwinding (runtime errors, cancellation).
func (e *Executor) ExecBody(m *interp.Machine, f *interp.Frame, fn *types.Func) (interp.Value, bool) {
	ch := e.chunkFor(fn)
	if ch == nil {
		return interp.Value{}, false
	}
	defer func() {
		for i := len(f.Locals) - 1; i >= 0; i-- {
			m.DestroyObject(f.Locals[i])
		}
	}()
	return e.run(m, f, ch), true
}

func (e *Executor) run(m *interp.Machine, f *interp.Frame, ch *chunk) interp.Value {
	code, refs := ch.code, ch.refs
	fs := e.acquire(len(ch.vars))
	slots, cells := fs.slots, fs.cells
	for i := range f.Params {
		if i < len(slots) {
			slots[i] = &f.Params[i]
		}
	}
	stack := fs.stack
	locs := fs.locs
	marks := fs.marks
	pend := fs.pend
	defer func() {
		// Hand the (possibly reallocated) scratch slices back to the
		// pool, on normal return and on runtime-error unwinding alike.
		fs.slots, fs.stack, fs.locs, fs.marks, fs.pend = slots, stack, locs, marks, pend
		e.release(fs)
	}()
	// Inline Step: same counter, same limit failure, same 1024-step
	// context poll — just without a call per statement.
	stepsP, stepMax, stepPoll := m.StepCounter()
	pc := 0
	for {
		ins := &code[pc]
		pc++
		if ins.stepped {
			// A fused opStep (peephole pass 5): identical accounting,
			// with the statement position preserved in pos2 for the
			// step-limit diagnostic.
			*stepsP++
			if s := *stepsP; s > stepMax {
				m.StepLimitExceeded(f, ins.pos2)
			} else if stepPoll && s&1023 == 0 {
				m.StepContextPoll()
			}
		}
		switch ins.op {
		case opConst:
			stack = pushScalar(stack, ch.consts[ins.a])
		case opStr:
			stack = append(stack, m.StringValue(refs[ins.r].str))
		case opThis:
			if f.This == nil {
				m.Fail(ins.pos, "this used with no receiver")
			}
			stack = append(stack, interp.ObjectPointer(f.This))
		case opPop:
			stack = stack[:len(stack)-1]

		case opLoadSlot:
			cell := slots[ins.a]
			if cell == nil {
				m.Fail(ins.pos, "variable %s has no storage (not in scope)", ch.vars[ins.a].Name)
			}
			stack = pushScalar(stack, cell.V)
		case opLoadGlobal:
			stack = append(stack, globalCell(m, ins, &refs[ins.r]).V)
		case opLoadField:
			stack = append(stack, fieldCellIC(m, ins, &refs[ins.r], f.This).V)
		case opMemberLoad:
			v := stack[len(stack)-1]
			obj := m.ReceiverFromValue(ins.pos2, v, ins.a == 1)
			stack[len(stack)-1] = fieldCellIC(m, ins, &refs[ins.r], obj).V
		case opIndexLoad:
			loc := indexLoc(m, ins, &stack)
			stack = append(stack, loc.Load())
		case opDerefLoad:
			v := stack[len(stack)-1]
			if v.K != interp.KPtr {
				m.Fail(ins.pos, "dereference of non-pointer")
			}
			stack[len(stack)-1] = m.PointerElem(ins.pos, v.Ptr(), 0).Load()
		case opMPtrLoad:
			loc := mptrLoc(m, ins, &stack)
			stack = append(stack, loc.Load())

		case opLvSlot:
			cell := slots[ins.a]
			if cell == nil {
				m.Fail(ins.pos, "variable %s has no storage (not in scope)", ch.vars[ins.a].Name)
			}
			locs = append(locs, interp.Loc{C: cell})
		case opLvGlobal:
			locs = append(locs, interp.Loc{C: globalCell(m, ins, &refs[ins.r])})
		case opLvField:
			locs = append(locs, interp.Loc{C: fieldCellIC(m, ins, &refs[ins.r], f.This)})
		case opLvMember:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			obj := m.ReceiverFromValue(ins.pos2, v, ins.a == 1)
			locs = append(locs, interp.Loc{C: fieldCellIC(m, ins, &refs[ins.r], obj)})
		case opLvIndex:
			locs = append(locs, indexLoc(m, ins, &stack))
		case opLvDeref:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v.K != interp.KPtr {
				m.Fail(ins.pos, "dereference of non-pointer")
			}
			locs = append(locs, m.PointerElem(ins.pos, v.Ptr(), 0))
		case opLvMPtr:
			locs = append(locs, mptrLoc(m, ins, &stack))

		case opLoadLoc:
			l := locs[len(locs)-1]
			locs = locs[:len(locs)-1]
			stack = append(stack, l.Load())
		case opAssign:
			rhs := stack[len(stack)-1]
			l := locs[len(locs)-1]
			locs = locs[:len(locs)-1]
			if t := refs[ins.r].typ; t != nil {
				rhs = m.Convert(rhs, t)
			}
			m.StoreLoc(l, rhs)
			stack[len(stack)-1] = l.Load()
		case opAssignOp:
			rhs := stack[len(stack)-1]
			l := locs[len(locs)-1]
			locs = locs[:len(locs)-1]
			res := m.ApplyBinary(ins.pos, token.Kind(ins.b), l.Load(), rhs)
			if t := refs[ins.r].typ; t != nil {
				res = m.Convert(res, t)
			}
			m.StoreLoc(l, res)
			stack[len(stack)-1] = res
		case opPostfix:
			l := locs[len(locs)-1]
			locs = locs[:len(locs)-1]
			old := l.Load()
			m.StoreLoc(l, m.IncDec(ins.pos, old, ins.a == 1))
			stack = append(stack, old)
		case opPreIncDec:
			l := locs[len(locs)-1]
			locs = locs[:len(locs)-1]
			nv := m.IncDec(ins.pos, l.Load(), ins.a == 1)
			m.StoreLoc(l, nv)
			stack = append(stack, nv)
		case opAddrOf:
			l := locs[len(locs)-1]
			locs = locs[:len(locs)-1]
			stack = append(stack, interp.AddrOfLoc(l))
		case opAddrIndexTry:
			idx := stack[len(stack)-1]
			base := stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			if v, ok := m.TryAddrOfIndex(ins.pos, base, idx.AsInt()); ok {
				stack = append(stack, v)
				pc = int(ins.a)
			}

		case opReceiver:
			v := stack[len(stack)-1]
			obj := m.ReceiverFromValue(ins.pos, v, ins.a == 1)
			stack[len(stack)-1] = interp.ObjectPointer(obj)

		case opNeg:
			v := stack[len(stack)-1]
			if v.K == interp.KDouble {
				stack[len(stack)-1] = interp.DoubleValue(-v.Float())
			} else {
				stack[len(stack)-1] = interp.IntValue(-v.AsInt())
			}
		case opNot:
			stack[len(stack)-1] = interp.BoolValue(!stack[len(stack)-1].IsTruthy())
		case opTilde:
			v := stack[len(stack)-1]
			stack[len(stack)-1] = interp.IntValue(^v.AsInt())
		case opTruthy:
			stack[len(stack)-1] = interp.BoolValue(stack[len(stack)-1].IsTruthy())
		case opBinary:
			n := len(stack)
			stack[n-2] = m.ApplyBinary(ins.pos, token.Kind(ins.b), stack[n-2], stack[n-1])
			stack = stack[:n-1]
		case opIntBin, opIntBinSS, opIntBinSC, opIntBinCS, opIntBinXS, opIntBinXC:
			// One shared handler for the one-stage int-binop family:
			// the opcodes differ only in where the operands come from
			// (stack, slots, consts) and where the result goes (push,
			// slot store, branch — ins.mode). The operator switch is
			// inlined (not a helper call) because a call here forces
			// the dispatch loop's stack slice to spill around every
			// binop, which profiles as the single largest cost in
			// arithmetic-heavy code.
			var av, bv *interp.Value
			switch ins.op {
			case opIntBin:
				n := len(stack)
				av, bv = &stack[n-2], &stack[n-1]
			case opIntBinXC:
				av, bv = &stack[len(stack)-1], &ch.consts[ins.b]
			default:
				c1 := slots[ins.a]
				if c1 == nil {
					m.Fail(ins.pos, "variable %s has no storage (not in scope)", ch.vars[ins.a].Name)
				}
				switch ins.op {
				case opIntBinSS:
					c2 := slots[ins.b]
					if c2 == nil {
						m.Fail(ins.pos, "variable %s has no storage (not in scope)", ch.vars[ins.b].Name)
					}
					av, bv = &c1.V, &c2.V
				case opIntBinSC:
					av, bv = &c1.V, &ch.consts[ins.b]
				case opIntBinXS:
					av, bv = &stack[len(stack)-1], &c1.V
				default: // opIntBinCS
					av, bv = &ch.consts[ins.b], &c1.V
				}
			}
			var r interp.Value
			if av.K >= interp.KInt && av.K <= interp.KBool && bv.K >= interp.KInt && bv.K <= interp.KBool {
				x, y := av.Int(), bv.Int()
				switch token.Kind(ins.c) {
				case token.Plus:
					r = interp.IntValue(x + y)
				case token.Minus:
					r = interp.IntValue(x - y)
				case token.Star:
					r = interp.IntValue(x * y)
				case token.Slash:
					if y == 0 {
						m.Fail(ins.pos, "integer division by zero")
					}
					r = interp.IntValue(x / y)
				case token.Percent:
					if y == 0 {
						m.Fail(ins.pos, "integer modulo by zero")
					}
					r = interp.IntValue(x % y)
				case token.Shl:
					r = interp.IntValue(x << (uint(y) & 63))
				case token.Shr:
					r = interp.IntValue(x >> (uint(y) & 63))
				case token.Amp:
					r = interp.IntValue(x & y)
				case token.Pipe:
					r = interp.IntValue(x | y)
				case token.Caret:
					r = interp.IntValue(x ^ y)
				case token.Eq:
					r = interp.BoolValue(x == y)
				case token.Ne:
					r = interp.BoolValue(x != y)
				case token.Lt:
					r = interp.BoolValue(x < y)
				case token.Gt:
					r = interp.BoolValue(x > y)
				case token.Le:
					r = interp.BoolValue(x <= y)
				case token.Ge:
					r = interp.BoolValue(x >= y)
				default:
					r = m.ApplyBinary(ins.pos, token.Kind(ins.c), *av, *bv)
				}
			} else {
				// An integral static type holding an unexpected kind:
				// the general path owns that behaviour.
				r = m.ApplyBinary(ins.pos, token.Kind(ins.c), *av, *bv)
			}
			switch ins.mode {
			case modePush:
				switch ins.op {
				case opIntBin:
					interp.StoreScalar(&stack[len(stack)-2], r)
					stack = stack[:len(stack)-1]
				case opIntBinXS, opIntBinXC:
					interp.StoreScalar(&stack[len(stack)-1], r)
				default:
					stack = pushScalar(stack, r)
				}
			case modeStore:
				switch ins.op {
				case opIntBin:
					stack = stack[:len(stack)-2]
				case opIntBinXS, opIntBinXC:
					stack = stack[:len(stack)-1]
				}
				// Inline opStoreSlotI: the same convert-to-int, into a
				// slot the statement's lvalue probe already proved
				// non-nil.
				iv := r.Int()
				switch r.K {
				case interp.KPtr:
					iv = 1
					if r.Ptr().IsNull() {
						iv = 0
					}
				case interp.KDouble:
					iv = int64(r.Float())
				}
				interp.StoreScalar(&slots[ins.d].V, interp.IntValue(iv))
			case modeJF:
				switch ins.op {
				case opIntBin:
					stack = stack[:len(stack)-2]
				case opIntBinXS, opIntBinXC:
					stack = stack[:len(stack)-1]
				}
				if !r.IsTruthy() {
					pc = int(ins.d)
				}
			}

		case opIntBin2SS, opIntBin2SC, opIntBin2CS:
			// Two-stage fused binop: stage one is a one-stage form
			// (slot/const operands, operator c), stage two combines the
			// value pushed before the sequence with that result via
			// operator e. The all-integral path stays on scalar locals
			// (taking a Value's address here costs the whole dispatch
			// loop its register allocation); everything else goes to
			// the general helper, which re-creates the unfused
			// behaviour operator by operator.
			c1 := slots[ins.a]
			if c1 == nil {
				m.Fail(ins.pos, "variable %s has no storage (not in scope)", ch.vars[ins.a].Name)
			}
			var av, bv *interp.Value
			switch ins.op {
			case opIntBin2SS:
				c2 := slots[ins.b]
				if c2 == nil {
					m.Fail(ins.pos, "variable %s has no storage (not in scope)", ch.vars[ins.b].Name)
				}
				av, bv = &c1.V, &c2.V
			case opIntBin2SC:
				av, bv = &c1.V, &ch.consts[ins.b]
			default: // opIntBin2CS
				av, bv = &ch.consts[ins.b], &c1.V
			}
			lp := &stack[len(stack)-1]
			var r interp.Value
			if lp.K >= interp.KInt && lp.K <= interp.KBool &&
				av.K >= interp.KInt && av.K <= interp.KBool && bv.K >= interp.KInt && bv.K <= interp.KBool {
				fast := true
				var ri int64
				x, y := av.Int(), bv.Int()
				switch token.Kind(ins.c) {
				case token.Plus:
					ri = x + y
				case token.Minus:
					ri = x - y
				case token.Star:
					ri = x * y
				case token.Slash:
					if y == 0 {
						m.Fail(ins.pos, "integer division by zero")
					}
					ri = x / y
				case token.Percent:
					if y == 0 {
						m.Fail(ins.pos, "integer modulo by zero")
					}
					ri = x % y
				case token.Shl:
					ri = x << (uint(y) & 63)
				case token.Shr:
					ri = x >> (uint(y) & 63)
				case token.Amp:
					ri = x & y
				case token.Pipe:
					ri = x | y
				case token.Caret:
					ri = x ^ y
				case token.Eq:
					ri = b2i(x == y)
				case token.Ne:
					ri = b2i(x != y)
				case token.Lt:
					ri = b2i(x < y)
				case token.Gt:
					ri = b2i(x > y)
				case token.Le:
					ri = b2i(x <= y)
				case token.Ge:
					ri = b2i(x >= y)
				default:
					fast = false
				}
				if fast {
					xo, yo := lp.Int(), ri
					switch token.Kind(ins.e) {
					case token.Plus:
						r = interp.IntValue(xo + yo)
					case token.Minus:
						r = interp.IntValue(xo - yo)
					case token.Star:
						r = interp.IntValue(xo * yo)
					case token.Slash:
						if yo == 0 {
							m.Fail(ins.pos, "integer division by zero")
						}
						r = interp.IntValue(xo / yo)
					case token.Percent:
						if yo == 0 {
							m.Fail(ins.pos, "integer modulo by zero")
						}
						r = interp.IntValue(xo % yo)
					case token.Shl:
						r = interp.IntValue(xo << (uint(yo) & 63))
					case token.Shr:
						r = interp.IntValue(xo >> (uint(yo) & 63))
					case token.Amp:
						r = interp.IntValue(xo & yo)
					case token.Pipe:
						r = interp.IntValue(xo | yo)
					case token.Caret:
						r = interp.IntValue(xo ^ yo)
					case token.Eq:
						r = interp.BoolValue(xo == yo)
					case token.Ne:
						r = interp.BoolValue(xo != yo)
					case token.Lt:
						r = interp.BoolValue(xo < yo)
					case token.Gt:
						r = interp.BoolValue(xo > yo)
					case token.Le:
						r = interp.BoolValue(xo <= yo)
					case token.Ge:
						r = interp.BoolValue(xo >= yo)
					default:
						fast = false
					}
				}
				if !fast {
					r = intBin2Slow(m, ins, lp, av, bv)
				}
			} else {
				r = intBin2Slow(m, ins, lp, av, bv)
			}
			switch ins.mode {
			case modePush:
				interp.StoreScalar(&stack[len(stack)-1], r)
			case modeStore:
				stack = stack[:len(stack)-1]
				iv := r.Int()
				switch r.K {
				case interp.KPtr:
					iv = 1
					if r.Ptr().IsNull() {
						iv = 0
					}
				case interp.KDouble:
					iv = int64(r.Float())
				}
				interp.StoreScalar(&slots[ins.d].V, interp.IntValue(iv))
			case modeJF:
				stack = stack[:len(stack)-1]
				if !r.IsTruthy() {
					pc = int(ins.d)
				}
			}
		case opConvert:
			stack[len(stack)-1] = m.Convert(stack[len(stack)-1], refs[ins.r].typ)

		case opJump:
			pc = int(ins.a)
		case opJF:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !v.IsTruthy() {
				pc = int(ins.a)
			}
		case opJT:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v.IsTruthy() {
				pc = int(ins.a)
			}
		case opCaseEq:
			cv := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if cv.AsInt() == stack[len(stack)-1].AsInt() {
				stack = stack[:len(stack)-1]
				pc = int(ins.a)
			}

		case opStep:
			*stepsP++
			if s := *stepsP; s > stepMax {
				m.StepLimitExceeded(f, ins.pos)
			} else if stepPoll && s&1023 == 0 {
				m.StepContextPoll()
			}
		case opScopePush:
			marks = append(marks, len(f.Locals))
		case opScopePop:
			mark := marks[len(marks)-1]
			marks = marks[:len(marks)-1]
			m.PopScope(f, mark)
		case opScopePopN:
			mark := marks[len(marks)-int(ins.a)]
			marks = marks[:len(marks)-int(ins.a)]
			m.PopScope(f, mark)

		case opReturnValue:
			v := stack[len(stack)-1]
			if t := refs[ins.r].typ; t != nil {
				v = m.Convert(v, t)
			}
			if o := v.Obj(); o != nil {
				v = interp.ObjValue(m.CloneObject(o)) // return by value
			}
			return v
		case opReturnVoid:
			return interp.Value{K: interp.KVoid}
		case opFail:
			m.Fail(ins.pos, "%s", refs[ins.r].str)

		case opPendFunc:
			pend = append(pend, pending{fn: refs[ins.r].fn})
		case opPendImplicit:
			if f.This == nil {
				m.Fail(ins.pos, "implicit member call with no receiver")
			}
			pend = append(pend, pending{fn: dispatchIC(m, ins, &refs[ins.r], f.This), obj: f.This})
		case opPendMethod:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			obj := m.ReceiverFromValue(ins.pos2, v, ins.a == 1)
			pend = append(pend, pending{fn: dispatchIC(m, ins, &refs[ins.r], obj), obj: obj})
		case opCall:
			n := int(ins.a)
			args := stack[len(stack)-n:]
			pe := pend[len(pend)-1]
			pend = pend[:len(pend)-1]
			res := m.CallFunction(pe.fn, pe.obj, args)
			stack = stack[:len(stack)-n]
			stack = append(stack, res)

		case opPrint:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			m.PrintValueTyped(v, refs[ins.r].typ)
		case opPrintNL:
			m.PrintNewline()
		case opMalloc:
			v := stack[len(stack)-1]
			stack[len(stack)-1] = m.Malloc(ins.pos, v.AsInt())
		case opFree:
			v := stack[len(stack)-1]
			stack[len(stack)-1] = m.FreeValue(ins.pos, v)
		case opRandSeed:
			v := stack[len(stack)-1]
			stack[len(stack)-1] = m.RandSeed(v.AsInt())
		case opRandNext:
			v := stack[len(stack)-1]
			stack[len(stack)-1] = m.RandNext(ins.pos, v.AsInt())
		case opClock:
			stack = append(stack, m.ClockValue())

		case opNewObj:
			obj := m.NewObject(refs[ins.r].cls, true)
			stack = append(stack, interp.ObjValue(obj))
		case opNewHeap:
			stack = append(stack, m.NewHeapObject(refs[ins.r].cls))
		case opFinishNew:
			n := int(ins.a)
			args := stack[len(stack)-n:]
			p := stack[len(stack)-n-1]
			res := m.FinishNew(p, refs[ins.r].fn, args)
			stack = stack[:len(stack)-n-1]
			stack = append(stack, res)
		case opNewArr:
			v := stack[len(stack)-1]
			stack[len(stack)-1] = m.NewArray(ins.pos, refs[ins.r].typ, v.AsInt())
		case opNewScalar:
			if ins.a == 1 {
				v := stack[len(stack)-1]
				stack[len(stack)-1] = m.NewScalar(refs[ins.r].typ, &v)
			} else {
				stack = append(stack, m.NewScalar(refs[ins.r].typ, nil))
			}
		case opDelete:
			v := stack[len(stack)-1]
			m.DeleteValue(ins.pos, v, ins.a == 1, refs[ins.r].cls)
			stack[len(stack)-1] = interp.Value{K: interp.KVoid}

		case opAssignPop:
			rhs := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			l := locs[len(locs)-1]
			locs = locs[:len(locs)-1]
			if t := refs[ins.r].typ; t != nil {
				rhs = m.Convert(rhs, t)
			}
			m.StoreLoc(l, rhs)
		case opAssignOpPop:
			rhs := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			l := locs[len(locs)-1]
			locs = locs[:len(locs)-1]
			res := m.ApplyBinary(ins.pos, token.Kind(ins.b), l.Load(), rhs)
			if t := refs[ins.r].typ; t != nil {
				res = m.Convert(res, t)
			}
			m.StoreLoc(l, res)
		case opIncDecPop:
			l := locs[len(locs)-1]
			locs = locs[:len(locs)-1]
			m.StoreLoc(l, m.IncDec(ins.pos, l.Load(), ins.a == 1))
		case opCheckSlot:
			if slots[ins.a] == nil {
				m.Fail(ins.pos, "variable %s has no storage (not in scope)", ch.vars[ins.a].Name)
			}
		case opStoreSlotI:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			// Inline Convert-to-int: KPtr maps null→0 else 1, KDouble
			// truncates, the integral kinds pass Int through.
			var iv int64
			switch v.K {
			case interp.KPtr:
				if !v.Ptr().IsNull() {
					iv = 1
				}
			case interp.KDouble:
				iv = int64(v.Float())
			default:
				iv = v.Int()
			}
			slots[ins.a].V = interp.IntValue(iv)
		case opIncSlotI:
			cell := slots[ins.a]
			if cell == nil {
				m.Fail(ins.pos, "variable %s has no storage (not in scope)", ch.vars[ins.a].Name)
			}
			if v := cell.V; v.K == interp.KInt {
				cell.V = interp.IntValue(v.Int() + int64(ins.b))
			} else {
				// An int slot holding a non-int kind: general add+convert.
				r := m.ApplyBinary(ins.pos, token.Plus, v, interp.IntValue(int64(ins.b)))
				m.StoreInto(cell, m.Convert(r, ch.vars[ins.a].Type))
			}

		case opDeclCell:
			slots[ins.a] = &interp.Cell{}
		case opDeclZero:
			slots[ins.a] = &interp.Cell{V: m.ZeroValue(refs[ins.r].typ)}
		case opDeclLocal:
			cell := &cells[ins.a]
			cell.V = m.ZeroValue(refs[ins.r].typ)
			slots[ins.a] = cell
		case opDeclStore:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			m.StoreInto(slots[ins.a], m.Convert(v, refs[ins.r].typ))
		case opDeclConstruct:
			n := int(ins.b)
			args := stack[len(stack)-n:]
			objv := stack[len(stack)-n-1]
			m.ConstructObject(objv.Obj(), refs[ins.r].fn, args)
			stack = stack[:len(stack)-n-1]
			slots[ins.a].V = objv
			f.Locals = append(f.Locals, objv.Obj())
		case opDeclCopyInit:
			src := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			obj := m.NewObject(refs[ins.r].cls, true)
			if o := src.Obj(); o != nil {
				m.CopyObject(obj, o)
			}
			slots[ins.a].V = interp.ObjValue(obj)
			f.Locals = append(f.Locals, obj)
		case opDeclArray:
			cell := &interp.Cell{}
			slots[ins.a] = cell
			var objs []*interp.Object
			cell.V = m.MakeArray(refs[ins.r].typ.(*types.Array), &objs)
			f.Locals = append(f.Locals, objs...)
		}
	}
}

// globalCell resolves the instruction's global variable r.vr to its
// cell, caching the result. Globals register incrementally while their
// initializers run, so an early access must still fail exactly like the
// tree-walker's varCell; only successful lookups are cached.
func globalCell(m *interp.Machine, ins *instr, r *ref) *interp.Cell {
	if r.icCell != nil {
		return r.icCell
	}
	c, ok := m.GlobalCell(r.vr)
	if !ok {
		m.Fail(ins.pos, "variable %s has no storage (not in scope)", r.vr.Name)
	}
	r.icCell = c
	return c
}

// fieldCellIC resolves the field r.fld on obj through the instruction's
// monomorphic inline cache: a hit on the receiver's dynamic class maps
// straight to a flat cell index in the class's field plan. Misses go
// through the shared FieldCell (which owns the null-receiver and
// invalid-downcast diagnostics) and then fill the cache.
func fieldCellIC(m *interp.Machine, ins *instr, r *ref, obj *interp.Object) *interp.Cell {
	if obj != nil && obj.Class == r.icClass {
		return &obj.Cells[r.icIdx]
	}
	cell := m.FieldCell(ins.pos, obj, r.fld)
	r.icClass = obj.Class
	r.icIdx = obj.Plan.Index[r.fld]
	return cell
}

// dispatchIC resolves the call target of method r.fn, qualified by r.str,
// for obj through the instruction's inline cache. The class hierarchy is
// frozen after sema, so a cached (class → target) pair never invalidates.
func dispatchIC(m *interp.Machine, ins *instr, r *ref, obj *interp.Object) *types.Func {
	if obj.Class == r.icClass {
		return r.icFn
	}
	target := m.Dispatch(ins.pos, obj, r.fn, true, r.str)
	r.icClass = obj.Class
	r.icFn = target
	return target
}

// indexLoc materializes X[I] as a location; the tree-walker's bounds and
// pointer checks apply verbatim.
func indexLoc(m *interp.Machine, ins *instr, stack *[]interp.Value) interp.Loc {
	s := *stack
	idxV := s[len(s)-1]
	base := s[len(s)-2]
	*stack = s[:len(s)-2]
	idx := int(idxV.AsInt())
	switch base.K {
	case interp.KArr:
		cells := base.Cells()
		if idx < 0 || idx >= len(cells) {
			m.Fail(ins.pos, "array index %d out of range [0,%d)", idx, len(cells))
		}
		return interp.Loc{C: cells[idx]}
	case interp.KPtr:
		return m.PointerElem(ins.pos, base.Ptr(), idx)
	}
	m.Fail(ins.pos, "indexing non-array value")
	return interp.Loc{}
}

// mptrLoc materializes X.*P / X->*P as a location. The receiver was
// already converted to an object pointer by opReceiver.
func mptrLoc(m *interp.Machine, ins *instr, stack *[]interp.Value) interp.Loc {
	s := *stack
	pv := s[len(s)-1]
	objv := s[len(s)-2]
	*stack = s[:len(s)-2]
	fld := pv.MemberPtr()
	if fld == nil {
		m.Fail(ins.pos, "dereference of null pointer-to-member")
	}
	return interp.Loc{C: m.FieldCell(ins.pos, objv.Ptr().Obj, fld)}
}

// intBin2Slow is the out-of-line path of the two-stage fused binop: an
// operand with an unexpected runtime kind, or an operator outside the
// inline set. It reproduces the unfused sequence exactly — inner binop
// first (integral fast rules, ApplyBinary otherwise), then the outer
// one the same way.
func intBin2Slow(m *interp.Machine, ins *instr, lhs, av, bv *interp.Value) interp.Value {
	inner := intBinGen(m, ins, token.Kind(ins.c), av, bv)
	return intBinGen(m, ins, token.Kind(ins.e), lhs, &inner)
}

// intBinGen applies one statically-integral binary operator with the
// same observable behaviour as the inline opIntBin handler.
func intBinGen(m *interp.Machine, ins *instr, op token.Kind, av, bv *interp.Value) interp.Value {
	if av.K < interp.KInt || av.K > interp.KBool || bv.K < interp.KInt || bv.K > interp.KBool {
		return m.ApplyBinary(ins.pos, op, *av, *bv)
	}
	x, y := av.Int(), bv.Int()
	switch op {
	case token.Plus:
		return interp.IntValue(x + y)
	case token.Minus:
		return interp.IntValue(x - y)
	case token.Star:
		return interp.IntValue(x * y)
	case token.Slash:
		if y == 0 {
			m.Fail(ins.pos, "integer division by zero")
		}
		return interp.IntValue(x / y)
	case token.Percent:
		if y == 0 {
			m.Fail(ins.pos, "integer modulo by zero")
		}
		return interp.IntValue(x % y)
	case token.Shl:
		return interp.IntValue(x << (uint(y) & 63))
	case token.Shr:
		return interp.IntValue(x >> (uint(y) & 63))
	case token.Amp:
		return interp.IntValue(x & y)
	case token.Pipe:
		return interp.IntValue(x | y)
	case token.Caret:
		return interp.IntValue(x ^ y)
	case token.Eq:
		return interp.BoolValue(x == y)
	case token.Ne:
		return interp.BoolValue(x != y)
	case token.Lt:
		return interp.BoolValue(x < y)
	case token.Gt:
		return interp.BoolValue(x > y)
	case token.Le:
		return interp.BoolValue(x <= y)
	case token.Ge:
		return interp.BoolValue(x >= y)
	}
	return m.ApplyBinary(ins.pos, op, *av, *bv)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// pushScalar appends r to the stack, writing in place through
// interp.StoreScalar when spare capacity exists: a scalar over a popped
// scalar writes no reference word, and a popped slot's stale reference
// makes StoreScalar fall back to the full copy.
func pushScalar(stack []interp.Value, r interp.Value) []interp.Value {
	if len(stack) < cap(stack) {
		stack = stack[:len(stack)+1]
		interp.StoreScalar(&stack[len(stack)-1], r)
		return stack
	}
	return append(stack, r)
}
