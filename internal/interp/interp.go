package interp

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"deadmembers/internal/ast"
	"deadmembers/internal/failure"
	"deadmembers/internal/heapsim"
	"deadmembers/internal/hierarchy"
	"deadmembers/internal/source"
	"deadmembers/internal/types"
)

// Options configures an execution.
type Options struct {
	// Ledger, when non-nil, receives every class-object allocation and
	// deallocation.
	Ledger *heapsim.Ledger

	// DeadField, when non-nil, classifies fields as dead for the adjusted
	// (dead-members-removed) ledger accounting.
	DeadField func(*types.Field) bool

	// Output receives print/println output; defaults to an internal
	// buffer exposed on Result.
	Output io.Writer

	// MaxSteps bounds executed statements (default 200,000,000).
	MaxSteps int64

	// MaxDepth bounds call nesting (default 10,000).
	MaxDepth int

	// Context, when non-nil, is polled at the interpreter's step boundary
	// (every 1024 steps, alongside the MaxSteps check). Cancellation or
	// deadline expiry aborts the run with a *CancelError.
	Context context.Context

	// FileSet, when non-nil, lets runtime diagnostics (currently the
	// step-budget exhaustion error) name the source position of the
	// statement that tripped them.
	FileSet *source.FileSet

	// Executor, when non-nil, is offered every function body before the
	// tree-walker runs it. Every production run installs the bytecode
	// VM (internal/vm) here; a nil Executor leaves all bodies to the
	// tree-walker, which tests use as the VM's reference oracle.
	// Construction/destruction protocol, globals, builtins, the ledger,
	// and the step counter stay on this shared runtime core, which is
	// what keeps the two evaluators' instrumented heaps byte-identical.
	Executor Executor
}

// Executor runs function bodies on behalf of the interpreter. ExecBody
// returns (value, true) when it executed fn's body in frame f, or
// (zero, false) to decline — the tree-walker then runs the body. An
// executor must preserve the tree-walker's observable semantics exactly:
// statement step accounting (Machine.Step), evaluation order, ledger
// records, and error positions/messages.
type Executor interface {
	ExecBody(m *Machine, f *Frame, fn *types.Func) (Value, bool)
}

// Result reports a completed execution.
type Result struct {
	ExitCode int
	Steps    int64
	Output   string // captured output (empty if Options.Output was set)
}

// RuntimeError is an execution failure (null dereference, division by
// zero, step exhaustion, ...).
type RuntimeError struct {
	Pos source.Pos
	Msg string
}

func (e *RuntimeError) Error() string { return "runtime error: " + e.Msg }

// CancelError reports an execution aborted by context cancellation or
// deadline expiry. Unwrap exposes the context's error so callers can use
// errors.Is(err, context.DeadlineExceeded) / context.Canceled.
type CancelError struct {
	Err error
}

func (e *CancelError) Error() string { return "execution cancelled: " + e.Err.Error() }
func (e *CancelError) Unwrap() error { return e.Err }

// control-flow signals (propagated via panic, caught structurally).
type ctrlReturn struct{ v Value }
type ctrlBreak struct{}
type ctrlContinue struct{}

// Machine executes one program.
type Machine struct {
	prog *types.Program
	h    *hierarchy.Graph
	info *types.Info
	opts Options

	out     io.Writer
	buf     *bytes.Buffer
	globals map[*types.Var]*Cell
	gObjs   []*Object // global class objects, for end-of-run destruction

	steps    int64
	maxSteps int64
	depth    int
	maxDepth int
	rng      uint64
	ctx      context.Context
	fset     *source.FileSet
	plans    map[*types.Class]*FieldPlan

	// frames is the stack of activation records, reused last in, first
	// out: frames[:nframes] are in use (see pushFrame).
	frames  []*Frame
	nframes int
}

// Run executes prog from main under opts.
func Run(prog *types.Program, h *hierarchy.Graph, opts Options) (res *Result, err error) {
	if prog.Main == nil {
		return nil, fmt.Errorf("interp: program has no main function")
	}
	m := &Machine{
		prog:     prog,
		h:        h,
		info:     prog.Info,
		opts:     opts,
		globals:  map[*types.Var]*Cell{},
		maxSteps: opts.MaxSteps,
		maxDepth: opts.MaxDepth,
		rng:      0x2545F4914F6CDD1D,
		ctx:      opts.Context,
		fset:     opts.FileSet,
		plans:    map[*types.Class]*FieldPlan{},
	}
	if m.maxSteps <= 0 {
		m.maxSteps = 200_000_000
	}
	if m.maxDepth <= 0 {
		m.maxDepth = 10_000
	}
	if opts.Output != nil {
		m.out = opts.Output
	} else {
		m.buf = &bytes.Buffer{}
		m.out = m.buf
	}

	defer func() {
		if r := recover(); r != nil {
			res = nil
			switch x := r.(type) {
			case *RuntimeError:
				err = x
			case *CancelError:
				err = x
			default:
				// An interpreter bug tripped by this program: contain it as
				// a structured failure instead of killing the process.
				err = failure.New("interp", "program", r)
			}
		}
	}()

	m.initGlobals()
	ret := m.CallFunction(prog.Main, nil, nil)
	m.destroyGlobals()

	res = &Result{ExitCode: int(ret.AsInt()), Steps: m.steps}
	if m.buf != nil {
		res.Output = m.buf.String()
	}
	return res, nil
}

func (m *Machine) Fail(pos source.Pos, format string, args ...interface{}) {
	panic(&RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Step accounts one executed statement at pos in frame f. It is called
// at the start of every statement by both engines; the step counter is
// program-observable (the clock() builtin), so an Executor must call it
// exactly where the tree-walker would.
func (m *Machine) Step(f *Frame, pos source.Pos) {
	m.steps++
	if m.steps > m.maxSteps {
		m.StepLimitExceeded(f, pos)
	}
	if m.ctx != nil && m.steps&1023 == 0 {
		m.StepContextPoll()
	}
}

// StepCounter exposes the live step counter, the limit, and whether a
// context is installed, so a bytecode engine can inline the
// per-statement accounting instead of calling Step. The counter is the
// same one clock() reads, so inlined increments stay observable; the
// engine must mirror Step exactly — increment, then StepLimitExceeded
// past the limit, then StepContextPoll on every 1024th step.
func (m *Machine) StepCounter() (counter *int64, limit int64, poll bool) {
	return &m.steps, m.maxSteps, m.ctx != nil
}

// StepLimitExceeded reports step exhaustion exactly as Step does:
// with the statement position and enclosing function when available.
func (m *Machine) StepLimitExceeded(f *Frame, pos source.Pos) {
	unit := "<unnamed>"
	if f != nil && f.Fn != nil {
		unit = f.Fn.QualifiedName()
	}
	if m.fset != nil && pos != source.NoPos {
		m.Fail(pos, "step limit exceeded (%d) at %s in %s", m.maxSteps, m.fset.Position(pos), unit)
	}
	m.Fail(pos, "step limit exceeded (%d) in %s", m.maxSteps, unit)
}

// StepContextPoll is Step's cancellation check, split out for engines
// that inline the counter.
func (m *Machine) StepContextPoll() {
	if err := m.ctx.Err(); err != nil {
		panic(&CancelError{Err: err})
	}
}

// Frame is one function activation. Exported so an alternative
// Executor (the bytecode VM in internal/vm) can run function bodies on
// the shared runtime core. The Machine reuses frames last in, first
// out, so an executor must not keep a *Frame past the ExecBody call it
// was handed in.
type Frame struct {
	Fn *types.Func
	// Vars maps the tree-walker's local variables to their cells. It
	// stays nil until the tree-walker declares a local in the frame.
	Vars map[*types.Var]*Cell
	This *Object

	// Params holds the parameter cells in declaration order. They are
	// the frame's own slab, which every activation the frame hosts
	// reuses, unless the address of one of Fn's parameters is taken
	// (types.Var.AddrTaken): &param can outlive the call, so such an
	// activation gets a slab of its own. varCell finds a parameter by
	// its position in Fn.Params, and a slot-based executor binds them
	// without map lookups.
	Params []Cell
	slab   []Cell

	// Locals are the counted local class objects, destroyed in reverse
	// order at function exit (or scope exit, via PopScope).
	Locals []*Object
}

// pushFrame hands out the machine's next free frame for an activation
// of fn on this, without parameters. A runtime error abandons the
// machine with its frames, so only a completed activation pops.
func (m *Machine) pushFrame(fn *types.Func, this *Object) *Frame {
	if m.nframes == len(m.frames) {
		m.frames = append(m.frames, &Frame{})
	}
	f := m.frames[m.nframes]
	m.nframes++
	f.Fn, f.This = fn, this
	return f
}

// bindParams sets f.Params to one cell per parameter of f.Fn and returns
// them: the frame's own slab, unless a parameter's address is taken.
func (f *Frame) bindParams() []Cell {
	n := len(f.Fn.Params)
	if n == 0 {
		return nil
	}
	for _, p := range f.Fn.Params {
		if p.AddrTaken {
			f.Params = make([]Cell, n)
			return f.Params
		}
	}
	if cap(f.slab) < n {
		f.slab = make([]Cell, n)
	}
	f.Params = f.slab[:n]
	return f.Params
}

// popFrame returns f, the innermost frame, to the machine, dropping what
// it references, apart from its own parameter slab, which nothing outside
// the frame can reach.
func (m *Machine) popFrame(f *Frame) {
	m.nframes--
	f.Fn, f.This, f.Params = nil, nil, nil
	clear(f.Vars)
	clear(f.Locals)
	f.Locals = f.Locals[:0]
}

// initGlobals allocates and initializes global variables in declaration
// order.
func (m *Machine) initGlobals() {
	f := &Frame{}
	for _, g := range m.prog.Globals {
		cell := &Cell{V: m.ZeroValue(g.Type)}
		m.globals[g] = cell
		d := g.Decl
		switch {
		case d.Init != nil:
			v := m.evalExpr(f, d.Init)
			m.StoreInto(cell, m.Convert(v, g.Type))
		case types.IsClass(g.Type) != nil:
			cls := types.IsClass(g.Type)
			obj := m.NewObject(cls, true)
			ctor := m.info.VarCtors[d]
			var args []Value
			for _, a := range d.CtorArgs {
				args = append(args, m.evalExpr(f, a))
			}
			m.ConstructObject(obj, ctor, args)
			cell.V = Value{K: KObj, Obj: obj}
			m.gObjs = append(m.gObjs, obj)
		default:
			if arr, ok := g.Type.(*types.Array); ok {
				cell.V = m.MakeArray(arr, &m.gObjs)
			}
			if len(d.CtorArgs) == 1 {
				v := m.evalExpr(f, d.CtorArgs[0])
				m.StoreInto(cell, m.Convert(v, g.Type))
			}
		}
	}
}

func (m *Machine) destroyGlobals() {
	for i := len(m.gObjs) - 1; i >= 0; i-- {
		m.DestroyObject(m.gObjs[i])
	}
}

// ---------------------------------------------------------------------------
// Object construction and destruction

// zeroValue builds the zero value of a type; class types get fresh
// (uncounted) raw objects and arrays get fresh cells.
func (m *Machine) ZeroValue(t types.Type) Value {
	switch x := t.(type) {
	case *types.Basic:
		switch x.Kind {
		case types.Double:
			return doubleV(0)
		case types.Char:
			return charV(0)
		case types.Bool:
			return boolV(false)
		default:
			return intV(0)
		}
	case *types.Pointer:
		return nullV()
	case *types.MemberPointer:
		return Value{K: KMemberPtr}
	case *types.Class:
		return Value{K: KObj, Obj: m.NewObject(x, false)}
	case *types.Array:
		cells := cellSlab(x.Len)
		for _, c := range cells {
			c.V = m.ZeroValue(x.Elem)
		}
		return arrV(cells)
	}
	return intV(0)
}

// makeArray builds an array value for a local/global declaration,
// registering counted class elements for destruction via objs.
func (m *Machine) MakeArray(arr *types.Array, objs *[]*Object) Value {
	cells := cellSlab(arr.Len)
	for _, c := range cells {
		if ec := types.IsClass(arr.Elem); ec != nil {
			obj := m.NewObject(ec, true)
			m.ConstructObject(obj, ec.CtorByArity(0), nil)
			c.V = Value{K: KObj, Obj: obj}
			*objs = append(*objs, obj)
		} else {
			c.V = m.ZeroValue(arr.Elem)
		}
	}
	return arrV(cells)
}

// PlanOf returns the (per-run cached) field plan of cls: the distinct
// data members in deterministic order — own fields first, then bases
// depth-first, members shared through virtual bases once — the slot of
// each level's first field, the flattened destruction protocol, and the
// ledger sizes of a counted instance, which depend only on the class
// layout and Options.DeadField, both fixed for the run.
func (m *Machine) PlanOf(cls *types.Class) *FieldPlan {
	if p, ok := m.plans[cls]; ok {
		return p
	}
	p := &FieldPlan{Index: map[*types.Field]int{}}
	seen := map[*types.Class]bool{}
	var add func(c *types.Class)
	add = func(c *types.Class) {
		if seen[c] {
			return
		}
		seen[c] = true
		body := c.Dtor()
		if body != nil && body.Body == nil {
			body = nil
		}
		p.levels = append(p.levels, level{cls: c, off: len(p.Fields), body: body})
		for _, f := range c.Fields {
			p.Index[f] = len(p.Fields)
			p.Fields = append(p.Fields, f)
		}
		for _, b := range c.Bases {
			add(b.Class)
		}
	}
	add(cls)

	// Destruction is the class's own pass, then one pass per virtual
	// base, last first. A pass destroys a level (destructor body, then
	// members in reverse), then its non-virtual bases in reverse, depth
	// first; a level reached twice in one pass, through a non-virtual
	// diamond, is destroyed once.
	var walk func(c *types.Class)
	walk = func(c *types.Class) {
		if seen[c] {
			return
		}
		seen[c] = true
		for _, l := range p.levels {
			if l.cls == c {
				p.dtor = append(p.dtor, l)
				break
			}
		}
		for i := len(c.Bases) - 1; i >= 0; i-- {
			if !c.Bases[i].Virtual {
				walk(c.Bases[i].Class)
			}
		}
	}
	clear(seen)
	walk(cls)
	p.vbases = m.h.VirtualBases(cls)
	for i := len(p.vbases) - 1; i >= 0; i-- {
		clear(seen)
		walk(p.vbases[i])
	}

	lay := m.h.LayoutOf(cls)
	p.size, p.adjSize = lay.Size, lay.Size
	if m.opts.DeadField != nil {
		p.deadBytes = lay.DeadBytes(m.opts.DeadField)
		p.adjSize = lay.SizeWithout(m.opts.DeadField)
	}
	m.plans[cls] = p
	return p
}

// NewObject allocates an object of class cls with zeroed cells for every
// distinct member (shared virtual bases appear once), all in one slab.
// counted objects are reported to the ledger and destructed with ledger
// balance.
func (m *Machine) NewObject(cls *types.Class, counted bool) *Object {
	plan := m.PlanOf(cls)
	obj := &Object{Class: cls, Plan: plan, Cells: make([]Cell, len(plan.Fields))}
	for i, f := range plan.Fields {
		obj.Cells[i].V = m.ZeroValue(f.Type)
	}

	if counted {
		obj.Size, obj.DeadBytes, obj.AdjSize = plan.size, plan.deadBytes, plan.adjSize
		if m.opts.Ledger != nil {
			m.opts.Ledger.Alloc(cls, obj.Size, obj.DeadBytes, obj.AdjSize)
		}
	}
	return obj
}

// ConstructObject runs the full construction protocol on obj: virtual
// bases (most-derived), then the selected constructor's base/member init
// chain and body. ctor may be nil (default construction).
func (m *Machine) ConstructObject(obj *Object, ctor *types.Func, args []Value) {
	m.construct(obj, m.ctorFrame(ctor, obj, args))
}

// construct runs the construction protocol on obj with f, the frame of
// the selected constructor, already pushed and bound; f is nil for
// default construction. Virtual bases are initialized once, by the
// most-derived object, and a virtual-base initializer the constructor
// gives is evaluated in f, beneath the base constructor's frame.
func (m *Machine) construct(obj *Object, f *Frame) {
	for _, vb := range obj.Plan.vbases {
		if f != nil {
			if init, ok := m.findInit(f.Fn, vb.Name); ok {
				m.runClassCtor(obj, vb, m.initFrame(f, vb.CtorByArity(len(init.Args)), obj, init.Args))
				continue
			}
		}
		m.runClassCtor(obj, vb, m.ctorFrame(vb.CtorByArity(0), obj, nil))
	}
	m.runClassCtor(obj, obj.Class, f)
}

// findInit locates the ctor-init entry naming name.
func (m *Machine) findInit(ctor *types.Func, name string) (*ast.CtorInit, bool) {
	for i := range ctor.Inits {
		if ctor.Inits[i].Name == name {
			return &ctor.Inits[i], true
		}
	}
	return nil, false
}

// ctorFrame pushes the frame of ctor on obj with args bound to its
// parameters; parameters without an argument are zero. A nil ctor
// (default construction) has no frame.
func (m *Machine) ctorFrame(ctor *types.Func, obj *Object, args []Value) *Frame {
	if ctor == nil {
		return nil
	}
	f := m.pushFrame(ctor, obj)
	params := f.bindParams()
	for i, p := range ctor.Params {
		if i < len(args) {
			params[i].V = args[i]
		} else {
			params[i].V = m.ZeroValue(p.Type)
		}
	}
	return f
}

// initFrame pushes the frame of ctor, the constructor that a constructor
// initializer selects on obj by its argument count, and evaluates the
// initializer's arguments in the enclosing frame f straight into its
// parameter cells. With no constructor to select, the arguments are still
// evaluated and construction is the default.
func (m *Machine) initFrame(f *Frame, ctor *types.Func, obj *Object, args []ast.Expr) *Frame {
	if ctor == nil {
		for _, a := range args {
			m.evalExpr(f, a)
		}
		return nil
	}
	cf := m.pushFrame(ctor, obj)
	params := cf.bindParams()
	for i, a := range args {
		params[i].V = m.evalExpr(f, a)
	}
	return cf
}

// runClassCtor initializes the cls-level of obj: non-virtual bases,
// members, and the constructor body. Virtual bases are not handled
// here: construct initializes them once, for the most-derived object.
// f is the pushed frame of cls's constructor, which runClassCtor pops,
// or nil for default construction.
func (m *Machine) runClassCtor(obj *Object, cls *types.Class, f *Frame) {
	off := obj.Plan.offset(cls)
	if off < 0 {
		m.Fail(cls.Pos, "internal: object of class %s has no %s part", obj.Class.Name, cls.Name)
	}
	if f == nil {
		// Default construction: default-construct bases and class members.
		for _, b := range cls.Bases {
			if b.Virtual {
				continue
			}
			m.runClassCtor(obj, b.Class, m.ctorFrame(b.Class.CtorByArity(0), obj, nil))
		}
		for i, fld := range cls.Fields {
			m.defaultConstructMember(&obj.Cells[off+i], fld.Type)
		}
		return
	}
	ctor := f.Fn

	// Direct non-virtual bases, in declaration order.
	for _, b := range cls.Bases {
		if b.Virtual {
			continue
		}
		if init, ok := m.findInit(ctor, b.Class.Name); ok {
			m.runClassCtor(obj, b.Class, m.initFrame(f, b.Class.CtorByArity(len(init.Args)), obj, init.Args))
		} else {
			m.runClassCtor(obj, b.Class, m.ctorFrame(b.Class.CtorByArity(0), obj, nil))
		}
	}

	// Members in declaration order.
	for i, fld := range cls.Fields {
		cell := &obj.Cells[off+i]
		if init, ok := m.findInit(ctor, fld.Name); ok {
			if mc := types.IsClass(fld.Type); mc != nil {
				mobj := cell.V.Obj
				m.construct(mobj, m.initFrame(f, mc.CtorByArity(len(init.Args)), mobj, init.Args))
			} else {
				v := m.evalExpr(f, init.Args[0])
				m.StoreInto(cell, m.Convert(v, fld.Type))
			}
		} else {
			m.defaultConstructMember(cell, fld.Type)
		}
	}

	// Body.
	if ctor.Body != nil {
		m.execFuncBody(f, ctor)
	}
	m.popFrame(f)
}

// defaultConstructMember default-constructs the class objects a member
// cell of type t holds: the member itself, or an array's elements.
func (m *Machine) defaultConstructMember(cell *Cell, t types.Type) {
	if arr, isArr := t.(*types.Array); isArr {
		if ec := types.IsClass(arr.Elem); ec != nil {
			for _, ecell := range cell.V.Cells() {
				m.ConstructObject(ecell.V.Obj, ec.CtorByArity(0), nil)
			}
		}
		return
	}
	if mc := types.IsClass(t); mc != nil {
		m.ConstructObject(cell.V.Obj, mc.CtorByArity(0), nil)
	}
}

// DestroyObject runs the destructor protocol on obj (dtor bodies of the
// dynamic class and its bases, members in reverse order, virtual bases
// last) and balances the ledger for counted objects.
func (m *Machine) DestroyObject(obj *Object) {
	if obj == nil || obj.Destroyed {
		return
	}
	m.destroy(obj, obj.Plan)
	m.release(obj)
}

// destroy runs the destruction protocol of plan p on obj: obj's own
// plan, or the plan of a base of obj's class when obj is deleted through
// a base without a virtual destructor. Member subobjects are destroyed
// in place and are never ledger-counted.
func (m *Machine) destroy(obj *Object, p *FieldPlan) {
	obj.Destroyed = true
	for _, l := range p.dtor {
		off := l.off
		if p != obj.Plan {
			off = obj.Plan.offset(l.cls)
		}
		if l.body != nil {
			f := m.pushFrame(l.body, obj)
			m.execFuncBody(f, l.body)
			m.popFrame(f)
		}
		members := obj.Cells[off : off+len(l.cls.Fields)]
		for i := len(members) - 1; i >= 0; i-- {
			switch v := members[i].V; v.K {
			case KObj:
				if v.Obj != nil && !v.Obj.Destroyed {
					m.destroy(v.Obj, v.Obj.Plan)
				}
			case KArr:
				elems := v.Cells()
				for j := len(elems) - 1; j >= 0; j-- {
					if ev := elems[j].V; ev.K == KObj && ev.Obj != nil && !ev.Obj.Destroyed {
						m.destroy(ev.Obj, ev.Obj.Plan)
					}
				}
			}
		}
	}
}

// release balances the ledger for a destroyed counted object.
func (m *Machine) release(obj *Object) {
	if obj.Size > 0 && m.opts.Ledger != nil {
		m.opts.Ledger.Free(obj.Class, obj.Size, obj.DeadBytes, obj.AdjSize)
	}
}

// ---------------------------------------------------------------------------
// Function invocation

// callFunction invokes a free function or method. this is nil for free
// functions.
func (m *Machine) CallFunction(fn *types.Func, this *Object, args []Value) Value {
	if fn.Body == nil {
		m.Fail(fn.Pos, "call to %s which has no body", fn.QualifiedName())
	}
	m.depth++
	if m.depth > m.maxDepth {
		m.Fail(fn.Pos, "call depth limit exceeded (%d)", m.maxDepth)
	}
	defer func() { m.depth-- }()

	f := m.pushFrame(fn, this)
	params := f.bindParams()
	for i, p := range fn.Params {
		var v Value
		if i < len(args) {
			v = m.Convert(args[i], p.Type)
		} else {
			v = m.ZeroValue(p.Type)
		}
		if v.K == KObj && v.Obj != nil {
			// By-value class parameter: bitwise copy (uncounted).
			v = Value{K: KObj, Obj: m.CloneObject(v.Obj)}
		}
		params[i].V = v
	}
	ret := m.execFuncBody(f, fn)
	m.popFrame(f)
	return ret
}

// execFuncBody executes fn's body in Frame f, catching return. An
// installed Executor gets first claim on the body; when it declines
// (unsupported construct) the tree-walker runs it — per-function
// fallback, identical semantics either way.
func (m *Machine) execFuncBody(f *Frame, fn *types.Func) (ret Value) {
	if m.opts.Executor != nil {
		if v, handled := m.opts.Executor.ExecBody(m, f, fn); handled {
			return v
		}
	}
	defer func() {
		// Destroy counted local objects of the whole Frame in reverse.
		for i := len(f.Locals) - 1; i >= 0; i-- {
			m.DestroyObject(f.Locals[i])
		}
		if r := recover(); r != nil {
			if cr, ok := r.(ctrlReturn); ok {
				ret = cr.v
				return
			}
			panic(r)
		}
	}()
	m.execStmt(f, fn.Body)
	return Value{K: KVoid}
}

// cloneObject produces an uncounted deep copy of src.
func (m *Machine) CloneObject(src *Object) *Object {
	dst := m.NewObject(src.Class, false)
	m.CopyObject(dst, src)
	return dst
}

// CopyObject copies the member values of src into dst (fields missing
// from dst — e.g. when copying into a base-class subobject — are
// skipped, as before the flat-cell layout).
func (m *Machine) CopyObject(dst, src *Object) {
	if dst.Plan == src.Plan {
		for i := range src.Cells {
			m.copyValueInto(&dst.Cells[i], src.Cells[i].V)
		}
		return
	}
	for i, fld := range src.Plan.Fields {
		dc, ok := dst.Cell(fld)
		if !ok {
			continue
		}
		m.copyValueInto(dc, src.Cells[i].V)
	}
}

// copyValueInto stores v into cell, deep-copying class and array values so
// distinct objects never share member storage.
func (m *Machine) copyValueInto(cell *Cell, v Value) {
	switch v.K {
	case KObj:
		if cell.V.K == KObj && cell.V.Obj != nil && v.Obj != nil {
			m.CopyObject(cell.V.Obj, v.Obj)
			return
		}
		cell.V = v
	case KArr:
		dst, src := cell.V.Cells(), v.Cells()
		if cell.V.K == KArr && len(dst) == len(src) {
			for i, sc := range src {
				m.copyValueInto(dst[i], sc.V)
			}
			return
		}
		cell.V = v
	default:
		cell.V = v
	}
}

// storeInto assigns v to cell with class-aware copying.
func (m *Machine) StoreInto(cell *Cell, v Value) {
	m.copyValueInto(cell, v)
}
