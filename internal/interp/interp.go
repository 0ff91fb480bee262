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
// the shared runtime core.
type Frame struct {
	Fn *types.Func
	// Vars maps the tree-walker's local variables to their cells. It
	// stays nil until the tree-walker declares a local in the frame.
	Vars map[*types.Var]*Cell
	This *Object

	// Params holds the parameter cells in declaration order; varCell
	// finds a parameter by its position in Fn.Params, and a slot-based
	// executor binds them without map lookups.
	Params []*Cell

	// Locals are the counted local class objects, destroyed in reverse
	// order at function exit (or scope exit, via PopScope).
	Locals []*Object
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
		cells := make([]*Cell, x.Len)
		for i := range cells {
			cells[i] = &Cell{V: m.ZeroValue(x.Elem)}
		}
		return arrV(cells)
	}
	return intV(0)
}

// makeArray builds an array value for a local/global declaration,
// registering counted class elements for destruction via objs.
func (m *Machine) MakeArray(arr *types.Array, objs *[]*Object) Value {
	cells := make([]*Cell, arr.Len)
	for i := range cells {
		if ec := types.IsClass(arr.Elem); ec != nil {
			obj := m.NewObject(ec, true)
			m.ConstructObject(obj, ec.CtorByArity(0), nil)
			cells[i] = &Cell{V: Value{K: KObj, Obj: obj}}
			*objs = append(*objs, obj)
		} else {
			cells[i] = &Cell{V: m.ZeroValue(arr.Elem)}
		}
	}
	return arrV(cells)
}

// PlanOf returns the (per-run cached) field plan of cls: the distinct
// data members in deterministic order — own fields first, then bases
// depth-first, members shared through virtual bases once — and the
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
		for _, f := range c.Fields {
			if _, dup := p.Index[f]; !dup {
				p.Index[f] = len(p.Fields)
				p.Fields = append(p.Fields, f)
			}
		}
		for _, b := range c.Bases {
			add(b.Class)
		}
	}
	add(cls)
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
	slab := make([]Cell, len(plan.Fields))
	cells := make([]*Cell, len(plan.Fields))
	for i, f := range plan.Fields {
		slab[i].V = m.ZeroValue(f.Type)
		cells[i] = &slab[i]
	}
	obj := &Object{Class: cls, Plan: plan, Cells: cells}

	if counted {
		obj.Size, obj.DeadBytes, obj.AdjSize = plan.size, plan.deadBytes, plan.adjSize
		if m.opts.Ledger != nil {
			m.opts.Ledger.Alloc(cls, obj.Size, obj.DeadBytes, obj.AdjSize)
		}
	}
	return obj
}

// constructObject runs the full construction protocol on obj: virtual
// bases (most-derived), then the selected constructor's base/member init
// chain and body. ctor may be nil (default construction).
func (m *Machine) ConstructObject(obj *Object, ctor *types.Func, args []Value) {
	cls := obj.Class
	// Virtual bases are initialized once, by the most-derived object.
	for _, vb := range m.h.VirtualBases(cls) {
		if ctor != nil {
			if init, ok := m.findInit(ctor, vb.Name); ok {
				m.runCtorInitTarget(obj, ctor, args, vb, init)
				continue
			}
		}
		m.runClassCtor(obj, vb, vb.CtorByArity(0), nil)
	}
	m.runClassCtor(obj, cls, ctor, args)
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

// runCtorInitTarget constructs virtual base vb using the init entry found
// in the most-derived constructor; the entry's arguments are evaluated in
// that constructor's Frame.
func (m *Machine) runCtorInitTarget(obj *Object, ctor *types.Func, args []Value, vb *types.Class, init *ast.CtorInit) {
	f := m.ctorFrame(obj, ctor, args)
	var vals []Value
	for _, a := range init.Args {
		vals = append(vals, m.evalExpr(f, a))
	}
	m.runClassCtor(obj, vb, vb.CtorByArity(len(init.Args)), vals)
}

// ctorFrame builds a Frame for evaluating a constructor's initializer
// arguments (parameters bound, this set), with the parameter cells in
// one slab.
func (m *Machine) ctorFrame(obj *Object, ctor *types.Func, args []Value) *Frame {
	f := &Frame{Fn: ctor, This: obj}
	if n := len(ctor.Params); n > 0 {
		cells := make([]Cell, n)
		f.Params = make([]*Cell, n)
		for i, p := range ctor.Params {
			if i < len(args) {
				cells[i].V = args[i]
			} else {
				cells[i].V = m.ZeroValue(p.Type)
			}
			f.Params[i] = &cells[i]
		}
	}
	return f
}

// runClassCtor initializes the cls-level of obj: non-virtual bases,
// members, and the constructor body. Virtual bases are not handled
// here: ConstructObject initializes them once, for the most-derived
// object.
func (m *Machine) runClassCtor(obj *Object, cls *types.Class, ctor *types.Func, args []Value) {
	if ctor == nil {
		// Default construction: default-construct bases and class members.
		for _, b := range cls.Bases {
			if b.Virtual {
				continue
			}
			m.runClassCtor(obj, b.Class, b.Class.CtorByArity(0), nil)
		}
		for _, fld := range cls.Fields {
			m.defaultConstructMember(obj, fld)
		}
		return
	}

	f := m.ctorFrame(obj, ctor, args)

	// Direct non-virtual bases, in declaration order.
	for _, b := range cls.Bases {
		if b.Virtual {
			continue
		}
		if init, ok := m.findInit(ctor, b.Class.Name); ok {
			var vals []Value
			for _, a := range init.Args {
				vals = append(vals, m.evalExpr(f, a))
			}
			m.runClassCtor(obj, b.Class, b.Class.CtorByArity(len(init.Args)), vals)
		} else {
			m.runClassCtor(obj, b.Class, b.Class.CtorByArity(0), nil)
		}
	}

	// Members in declaration order.
	for _, fld := range cls.Fields {
		if init, ok := m.findInit(ctor, fld.Name); ok {
			cell, okc := obj.Cell(fld)
			if !okc {
				m.Fail(ctor.Pos, "internal: missing cell for %s", fld.QualifiedName())
			}
			if mc := types.IsClass(fld.Type); mc != nil {
				var vals []Value
				for _, a := range init.Args {
					vals = append(vals, m.evalExpr(f, a))
				}
				m.ConstructObject(cell.V.Obj, mc.CtorByArity(len(init.Args)), vals)
			} else {
				v := m.evalExpr(f, init.Args[0])
				m.StoreInto(cell, m.Convert(v, fld.Type))
			}
		} else {
			m.defaultConstructMember(obj, fld)
		}
	}

	// Body.
	if ctor.Body != nil {
		m.execFuncBody(f, ctor)
	}
}

func (m *Machine) defaultConstructMember(obj *Object, fld *types.Field) {
	t := fld.Type
	cell, ok := obj.Cell(fld)
	if !ok {
		return
	}
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

// destroyObject runs the destructor protocol on obj (dtor bodies of the
// dynamic class and its bases, members in reverse order, virtual bases
// last) and balances the ledger for counted objects.
func (m *Machine) DestroyObject(obj *Object) {
	if obj == nil || obj.Destroyed {
		return
	}
	obj.Destroyed = true
	m.destroyLevel(obj, obj.Class, nil)
	for i := len(m.h.VirtualBases(obj.Class)) - 1; i >= 0; i-- {
		vb := m.h.VirtualBases(obj.Class)[i]
		m.destroyLevel(obj, vb, nil)
	}
	if obj.Size > 0 && m.opts.Ledger != nil {
		m.opts.Ledger.Free(obj.Class, obj.Size, obj.DeadBytes, obj.AdjSize)
	}
}

// destroyLevel runs the dtor body of cls, destroys cls's class-typed
// members in reverse order, then recurses into non-virtual bases in
// reverse order. seen holds the levels already destroyed; a caller
// passes nil, and the set is allocated at the first level with bases,
// since only through bases can a level be reached twice.
func (m *Machine) destroyLevel(obj *Object, cls *types.Class, seen map[*types.Class]bool) {
	if seen[cls] {
		return
	}
	if seen != nil {
		seen[cls] = true
	} else if len(cls.Bases) > 0 {
		seen = map[*types.Class]bool{cls: true}
	}
	if d := cls.Dtor(); d != nil && d.Body != nil {
		m.execFuncBody(&Frame{Fn: d, This: obj}, d)
	}
	for i := len(cls.Fields) - 1; i >= 0; i-- {
		fld := cls.Fields[i]
		cell, ok := obj.Cell(fld)
		if !ok {
			continue
		}
		switch {
		case cell.V.K == KObj && cell.V.Obj != nil:
			m.destroyEmbedded(cell.V.Obj)
		case cell.V.K == KArr:
			dcells := cell.V.Cells()
			for j := len(dcells) - 1; j >= 0; j-- {
				if ev := dcells[j].V; ev.K == KObj && ev.Obj != nil {
					m.destroyEmbedded(ev.Obj)
				}
			}
		}
	}
	for i := len(cls.Bases) - 1; i >= 0; i-- {
		if !cls.Bases[i].Virtual {
			m.destroyLevel(obj, cls.Bases[i].Class, seen)
		}
	}
}

// destroyEmbedded destroys a member subobject (never ledger-counted).
func (m *Machine) destroyEmbedded(obj *Object) {
	if obj.Destroyed {
		return
	}
	obj.Destroyed = true
	m.destroyLevel(obj, obj.Class, nil)
	for i := len(m.h.VirtualBases(obj.Class)) - 1; i >= 0; i-- {
		m.destroyLevel(obj, m.h.VirtualBases(obj.Class)[i], nil)
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

	f := &Frame{Fn: fn, This: this}
	if n := len(fn.Params); n > 0 {
		f.Params = make([]*Cell, 0, n)
	}
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
		f.Params = append(f.Params, &Cell{V: v})
	}
	return m.execFuncBody(f, fn)
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
