// Package vm implements a bytecode compiler and dispatch-loop virtual
// machine for MC++ function bodies; every production run executes on it.
// It plugs into the interpreter through interp.Options.Executor: the
// shared runtime core (object model, construction/destruction protocol,
// heap ledger, step counter, builtins) stays in internal/interp, and the
// VM only replaces the per-statement AST walk, which is what keeps the
// instrumented heap byte-identical to the tree-walker the tests use as
// its oracle. The VM binds a frame's parameter slab and reads member
// cells in place (&obj.Cells[i]); it keeps no interp.Frame past the
// ExecBody call that hands it one, since the Machine reuses frames. A
// scalar or pointer local whose address is never taken lives in a cell
// that the activation's pooled state owns, so executing its declaration
// allocates nothing.
//
// Compilation is per function, lazy, and all-or-nothing: a body using a
// construct the compiler does not model falls back to the tree-walker in
// its entirety, so partial compilation can never change evaluation order.
// Member accesses and virtual dispatch carry monomorphic inline caches
// keyed on the receiver's dynamic class; the class hierarchy and field
// plans are frozen after sema, so caches never need invalidation (they
// are still per-run, because global-variable cells are per-Machine).
// An instruction holds only int32 operands and positions; its pointer
// operands and inline cache live in its chunk's side table. One compiler
// per Executor emits every chunk of the run into buffers it reuses, and
// each chunk keeps exact-length copies. Four peephole passes fuse
// integer binops with their operands and branches, and statement steps
// with the next instruction (peephole.go); a fused form is kept only
// while a benchmark workload executes it.
package vm

import (
	"deadmembers/internal/interp"
	"deadmembers/internal/source"
	"deadmembers/internal/types"
)

// opcode identifies one VM instruction.
type opcode uint8

// Instruction set. Stack effects are noted as (pops → pushes) on the
// value stack; L marks the lvalue (Loc) stack.
const (
	opConst      opcode = iota // (→1) push consts[a]
	opStr                      // (→1) push fresh string-literal array
	opThis                     // (→1) push pointer to f.This
	opPop                      // (1→) discard top
	opLoadSlot                 // (→1) read slot a (nil slot = not-in-scope failure)
	opLoadGlobal               // (→1) read global vr via cell cache
	opLoadField                // (→1) read field fld of f.This (implicit this->)
	opMemberLoad               // (1→1) pop receiver, read field fld
	opIndexLoad                // (2→1) pop index, base; read element
	opDerefLoad                // (1→1) pop pointer; read pointee
	opMPtrLoad                 // (2→1) pop member-ptr, receiver-ptr; read member

	opLvSlot   // (→; L+1) slot a as location
	opLvGlobal // (→; L+1) global vr as location
	opLvField  // (→; L+1) field fld of f.This as location
	opLvMember // (1→; L+1) pop receiver; field fld as location
	opLvIndex  // (2→; L+1) pop index, base; element as location
	opLvDeref  // (1→; L+1) pop pointer; pointee as location
	opLvMPtr   // (2→; L+1) pop member-ptr, receiver-ptr; member as location

	opLoadLoc      // (→1; L-1) load from location
	opAssign       // (1→1; L-1) plain assignment; pushes the stored location's value
	opAssignOp     // (1→1; L-1) compound assignment with operator b
	opPostfix      // (→1; L-1) post-increment (a=1) / decrement; pushes old value
	opPreIncDec    // (→1; L-1) pre-increment (a=1) / decrement; pushes new value
	opAddrOf       // (→1; L-1) address of location
	opAddrIndexTry // (2→0|1) &arr[i] fast path: on success push pointer and jump a

	opReceiver // (1→1) convert receiver value (a=1: arrow) to object pointer

	opNeg     // (1→1) arithmetic negation
	opNot     // (1→1) logical not
	opTilde   // (1→1) bitwise complement
	opTruthy  // (1→1) condition value as bool
	opBinary  // (2→1) binary operator b via the shared ApplyBinary
	opConvert // (1→1) convert to type typ

	opJump   // (→) pc = a
	opJF     // (1→) pop; jump to a when falsy
	opJT     // (1→) pop; jump to a when truthy
	opCaseEq // (1→) pop case value; if it equals the kept scrutinee, pop it too and jump to a

	opStep      // (→) account one executed statement at pos
	opScopePush // (→) open a destructor scope
	opScopePop  // (→) close the innermost scope, destroying its locals
	opScopePopN // (→) close the innermost a scopes (break/continue unwinding)

	opReturnValue // (1→) return popped value (converted/cloned per tree rules)
	opReturnVoid  // (→) return void
	opFail        // (→) raise the preformatted runtime error str at pos

	opPendFunc     // (→) stage a call to free function fn
	opPendImplicit // (→) stage implicit this->m(...) with dispatch on f.This
	opPendMethod   // (1→) pop receiver; stage method call with dynamic dispatch
	opCall         // (a→1) pop a args, invoke the staged call, push result

	opPrint    // (1→) print popped value with static type typ
	opPrintNL  // (→) newline of println
	opMalloc   // (1→1)
	opFree     // (1→1)
	opRandSeed // (1→1)
	opRandNext // (1→1)
	opClock    // (→1)

	opNewObj    // (→1) allocate a local of class cls (ledger record precedes ctor args)
	opNewHeap   // (→1) allocate new cls with its heap block; push the pointer new yields
	opFinishNew // (a+1→1) pop a args + that pointer; construct its object, push the pointer
	opNewArr    // (1→1) pop length; new typ[n]
	opNewScalar // (a→1) scalar new typ, a=1 pops the initializer
	opDelete    // (1→1) delete (a=1: delete[]) through static pointee class cls; pushes void

	opDeclCell      // (→) slot a = fresh empty cell (registered before init runs)
	opDeclZero      // (→) slot a = fresh cell holding zero value of typ (address taken)
	opDeclLocal     // (→) slot a = the activation's own cell a, reset to zero value of typ
	opDeclStore     // (1→) store popped init into slot a with conversion to typ
	opDeclConstruct // (b+1→) pop b ctor args + staged object; construct into slot a
	opDeclCopyInit  // (1→) pop init value; copy-construct a cls local into slot a
	opDeclArray     // (→) slot a = fresh local array of typ

	// Specialized forms. Each is emitted only when the compiler proves
	// (from sema's static types) that it reproduces the general form's
	// observable behaviour, and each re-checks the runtime value kinds,
	// deferring to the shared runtime helpers on anything unexpected.
	opIntBin      // (2→1) binary operator b on two statically-integral operands, in place
	opAssignPop   // (1→; L-1) statement-position plain assignment; nothing pushed back
	opAssignOpPop // (1→; L-1) statement-position compound assignment
	opIncDecPop   // (→; L-1) statement-position ++/-- (a=1: increment); old value discarded
	opIncSlotI    // (→) slot a (static int) += b, fused i = i ± c / i++ statement

	// Superinstructions fused by the peephole pass (see peephole.go).
	// Operator lives in c because a and b are both operand designators.
	opIntBinSS // (→1) push slots[a] (op c) slots[b]
	opIntBinSC // (→1) push slots[a] (op c) consts[b]
	opIntBinXC // (1→1) top (op c) consts[b]
)

// instr is one decoded instruction: 40 bytes, with no pointers for the
// collector to scan. Which operands are meaningful depends on op (see the
// opcode comments); an instruction's pointer operands (str, typ, fld,
// cls, fn, and a global's vr) and its inline cache live in the chunk's
// side table, at refs[r], and a slot's variable, which the not-in-scope
// failure names, in vars.
type instr struct {
	op      opcode
	mode    uint8 // result mode of the opIntBin family (see peephole.go)
	stepped bool  // perform a statement step (at pos2) before executing
	a, b, c int32
	d       int32      // fused branch target (mode modeJF)
	r       int32      // the instruction's entry in chunk.refs
	pos     source.Pos // primary position (the expression/statement)
	pos2    source.Pos // receiver position or fused step position
}

// ref is an instruction's side-table entry: its pointer operands, and
// the ic* fields, its monomorphic inline cache, mutated during
// execution. An Executor is per-run, so the mutation is single-goroutine.
type ref struct {
	str string
	typ types.Type
	fld *types.Field
	cls *types.Class
	fn  *types.Func
	vr  *types.Var

	icClass *types.Class // receiver class the cache was filled for
	icIdx   int          // field slot within the cached class's plan
	icFn    *types.Func  // dispatch target for the cached class
	icCell  *interp.Cell // resolved global cell
}

// chunk is one compiled function body. Each slice has exact length.
type chunk struct {
	code   []instr
	consts []interp.Value
	refs   []ref
	vars   []*types.Var // the variable of each frame slot: parameters, then locals
}

// pending is a staged call: target and receiver are resolved before the
// arguments are evaluated, exactly like the tree-walker (a dispatch
// failure must precede argument side effects).
type pending struct {
	fn  *types.Func
	obj *interp.Object
}
