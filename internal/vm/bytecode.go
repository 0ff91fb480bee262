// Package vm implements a bytecode compiler and dispatch-loop virtual
// machine for MC++ function bodies; every production run executes on it.
// It plugs into the interpreter through interp.Options.Executor: the
// shared runtime core (object model, construction/destruction protocol,
// heap ledger, step counter, builtins) stays in internal/interp, and the
// VM only replaces the per-statement AST walk, which is what keeps the
// instrumented heap byte-identical to the tree-walker the tests use as
// its oracle.
//
// Compilation is per function, lazy, and all-or-nothing: a body using a
// construct the compiler does not model falls back to the tree-walker in
// its entirety, so partial compilation can never change evaluation order.
// Member accesses and virtual dispatch carry monomorphic inline caches
// keyed on the receiver's dynamic class; the class hierarchy and field
// plans are frozen after sema, so caches never need invalidation (they
// are still per-run, because global-variable cells are per-Machine).
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
	opDup                      // (1→2) duplicate top
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

	opNewObj    // (→1) allocate class cls (ledger record precedes ctor args)
	opFinishNew // (a+1→1) pop a args + staged object; construct, push pointer
	opNewArr    // (1→1) pop length; new typ[n]
	opNewScalar // (a→1) scalar new typ, a=1 pops the initializer
	opDelete    // (1→1) delete (a=1: delete[]); pushes void

	opDeclCell      // (→) slot a = fresh empty cell (registered before init runs)
	opDeclZero      // (→) slot a = fresh cell holding zero value of typ
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
	opCheckSlot   // (→) fail if slot a has no storage (preserves lvalue-first failure order)
	opStoreSlotI  // (1→) pop, convert to int, store into checked slot a
	opIncSlotI    // (→) slot a (static int) += b, fused i = i ± c / i++ statement

	// Superinstructions fused by the peephole pass (see peephole.go).
	// Operator lives in c because a and b are both operand designators.
	// A trailing 2 marks a two-stage form: the inner result combines
	// with the value below it on the stack via operator e, preserving
	// the unfused push/pop evaluation order exactly.
	opIntBinSS  // (→1) push slots[a] (op c) slots[b]
	opIntBinSC  // (→1) push slots[a] (op c) consts[b]
	opIntBinCS  // (→1) push consts[b] (op c) slots[a]
	opIntBinXS  // (1→1) top (op c) slots[a]
	opIntBinXC  // (1→1) top (op c) consts[b]
	opIntBin2SS // (1→1) top (op e) (slots[a] (op c) slots[b])
	opIntBin2SC // (1→1) top (op e) (slots[a] (op c) consts[b])
	opIntBin2CS // (1→1) top (op e) (consts[b] (op c) slots[a])
)

// instr is one decoded instruction. The operand fields are a union:
// which ones are meaningful depends on op (see the opcode comments).
// The cache* fields are the instruction's monomorphic inline cache,
// mutated during execution; an Executor is per-run, so the mutation is
// single-goroutine.
type instr struct {
	op      opcode
	mode    uint8 // result mode of the opIntBin family (see peephole.go)
	stepped bool  // perform a statement step (at pos2) before executing
	a, b, c int
	d       int        // fused store slot / branch target (mode != modePush)
	e       int        // outer operator of a two-stage fused binop
	pos     source.Pos // primary position (the expression/statement)
	pos2    source.Pos // receiver position or fused step position
	str     string
	fld     *types.Field
	cls     *types.Class
	fn      *types.Func
	typ     types.Type
	vr      *types.Var
	vr2     *types.Var // second variable of a fused superinstruction

	cacheClass *types.Class // receiver class the cache was filled for
	cacheIdx   int          // field slot within the cached class's plan
	cacheFn    *types.Func  // dispatch target for the cached class
	cacheCell  *interp.Cell // resolved global cell
}

// chunk is one compiled function body.
type chunk struct {
	fn       *types.Func
	code     []instr
	consts   []interp.Value
	numSlots int
}

// pending is a staged call: target and receiver are resolved before the
// arguments are evaluated, exactly like the tree-walker (a dispatch
// failure must precede argument side effects).
type pending struct {
	fn  *types.Func
	obj *interp.Object
}
