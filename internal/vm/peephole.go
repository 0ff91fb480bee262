package vm

// Peephole fusion. compiler.compile runs these passes over the emitted code:
//
//  1. triples  — opLoadSlot/opConst pairs feeding an opIntBin collapse
//     into one superinstruction (opIntBinSS / opIntBinSC / opIntBinCS);
//  2. checks   — an opCheckSlot is dropped when the instruction after it
//     fails identically on the same nil slot (an opLoadSlot or fused
//     int-binop on the same slot), so `x = x op ...` statements need no
//     separate lvalue probe;
//  3. store    — an int-binop whose result feeds an opStoreSlotI stores
//     straight into the slot (mode modeStore) and the store instruction
//     disappears;
//  4. branch   — an int-binop whose result feeds an opJF branches
//     directly (mode modeJF);
//  5. steps    — an opStep folds into the next instruction's stepped
//     flag (the step position moves to pos2, which the eligible opcodes
//     do not use), so statement accounting costs no extra dispatch.
//
// Every pass preserves observable behaviour exactly: fused forms
// re-check runtime kinds and defer to the shared runtime helpers, the
// not-in-scope and step-limit diagnostics keep their message text and
// positions, and a fusion is skipped whenever a jump lands on any
// instruction of the candidate sequence other than its first (entry
// mid-sequence could not be reproduced). Fusion changes instruction
// counts, so each pass remaps jump operands.
//
// Fusion never makes code longer, so every pass rewrites code in place
// (its write index never passes its read index), and the passes share
// the compiler's jump-target and remap buffers, which every compile of
// the run reuses.
func (c *compiler) peephole(code []instr) []instr {
	n := len(code) + 1
	if cap(c.isTarget) < n {
		c.isTarget = make([]bool, n)
		c.remap = make([]int32, n)
	}
	for _, fuse := range [...]fuseRule{
		fuseTriple, fusePair, fuseChain, dropCheck, fuseStore, fuseBranch, fuseStep,
	} {
		code = fusePass(code, fuse, c.isTarget[:len(code)+1], c.remap[:len(code)+1])
	}
	return code
}

// fuseRule inspects the sequence starting at pc and returns the fused
// instruction plus how many source instructions it consumed (0 = keep
// code[pc] as is). It reads only code[pc:], which fusePass has not yet
// overwritten.
type fuseRule func(code []instr, pc int, isTarget []bool) (instr, int)

// Result modes of the opIntBin family: push the result (modePush),
// store it into int slot d (modeStore), or branch to d when it is
// falsy (modeJF).
const (
	modePush uint8 = iota
	modeStore
	modeJF
)

// fusePass rewrites code in place with one local fusion rule and
// returns the shortened prefix. isTarget and remap are scratch buffers
// of len(code)+1.
func fusePass(code []instr, fuse fuseRule, isTarget []bool, remap []int32) []instr {
	clear(isTarget)
	for i := range code {
		if ref := jumpRef(&code[i]); ref != nil {
			isTarget[*ref] = true
		}
	}
	w := int32(0)
	for pc := 0; pc < len(code); {
		remap[pc] = w
		ins, n := fuse(code, pc, isTarget)
		if n == 0 {
			ins, n = code[pc], 1
		}
		for k := 1; k < n; k++ {
			remap[pc+k] = w
		}
		code[w] = ins
		w++
		pc += n
	}
	remap[len(code)] = w
	code = code[:w]
	for i := range code {
		if ref := jumpRef(&code[i]); ref != nil {
			*ref = remap[*ref]
		}
	}
	return code
}

// jumpRef returns a pointer to ins's code-offset operand, or nil when
// it has none (no instruction has more than one).
func jumpRef(ins *instr) *int32 {
	switch ins.op {
	case opJump, opJF, opJT, opCaseEq, opAddrIndexTry:
		return &ins.a
	case opIntBin, opIntBinSS, opIntBinSC, opIntBinCS,
		opIntBinXS, opIntBinXC,
		opIntBin2SS, opIntBin2SC, opIntBin2CS:
		if ins.mode == modeJF {
			return &ins.d
		}
	}
	return nil
}

// fuseTriple: [opLoadSlot|opConst] [opLoadSlot|opConst] [opIntBin] →
// one fused binop. opIntBin is only emitted when both operands are
// statically integral, so the fused forms inherit that guarantee.
func fuseTriple(code []instr, pc int, isTarget []bool) (instr, int) {
	if pc+2 >= len(code) || code[pc+2].op != opIntBin ||
		code[pc+2].mode != modePush || isTarget[pc+1] || isTarget[pc+2] {
		return instr{}, 0
	}
	l1, l2, bin := &code[pc], &code[pc+1], &code[pc+2]
	switch {
	case l1.op == opLoadSlot && l2.op == opLoadSlot:
		return instr{op: opIntBinSS, a: l1.a, b: l2.a, c: bin.c, pos: bin.pos}, 3
	case l1.op == opLoadSlot && l2.op == opConst:
		return instr{op: opIntBinSC, a: l1.a, b: l2.a, c: bin.c, pos: bin.pos}, 3
	case l1.op == opConst && l2.op == opLoadSlot:
		return instr{op: opIntBinCS, a: l2.a, b: l1.a, c: bin.c, pos: bin.pos}, 3
	}
	return instr{}, 0
}

// fusePair: [opLoadSlot|opConst] [opIntBin, modePush] → top (op) slot /
// top (op) const. Catches the second operand of a binop whose first
// operand was a computed subexpression (already on the stack), the
// pattern fuseTriple cannot reach. Runs after fuseTriple so three-load
// sequences take the cheaper triple form first. The nil-slot failure
// keeps its order: the unfused opLoadSlot fails before the binop runs,
// and the fused form probes the slot before computing.
func fusePair(code []instr, pc int, isTarget []bool) (instr, int) {
	if pc+1 >= len(code) || code[pc+1].op != opIntBin ||
		code[pc+1].mode != modePush || isTarget[pc+1] {
		return instr{}, 0
	}
	l, bin := &code[pc], &code[pc+1]
	switch l.op {
	case opLoadSlot:
		return instr{op: opIntBinXS, a: l.a, c: bin.c, pos: bin.pos}, 2
	case opConst:
		return instr{op: opIntBinXC, b: l.a, c: bin.c, pos: bin.pos}, 2
	}
	return instr{}, 0
}

// fuseChain: [one-stage fused binop, modePush] [opIntBin, modePush] →
// the two-stage form, combining the inner result with the value pushed
// before it via the outer operator. Nothing is reordered: the stack
// operand was evaluated first, the slot/const operands after, and the
// outer operator last, exactly as unfused.
func fuseChain(code []instr, pc int, isTarget []bool) (instr, int) {
	ins := code[pc]
	if ins.mode != modePush || pc+1 >= len(code) || isTarget[pc+1] ||
		code[pc+1].op != opIntBin || code[pc+1].mode != modePush {
		return instr{}, 0
	}
	switch ins.op {
	case opIntBinSS:
		ins.op = opIntBin2SS
	case opIntBinSC:
		ins.op = opIntBin2SC
	case opIntBinCS:
		ins.op = opIntBin2CS
	default:
		return instr{}, 0
	}
	ins.e = code[pc+1].c
	return ins, 2
}

// dropCheck: [opCheckSlot a] [X on slot a] → [X] when X raises the
// identical not-in-scope failure for a nil slot a before any other
// effect (an opLoadSlot, or a fused int-binop whose slot operand is a;
// for opIntBinCS the constant "evaluated" ahead of the slot has no
// effects, so failing at the slot check is indistinguishable).
func dropCheck(code []instr, pc int, isTarget []bool) (instr, int) {
	if code[pc].op != opCheckSlot || pc+1 >= len(code) || isTarget[pc+1] {
		return instr{}, 0
	}
	next := &code[pc+1]
	switch next.op {
	case opLoadSlot, opIntBinSS, opIntBinSC, opIntBinCS:
		if next.a == code[pc].a {
			return *next, 2
		}
	}
	return instr{}, 0
}

// fuseStore: [int-binop, modePush] [opStoreSlotI d] → the binop stores
// its result directly. The store's slot was probed by the statement's
// opCheckSlot (or the equivalent dropCheck'd load), so it is non-nil by
// the time the result is ready.
func fuseStore(code []instr, pc int, isTarget []bool) (instr, int) {
	ins := code[pc]
	if !intBinFamily(ins.op) || ins.mode != modePush ||
		pc+1 >= len(code) || code[pc+1].op != opStoreSlotI || isTarget[pc+1] {
		return instr{}, 0
	}
	ins.mode = modeStore
	ins.d = code[pc+1].a
	return ins, 2
}

// fuseBranch: [int-binop, modePush] [opJF t] → the binop branches on a
// falsy result itself (the typical loop condition).
func fuseBranch(code []instr, pc int, isTarget []bool) (instr, int) {
	ins := code[pc]
	if !intBinFamily(ins.op) || ins.mode != modePush ||
		pc+1 >= len(code) || code[pc+1].op != opJF || isTarget[pc+1] {
		return instr{}, 0
	}
	ins.mode = modeJF
	ins.d = code[pc+1].a
	return ins, 2
}

// fuseStep: [opStep] [X] → [X with the stepped flag], for opcodes that
// do not use pos2 (the step position, which the step-limit message
// renders, moves there).
func fuseStep(code []instr, pc int, isTarget []bool) (instr, int) {
	if code[pc].op != opStep || pc+1 >= len(code) || isTarget[pc+1] {
		return instr{}, 0
	}
	next := code[pc+1]
	if next.stepped || !stepFusable(next.op) {
		return instr{}, 0
	}
	next.stepped = true
	next.pos2 = code[pc].pos
	return next, 2
}

func intBinFamily(op opcode) bool {
	switch op {
	case opIntBin, opIntBinSS, opIntBinSC, opIntBinCS,
		opIntBinXS, opIntBinXC,
		opIntBin2SS, opIntBin2SC, opIntBin2CS:
		return true
	}
	return false
}

// stepFusable lists opcodes that leave pos2 unused and so can absorb a
// preceding opStep. Conservative: only statement-initial opcodes that
// the compiler actually emits right after opStep.
func stepFusable(op opcode) bool {
	switch op {
	case opConst, opStr, opThis, opLoadSlot, opLoadGlobal, opLoadField,
		opLvSlot, opLvGlobal, opLvField, opScopePush, opJump,
		opPendFunc, opPendImplicit, opReturnVoid,
		opDeclCell, opDeclZero, opDeclLocal, opDeclArray,
		opCheckSlot, opIncSlotI,
		opIntBin, opIntBinSS, opIntBinSC, opIntBinCS,
		opIntBin2SS, opIntBin2SC, opIntBin2CS:
		return true
	}
	return false
}
