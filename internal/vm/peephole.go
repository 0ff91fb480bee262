package vm

// Peephole fusion. compiler.compile runs these passes over the emitted code:
//
//  1. triples  — an opLoadSlot and an opLoadSlot or opConst feeding an
//     opIntBin collapse into one superinstruction (opIntBinSS /
//     opIntBinSC);
//  2. pairs    — an opConst feeding an opIntBin whose other operand is
//     already on the stack becomes opIntBinXC;
//  3. branch   — an int-binop whose result feeds an opJF branches
//     directly (mode modeJF);
//  4. steps    — an opStep folds into the next instruction's stepped
//     flag (the step position moves to pos2, which the eligible opcodes
//     do not use), so statement accounting costs no extra dispatch.
//
// A fused form stays only while a benchmark workload executes it;
// DESIGN §14 records the opcode census that decides it and how to take
// it again.
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
		fuseTriple, fusePair, fuseBranch, fuseStep,
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

// Result modes of the opIntBin family: push the result (modePush), or
// branch to d when it is falsy (modeJF).
const (
	modePush uint8 = iota
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
	case opIntBin, opIntBinSS, opIntBinSC, opIntBinXC:
		if ins.mode == modeJF {
			return &ins.d
		}
	}
	return nil
}

// fuseTriple: [opLoadSlot] [opLoadSlot|opConst] [opIntBin] → one fused
// binop. opIntBin is only emitted when both operands are statically
// integral, so the fused forms inherit that guarantee.
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
	}
	return instr{}, 0
}

// fusePair: [opConst] [opIntBin, modePush] → top (op) const. Catches
// the constant operand of a binop whose first operand was a computed
// subexpression (already on the stack), the pattern fuseTriple cannot
// reach.
func fusePair(code []instr, pc int, isTarget []bool) (instr, int) {
	if pc+1 >= len(code) || code[pc].op != opConst || code[pc+1].op != opIntBin ||
		code[pc+1].mode != modePush || isTarget[pc+1] {
		return instr{}, 0
	}
	bin := &code[pc+1]
	return instr{op: opIntBinXC, b: code[pc].a, c: bin.c, pos: bin.pos}, 2
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
	case opIntBin, opIntBinSS, opIntBinSC, opIntBinXC:
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
		opIncSlotI, opIntBin, opIntBinSS, opIntBinSC:
		return true
	}
	return false
}
