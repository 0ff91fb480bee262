package vm

import "reflect"

// InstrSize reports the size of one instruction.
func InstrSize() uintptr { return reflect.TypeOf(instr{}).Size() }

// MaxStackCap reports the largest operand-stack capacity among e's
// pooled frame states. After a run every activation has handed its state
// back to the pool, so this bounds the deepest operand stack any
// activation of the run reached.
func MaxStackCap(e *Executor) int {
	n := 0
	for _, fs := range e.pool {
		n = max(n, cap(fs.stack))
	}
	return n
}
