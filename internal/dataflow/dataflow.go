// Package dataflow implements an iterative worklist solver for backward
// gen/kill bit-vector dataflow problems over control-flow graphs.
//
// The solver is deterministic (a FIFO worklist with deterministic
// seeding, so fact vectors are byte-identical across runs) and bounded:
// every call carries a step budget, and exceeding it returns ErrBudget
// with the partial solution instead of spinning — the containment
// contract the fuzz targets hold it to. Cancellation via context is
// polled between steps.
//
// Facts are opaque bit indices; internal/lint keys them by candidate
// stores, but the solver works for any monotone backward gen/kill
// problem.
package dataflow

import (
	"context"
	"errors"
	"fmt"
)

// BitSet is a fixed-size bit vector. The zero value is an empty set of
// zero capacity; allocate with NewBitSet.
type BitSet []uint64

// NewBitSet returns an empty set with capacity for n bits.
func NewBitSet(n int) BitSet {
	return make(BitSet, (n+63)/64)
}

// Set adds bit i.
func (b BitSet) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Has reports whether bit i is present.
func (b BitSet) Has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// SetAll adds bits 0..n-1.
func (b BitSet) SetAll(n int) {
	for i := 0; i < n; i++ {
		b.Set(i)
	}
}

// Union adds every bit of o to b, reporting whether b changed.
func (b BitSet) Union(o BitSet) bool {
	changed := false
	for i, w := range o {
		if nw := b[i] | w; nw != b[i] {
			b[i] = nw
			changed = true
		}
	}
	return changed
}

// AndNot removes every bit of o from b.
func (b BitSet) AndNot(o BitSet) {
	for i, w := range o {
		b[i] &^= w
	}
}

// Copy overwrites b with o (same capacity).
func (b BitSet) Copy(o BitSet) { copy(b, o) }

// Reset clears all bits.
func (b BitSet) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// Slab returns n empty sets with capacity for bits bits each, all
// windows of one allocation.
func Slab(n, bits int) []BitSet {
	w := (bits + 63) / 64
	words := make(BitSet, n*w)
	sets := make([]BitSet, n)
	for i := range sets {
		sets[i] = words[i*w : (i+1)*w : (i+1)*w]
	}
	return sets
}

// Clone returns an independent copy.
func (b BitSet) Clone() BitSet {
	c := make(BitSet, len(b))
	copy(c, b)
	return c
}

// Count returns the number of set bits.
func (b BitSet) Count() int {
	n := 0
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// ErrBudget is returned (wrapped, as a *BudgetError) when the solver
// exceeds its step budget; the partial solution accompanies it.
var ErrBudget = errors.New("dataflow: step budget exhausted")

// BudgetError is the error of a solve that exceeded its step budget. It
// wraps ErrBudget and reads "dataflow: step budget exhausted in <unit>
// after ...". The solver leaves Unit empty, which reads "<unnamed>": the
// caller names the analyzed unit (typically the function's qualified
// name) only once the budget is exhausted, so that the Failure/degraded
// record identifies it.
type BudgetError struct {
	Unit                        string
	Steps, Budget, Blocks, Bits int
}

func (e *BudgetError) Error() string {
	unit := e.Unit
	if unit == "" {
		unit = "<unnamed>"
	}
	return fmt.Sprintf("%v in %s after %d steps (budget %d, %d blocks, %d bits)",
		ErrBudget, unit, e.Steps, e.Budget, e.Blocks, e.Bits)
}

func (e *BudgetError) Unwrap() error { return ErrBudget }

// Problem is one backward gen/kill dataflow instance over a block
// graph: facts propagate against control flow, from exit to entry.
// Blocks are dense IDs 0..NumBlocks-1 (internal/cfg numbering); only
// successor adjacency is required — predecessors are derived.
type Problem struct {
	NumBlocks int
	Succs     [][]int // Succs[b] lists the successor block IDs of b
	Bits      int     // size of the fact vectors

	// Gen and Kill are the per-block transfer facts: for each block b,
	// In[b] = Gen[b] ∪ (Out[b] − Kill[b]). A nil entry is treated as
	// empty.
	Gen, Kill []BitSet

	// Boundary is the Out of exit blocks (no successors). Nil means
	// empty.
	Boundary BitSet

	// Budget caps the number of block-transfer steps; 0 selects
	// DefaultBudget, which no terminating monotone instance exceeds.
	Budget int

	// Ctx, when non-nil, is polled periodically; cancellation aborts
	// the solve with the context's error.
	Ctx context.Context
}

// Solution holds the fixpoint fact vectors: In[b] on entry to block b,
// Out[b] on exit.
type Solution struct {
	In, Out []BitSet
	Steps   int
}

// DefaultBudget returns the automatic step budget for a problem of the
// given shape. A monotone gen/kill solve re-processes a block only when
// an incoming fact vector grows, so edges*(bits+1) + blocks bounds any
// terminating run; the default doubles that and adds slack, making an
// overrun a reliable signal of a malformed instance rather than a slow
// one.
func DefaultBudget(blocks, edges, bits int) int {
	return 64 + 2*(blocks+(edges+1)*(bits+1))
}

// Solve runs the worklist iteration to a fixpoint. On budget exhaustion
// it returns the partial solution and a *BudgetError; on cancellation,
// the partial solution and the context error. Every In and Out vector
// is a window of one slab, as is every block's predecessor list.
func Solve(p Problem) (*Solution, error) {
	n := p.NumBlocks
	vecs := Slab(2*n, p.Bits)
	sol := &Solution{In: vecs[:n:n], Out: vecs[n:]}
	if n == 0 {
		return sol, nil
	}

	// The blocks a change to In[b] notifies are predSlab[predOff[b]:
	// predOff[b+1]], in successor order.
	edges := 0
	for _, ss := range p.Succs {
		edges += len(ss)
	}
	buf := make([]int, 2*n+1+edges)
	predOff, fill, predSlab := buf[:n+1], buf[n+1:2*n+1], buf[2*n+1:]
	for _, ss := range p.Succs {
		for _, s := range ss {
			predOff[s+1]++
		}
	}
	for b := 0; b < n; b++ {
		predOff[b+1] += predOff[b]
	}
	copy(fill, predOff)
	for b, ss := range p.Succs {
		for _, s := range ss {
			predSlab[fill[s]] = b
			fill[s]++
		}
	}

	budget := p.Budget
	if budget <= 0 {
		budget = DefaultBudget(n, edges, p.Bits)
	}

	// FIFO worklist, deterministically seeded: reverse postorder would
	// be fastest, but reversed ID order (IDs grow roughly
	// source-forward) converges fine and keeps the iteration order —
	// and therefore Steps — reproducible.
	queue := make([]int, 0, n)
	inQueue := make([]bool, n)
	push := func(b int) {
		if !inQueue[b] {
			inQueue[b] = true
			queue = append(queue, b)
		}
	}
	for b := n - 1; b >= 0; b-- {
		push(b)
	}

	gather := NewBitSet(p.Bits)
	for len(queue) > 0 {
		if sol.Steps >= budget {
			return sol, &BudgetError{Steps: sol.Steps, Budget: budget, Blocks: n, Bits: p.Bits}
		}
		if p.Ctx != nil && sol.Steps%128 == 0 && p.Ctx.Err() != nil {
			return sol, p.Ctx.Err()
		}
		b := queue[0]
		queue = queue[1:]
		inQueue[b] = false
		sol.Steps++

		// Meet: Out[b] is the union of the successors' In vectors, or
		// Boundary at an exit.
		out := sol.Out[b]
		out.Reset()
		if len(p.Succs[b]) == 0 {
			if p.Boundary != nil {
				out.Union(p.Boundary)
			}
		} else {
			for _, succ := range p.Succs[b] {
				out.Union(sol.In[succ])
			}
		}

		// Transfer: In[b] = gen ∪ (Out[b] − kill). Facts only grow, so
		// accumulating with Union doubles as change detection.
		gather.Copy(out)
		if p.Kill != nil && p.Kill[b] != nil {
			gather.AndNot(p.Kill[b])
		}
		if p.Gen != nil && p.Gen[b] != nil {
			gather.Union(p.Gen[b])
		}
		if sol.In[b].Union(gather) {
			for _, pred := range predSlab[predOff[b]:predOff[b+1]] {
				push(pred)
			}
		}
	}
	return sol, nil
}
