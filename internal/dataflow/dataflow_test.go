package dataflow

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func bits(is ...int) func(int) BitSet {
	return func(n int) BitSet {
		b := NewBitSet(n)
		for _, i := range is {
			b.Set(i)
		}
		return b
	}
}

func TestBitSetOps(t *testing.T) {
	b := NewBitSet(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Has(0) || !b.Has(64) || !b.Has(129) || b.Has(1) {
		t.Fatal("Set/Has broken")
	}
	if b.Count() != 3 {
		t.Fatalf("Count = %d, want 3", b.Count())
	}
	c := b.Clone()
	c.AndNot(b)
	if c.Count() != 0 {
		t.Fatal("AndNot of self not empty")
	}
	if b.Count() != 3 {
		t.Fatal("Clone aliases original")
	}
	u := NewBitSet(130)
	if !u.Union(b) {
		t.Fatal("Union did not report change")
	}
	if u.Union(b) {
		t.Fatal("Union reported change on no-op")
	}
	u.Reset()
	if u.Count() != 0 {
		t.Fatal("Reset left bits")
	}
	all := NewBitSet(130)
	all.SetAll(130)
	if all.Count() != 130 {
		t.Fatalf("SetAll count = %d", all.Count())
	}
}

// Backward liveness over a diamond:
//
//	B0 -> B1, B2; B1 -> B3; B2 -> B3
//
// Bit 0 read in B1, bit 1 read in B3, bit 0 killed in B2.
func TestSolveBackwardDiamond(t *testing.T) {
	n, nbits := 4, 2
	p := Problem{
		NumBlocks: n,
		Succs:     [][]int{{1, 2}, {3}, {3}, {}},
		Bits:      nbits,
		Gen:       []BitSet{nil, bits(0)(nbits), nil, bits(1)(nbits)},
		Kill:      []BitSet{nil, nil, bits(0)(nbits), nil},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// In[3] = gen = {1}; In[1] = {0,1}; In[2] = {1}; In[0] = {0,1}.
	check := func(b int, want ...int) {
		t.Helper()
		w := bits(want...)(nbits)
		for i := 0; i < nbits; i++ {
			if sol.In[b].Has(i) != w.Has(i) {
				t.Errorf("In[%d] bit %d = %v, want %v", b, i, sol.In[b].Has(i), w.Has(i))
			}
		}
	}
	check(3, 1)
	check(1, 0, 1)
	check(2, 1)
	check(0, 0, 1)
}

// The solver must be deterministic: identical problems yield identical
// Steps and vectors.
func TestSolveDeterministic(t *testing.T) {
	build := func() (*Solution, error) {
		return Solve(Problem{
			NumBlocks: 5,
			Succs:     [][]int{{1, 2}, {3}, {3, 1}, {4}, {}},
			Bits:      7,
			Gen:       []BitSet{bits(0)(7), bits(1)(7), bits(2)(7), bits(3, 4)(7), nil},
			Kill:      []BitSet{nil, bits(0)(7), nil, bits(1)(7), nil},
		})
	}
	a, err := build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps {
		t.Fatalf("Steps differ: %d vs %d", a.Steps, b.Steps)
	}
	for i := range a.In {
		for j := 0; j < 7; j++ {
			if a.In[i].Has(j) != b.In[i].Has(j) || a.Out[i].Has(j) != b.Out[i].Has(j) {
				t.Fatalf("vectors differ at block %d bit %d", i, j)
			}
		}
	}
}

func TestSolveBudget(t *testing.T) {
	p := Problem{
		NumBlocks: 3,
		Succs:     [][]int{{1}, {2}, {}},
		Bits:      1,
		Gen:       []BitSet{nil, nil, bits(0)(1)},
		Budget:    1, // cannot finish
	}
	sol, err := Solve(p)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if sol == nil {
		t.Fatal("partial solution missing")
	}
	// An honest budget completes.
	p.Budget = 0
	if _, err := Solve(p); err != nil {
		t.Fatalf("default budget failed: %v", err)
	}
}

// TestSolveBudgetNamesUnit pins the exhaustion-path contract: the error
// is a *BudgetError, which reads as a placeholder until the caller names
// the unit (so lint Failure records identify the function), and the
// partial solution still comes back.
func TestSolveBudgetNamesUnit(t *testing.T) {
	p := Problem{
		NumBlocks: 3,
		Succs:     [][]int{{1}, {2}, {}},
		Bits:      1,
		Gen:       []BitSet{nil, nil, bits(0)(1)},
		Budget:    1,
	}
	sol, err := Solve(p)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if sol == nil || sol.Steps != 1 {
		t.Fatalf("partial solution missing or wrong steps: %+v", sol)
	}
	var be *BudgetError
	if !errors.As(err, &be) || !strings.Contains(err.Error(), "<unnamed>") {
		t.Fatalf("unnamed overrun missing placeholder: %v", err)
	}
	be.Unit = "Widget::resize"
	if want := "dataflow: step budget exhausted in Widget::resize after 1 steps"; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("budget error %q does not start %q", err, want)
	}
}

// TestSolveCancellation: a cancelled context aborts the solve before its
// first step.
func TestSolveCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Problem{
		NumBlocks: 2,
		Succs:     [][]int{{1}, {}},
		Bits:      1,
		Gen:       []BitSet{nil, bits(0)(1)},
		Ctx:       ctx,
	}
	_, err := Solve(p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSolveEmpty(t *testing.T) {
	sol, err := Solve(Problem{})
	if err != nil || sol == nil {
		t.Fatalf("empty problem: %v", err)
	}
}

func TestDefaultBudgetSuffices(t *testing.T) {
	// A long chain with many bits converges comfortably inside the
	// automatic budget.
	const n = 200
	succs := make([][]int, n)
	gen := make([]BitSet, n)
	for i := 0; i < n-1; i++ {
		succs[i] = []int{i + 1}
	}
	gen[n-1] = bits(0, 1, 2)(8)
	sol, err := Solve(Problem{NumBlocks: n, Succs: succs, Bits: 8, Gen: gen})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.In[0].Has(0) {
		t.Fatal("fact did not propagate to entry")
	}
}
