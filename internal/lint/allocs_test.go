package lint_test

import (
	"strings"
	"testing"

	"deadmembers/internal/bench"
	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/frontend"
	"deadmembers/internal/lint"
)

// analyzeSource compiles one program and runs the flow-insensitive
// analysis the lint pass builds on.
func analyzeSource(t *testing.T, text string) *deadmember.Result {
	t.Helper()
	r := frontend.Compile(frontend.Source{Name: "t.mcc", Text: text})
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return deadmember.Analyze(r.Program, r.Graph, deadmember.Options{CallGraph: callgraph.RTA})
}

// tiersAllocs returns how often one flow+heap pass over ar allocates.
func tiersAllocs(t *testing.T, ar *deadmember.Result) float64 {
	t.Helper()
	return testing.AllocsPerRun(2, func() {
		if flow, heap := lint.RunTiers(ar, lint.Options{}, lint.Exec{}); flow.Degraded() || heap.Degraded() {
			t.Fatal(flow.Failures, heap.Failures)
		}
	})
}

// TestRunTiersAllocs: the flow+heap pass over the 400-class scaling
// program allocates per function only what the function holds: no CFG
// and no store pass for a function without a member store, one fact
// table per function, slices in place of per-function maps. Node-keyed
// maps, one CFG per function and a solver vector per block took 35,940
// allocations here; the pass takes about 12,500.
func TestRunTiersAllocs(t *testing.T) {
	src, _ := bench.Generate(bench.Spec{
		Name: "scale", Classes: 400, UsedClasses: 300,
		Members: 1600, DeadPercent: 10,
		Allocations: 10, RetainMod: 1, DeadHeavyClasses: 3,
		Seed: 400,
	})
	ar := analyzeSource(t, src)
	if allocs := tiersAllocs(t, ar); allocs > 16_000 {
		t.Errorf("linting %d reachable functions allocates %v times, want at most 16,000",
			len(ar.CallGraph.ReachableFuncs()), allocs)
	}
}

// TestStoreFreeFunctionCostsNoCFG: a function that stores to no member
// holds no candidate store, so the pass builds it no CFG and runs it no
// store pass. Doubling the statements of such a function, which only
// reads members, leaves the pass's allocations unchanged.
func TestStoreFreeFunctionCostsNoCFG(t *testing.T) {
	program := func(copies int) string {
		body := strings.Repeat("\t\ts = s + a * b;\n\t\tif (s > b) { s = s - a; } else { s = s + b; }\n\t\twhile (s > 100) { s = s / 2; }\n", copies)
		return `
class C {
public:
	int a;
	int b;
	C() : a(1), b(2) {}
	int sum() {
		int s = a;
` + body + `		return s;
	}
};
int main() { C c; return c.sum(); }
`
	}
	one, two := tiersAllocs(t, analyzeSource(t, program(4))), tiersAllocs(t, analyzeSource(t, program(8)))
	if one != two {
		t.Errorf("doubling a store-free function's statements took the pass from %v to %v allocations", one, two)
	}
}
