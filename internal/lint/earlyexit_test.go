package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"deadmembers/internal/bench"
	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/frontend"
	"deadmembers/internal/lint"
)

// TestEarlyExitIsExact runs the heap tier's pass over every reachable
// function of the examples, the testdata programs, the lint fixtures
// and the corpus. It must ask for the write summaries exactly when it
// numbers a candidate store path, and a function without one must get
// no findings from a numbering that allocates nothing.
func TestEarlyExitIsExact(t *testing.T) {
	var progs [][]frontend.Source
	for _, glob := range []string{"../../examples/mcc/*.mcc", "../../testdata/*.mcc", "testdata/*.mcc"} {
		paths, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			text, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, []frontend.Source{{Name: filepath.Base(p), Text: string(text)}})
		}
	}
	for _, b := range bench.All() {
		progs = append(progs, b.Sources)
	}
	funcs, withPaths := 0, 0
	for _, srcs := range progs {
		r := frontend.Compile(srcs...)
		if err := r.Err(); err != nil {
			t.Fatalf("%s does not compile: %v", srcs[0].Name, err)
		}
		ar := deadmember.Analyze(r.Program, r.Graph, deadmember.Options{CallGraph: callgraph.RTA})
		for _, f := range ar.CallGraph.ReachableFuncs() {
			ok, asked, paths, stores, allocs, err := lint.EarlyExit(ar, f)
			if !ok {
				continue
			}
			name := srcs[0].Name + " " + f.QualifiedName()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if asked != (paths > 0) {
				t.Errorf("%s: write summaries asked for = %v, but the pass numbers %d paths", name, asked, paths)
			}
			funcs++
			if paths > 0 {
				withPaths++
				continue
			}
			if stores != nil || allocs != 0 {
				t.Errorf("%s: no candidate, yet findings %v and %v allocations", name, stores, allocs)
			}
		}
	}
	if withPaths == 0 {
		t.Fatal("no function has a candidate store; the comparison proves nothing")
	}
	t.Logf("%d reachable functions, %d with a candidate store", funcs, withPaths)
}
