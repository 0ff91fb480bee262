package heaplive_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"deadmembers/internal/bench"
	"deadmembers/internal/callgraph"
	"deadmembers/internal/cfg"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/frontend"
	"deadmembers/internal/heaplive"
	"deadmembers/internal/lint"
	"deadmembers/internal/types"
)

// program is one compiled test input.
type program struct {
	name string
	res  *frontend.Result
}

// shippedPrograms compiles every example, testdata program, lint
// fixture and corpus benchmark.
func shippedPrograms(t *testing.T) []program {
	t.Helper()
	var out []program
	for _, glob := range []string{"../../examples/mcc/*.mcc", "../../testdata/*.mcc", "../lint/testdata/*.mcc"} {
		paths, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			text, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, program{p, frontend.Compile(frontend.Source{Name: filepath.Base(p), Text: string(text)})})
		}
	}
	for _, b := range bench.All() {
		out = append(out, program{b.Name, frontend.Compile(b.Sources...)})
	}
	for _, p := range out {
		if err := p.res.Err(); err != nil {
			t.Fatalf("%s does not compile: %v", p.name, err)
		}
	}
	return out
}

// reachable returns the program's reachable functions under RTA.
func reachable(r *frontend.Result) []*types.Func {
	ar := deadmember.Analyze(r.Program, r.Graph, deadmember.Options{CallGraph: callgraph.RTA})
	return ar.CallGraph.ReachableFuncs()
}

// TestEarlyExitIsExact runs Analyze and its no-early-exit twin over
// every reachable function of the shipped programs. They must agree,
// and Analyze must ask for the summary exactly when the full pass
// numbers a non-empty path universe.
func TestEarlyExitIsExact(t *testing.T) {
	sup := map[*types.Field]bool{} // suppress nothing: the most candidates
	funcs, withPaths := 0, 0
	for _, p := range shippedPrograms(t) {
		info := p.res.Program.Info
		for _, f := range reachable(p.res) {
			g := cfg.Build(f)
			acc := lint.AccessesFor(info, f)
			asked := false
			summary := func() heaplive.Summary { asked = true; return heaplive.Summary{} }
			early, err := heaplive.Analyze(info, g, acc, summary, sup, heaplive.Options{})
			if err != nil {
				t.Fatalf("%s %s: %v", p.name, f.QualifiedName(), err)
			}
			full, paths, err := heaplive.AnalyzeFull(info, g, acc, heaplive.Summary{}, sup, heaplive.Options{})
			if err != nil {
				t.Fatalf("%s %s: %v", p.name, f.QualifiedName(), err)
			}
			if asked != (paths > 0) {
				t.Errorf("%s %s: summary asked for = %v, but the full pass numbers %d paths",
					p.name, f.QualifiedName(), asked, paths)
			}
			if !reflect.DeepEqual(early, full) {
				t.Errorf("%s %s: early exit reports %v, full pass %v", p.name, f.QualifiedName(), early, full)
			}
			funcs++
			if paths > 0 {
				withPaths++
			}
		}
	}
	if withPaths == 0 {
		t.Fatal("no function has a candidate store; the comparison proves nothing")
	}
	t.Logf("%d reachable functions, %d with a candidate store", funcs, withPaths)
}

// chainedStores runs Analyze over every reachable function of the lint
// fixture chained.mcc and renders each dead store as func:line:path.
func chainedStores(t *testing.T, opts heaplive.Options) []string {
	t.Helper()
	text, err := os.ReadFile("../lint/testdata/chained.mcc")
	if err != nil {
		t.Fatal(err)
	}
	r := frontend.Compile(frontend.Source{Name: "chained.mcc", Text: string(text)})
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range reachable(r) {
		stores, err := heaplive.Analyze(r.Program.Info, cfg.Build(f), lint.AccessesFor(r.Program.Info, f),
			func() heaplive.Summary { return heaplive.Summary{} }, map[*types.Field]bool{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, ds := range stores {
			out = append(out, fmt.Sprintf("%s:%d:%s", f.QualifiedName(), r.FileSet.Position(ds.Pos).Line, ds.Path))
		}
	}
	return out
}

// TestChainedFixture pins the fixture's three chained dead stores, the
// ones only the heap tier reports.
func TestChainedFixture(t *testing.T) {
	want := []string{
		"deepChain:41:b.out.in.val",
		"overwriteChain:34:o.in.val",
		"throughPointer:47:p->in.val",
	}
	if got := chainedStores(t, heaplive.Options{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("chained dead stores:\n got  %q\n want %q", got, want)
	}
}

// TestMaxDepthBound: a chain longer than MaxDepth is never tracked, so
// at depth 2 the depth-3 store in deepChain goes unreported.
func TestMaxDepthBound(t *testing.T) {
	want := []string{
		"overwriteChain:34:o.in.val",
		"throughPointer:47:p->in.val",
	}
	if got := chainedStores(t, heaplive.Options{MaxDepth: 2}); !reflect.DeepEqual(got, want) {
		t.Fatalf("chained dead stores at depth 2:\n got  %q\n want %q", got, want)
	}
}
