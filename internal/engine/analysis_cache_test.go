package engine_test

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/engine"
	"deadmembers/internal/heaplive"
	"deadmembers/internal/lint"
	"deadmembers/internal/strip"
	"deadmembers/internal/types"
)

// cacheSrc has one write-only member, P::unused.
const cacheSrc = `
class P {
public:
    int x;
    int y;
    int unused;
    P() : x(0), y(0), unused(7) {}
    int sum() { return x + y; }
};
int main() {
    P p;
    print(p.sum());
    return 0;
}
`

// countingCompile compiles cacheSrc with a FuncFault that counts the
// functions the liveness pass processes, and panics on main while
// *fault is set.
func countingCompile(t *testing.T, fault *atomic.Bool) (*engine.Compilation, *atomic.Int64) {
	t.Helper()
	var n atomic.Int64
	comp := engine.Compile(engine.Config{FuncFault: func(f *types.Func) {
		n.Add(1)
		if fault != nil && fault.Load() && f.QualifiedName() == "main" {
			panic("injected liveness fault")
		}
	}}, engine.Source{Name: "cache.mcc", Text: cacheSrc})
	if err := comp.Err(); err != nil {
		t.Fatal(err)
	}
	return comp, &n
}

// TestAnalysisCachedPerOptions: liveness runs once per (compilation,
// options). A repeat Analyze, and every Lint, Profile and Strip under the
// same options, reuse the cached *Result; a WritesAreUses run gets its
// own entry.
func TestAnalysisCachedPerOptions(t *testing.T) {
	comp, runs := countingCompile(t, nil)
	opts := deadmember.Options{CallGraph: callgraph.RTA}

	first, tm, _ := comp.AnalyzeContext(context.Background(), opts)
	perPass := runs.Load()
	if perPass == 0 {
		t.Fatal("FuncFault did not count the liveness pass")
	}
	if tm.LivenessCached || first.Degraded() {
		t.Fatalf("first analysis: cached=%v degraded=%v", tm.LivenessCached, first.Degraded())
	}
	noLiveness := func(what string) {
		t.Helper()
		if got := runs.Load(); got != perPass {
			t.Fatalf("%s ran liveness again (%d functions, want %d)", what, got, perPass)
		}
	}

	again, tm, _ := comp.AnalyzeContext(context.Background(), opts)
	noLiveness("a repeat Analyze")
	if again != first {
		t.Fatal("a repeat Analyze returned a different *Result")
	}
	if !tm.LivenessCached || tm.Liveness != 0 || !tm.CallGraphCached || tm.CallGraph != 0 {
		t.Fatalf("a repeat Analyze is not a flagged hit: %+v", tm)
	}

	if _, tm, err := comp.LintContext(context.Background(), opts, lint.Options{}); err != nil || !tm.LivenessCached {
		t.Fatalf("Lint: err=%v livenessCached=%v", err, tm.LivenessCached)
	}
	noLiveness("Lint")

	prof, err := comp.Profile(opts)
	if err != nil {
		t.Fatal(err)
	}
	noLiveness("Profile")
	if prof.Analysis != first {
		t.Fatal("Profile measured a different *Result")
	}

	wopts := opts
	wopts.WritesAreUses = true
	w := comp.Analyze(wopts)
	if runs.Load() != 2*perPass {
		t.Fatalf("a WritesAreUses run did not get its own liveness pass (%d functions)", runs.Load())
	}
	if w == first || len(w.DeadMembers()) >= len(first.DeadMembers()) {
		t.Fatalf("WritesAreUses result shares or matches the default entry: %d vs %d dead",
			len(w.DeadMembers()), len(first.DeadMembers()))
	}
	if comp.Analyze(wopts) != w || comp.Analyze(opts) != first {
		t.Fatal("entries are not kept per options")
	}

	if st := comp.Strip(opts, strip.Options{}); len(st.RemovedMembers) == 0 {
		t.Fatal("Strip removed nothing")
	}
	if runs.Load() != 2*perPass {
		t.Fatal("Strip ran liveness again")
	}
}

// TestAnalysisCacheSkipsFailures: a degraded or interrupted analysis is
// never cached, so the next request runs liveness again and gets a clean
// result.
func TestAnalysisCacheSkipsFailures(t *testing.T) {
	var fault atomic.Bool
	fault.Store(true)
	comp, runs := countingCompile(t, &fault)
	opts := deadmember.Options{CallGraph: callgraph.RTA}

	if res := comp.Analyze(opts); !res.Degraded() {
		t.Fatal("the injected fault did not degrade the analysis")
	}
	fault.Store(false)
	before := runs.Load()
	clean := comp.Analyze(opts)
	if runs.Load() == before || clean.Degraded() {
		t.Fatalf("a degraded result was served from the cache (degraded=%v)", clean.Degraded())
	}

	// Interrupted: cancel from inside the pass.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	comp = engine.Compile(engine.Config{FuncFault: func(*types.Func) { cancel() }},
		engine.Source{Name: "cache.mcc", Text: cacheSrc})
	if _, _, err := comp.AnalyzeContext(ctx, opts); err == nil {
		t.Fatal("a pass cancelled midway returned no error")
	}
	if _, tm, err := comp.AnalyzeContext(context.Background(), opts); err != nil || tm.LivenessCached {
		t.Fatalf("after an interrupted pass: err=%v livenessCached=%v", err, tm.LivenessCached)
	}
}

// TestAnalysisCacheConcurrent races Analyze and Lint on one compilation:
// every caller gets the one cached *Result, and the tier results agree.
func TestAnalysisCacheConcurrent(t *testing.T) {
	comp := engine.Compile(engine.Config{}, engine.Source{Name: "chain.mcc", Text: lintChainSrc})
	if err := comp.Err(); err != nil {
		t.Fatal(err)
	}
	opts := deadmember.Options{CallGraph: callgraph.RTA}
	const goroutines = 8
	ars := make([]*deadmember.Result, goroutines)
	lints := make([][2]*lint.Result, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			lintAt := func(p heaplive.Precision) *lint.Result {
				return comp.Lint(opts, lint.Options{Precision: p})
			}
			ars[g] = comp.Analyze(opts)
			if g%2 == 0 {
				flow := lintAt(heaplive.PrecisionFlow)
				lints[g] = [2]*lint.Result{flow, lintAt(heaplive.PrecisionHeap)}
			} else {
				heap := lintAt(heaplive.PrecisionHeap)
				lints[g] = [2]*lint.Result{lintAt(heaplive.PrecisionFlow), heap}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if ars[g] != ars[0] {
			t.Fatalf("goroutine %d got a different *Result", g)
		}
		if !reflect.DeepEqual(lints[g], lints[0]) {
			t.Fatalf("goroutine %d got different lint results", g)
		}
	}
}
