package engine_test

import (
	"context"
	"reflect"
	"testing"

	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/engine"
	"deadmembers/internal/heaplive"
	"deadmembers/internal/lint"
	"deadmembers/internal/types"
)

const lintSrc = `
class P {
public:
    int x;
    int y;
    P() : x(0), y(0) {}
    int sum() { return x + y; }
};
void overwrite(P* p) {
    p->x = 1;
    p->x = 2;
}
int main() {
    P p;
    overwrite(&p);
    print(p.sum());
    return 0;
}
`

func TestLintTimingsAndFindings(t *testing.T) {
	sess := engine.NewSession(engine.Config{})
	comp := sess.CompileContext(context.Background(), engine.Source{Name: "lint.mcc", Text: lintSrc})
	if err := comp.Err(); err != nil {
		t.Fatal(err)
	}
	res, timings, err := comp.LintContext(context.Background(),
		deadmember.Options{CallGraph: callgraph.RTA}, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded() {
		t.Fatalf("degraded: %v", res.Failures)
	}
	if len(res.Findings) != 1 || res.Findings[0].Check != lint.CheckDeadStore {
		t.Fatalf("findings = %v, want one dead store", res.Findings)
	}
	if timings.Lint <= 0 {
		t.Errorf("Timings.Lint not populated: %v", timings.Lint)
	}
	if timings.Total() < timings.Lint {
		t.Errorf("Total() = %v excludes Lint = %v", timings.Total(), timings.Lint)
	}
}

// lintChainSrc has one chained dead store only the heap tier can see.
const lintChainSrc = `
class Inner {
public:
    int val;
    Inner() : val(0) {}
};
class Outer {
public:
    Inner in;
    int tag;
    Outer() : tag(0) {}
};
int main() {
    Outer o;
    o.in.val = 1;
    o.in.val = 2;
    print(o.in.val + o.tag);
    return 0;
}
`

// TestLintCachePerPrecision exercises the per-compilation lint cache.
// One pass computes the flow and heap tiers and caches both, so after
// a flow run the heap request is a flagged hit, and the reverse; what
// the cache serves equals a fresh lint.RunWith at that tier. The paper
// tier runs on its own, repeats are hits, and budgets never collide.
func TestLintCachePerPrecision(t *testing.T) {
	opts := deadmember.Options{CallGraph: callgraph.RTA}
	for _, order := range [][2]heaplive.Precision{
		{heaplive.PrecisionFlow, heaplive.PrecisionHeap},
		{heaplive.PrecisionHeap, heaplive.PrecisionFlow},
	} {
		sess := engine.NewSession(engine.Config{})
		comp := sess.CompileContext(context.Background(), engine.Source{Name: "chain.mcc", Text: lintChainSrc})
		if err := comp.Err(); err != nil {
			t.Fatal(err)
		}
		lintAt := func(p heaplive.Precision, budget int) (*lint.Result, engine.Timings) {
			t.Helper()
			res, timings, err := comp.LintContext(context.Background(), opts, lint.Options{Precision: p, Budget: budget})
			if err != nil {
				t.Fatal(err)
			}
			return res, timings
		}

		first, timings := lintAt(order[0], 0)
		if timings.LintCached || timings.Lint <= 0 {
			t.Fatalf("%s first: flagged as a hit (cached=%v lint=%v)", order[0], timings.LintCached, timings.Lint)
		}
		served, timings := lintAt(order[1], 0)
		if !timings.LintCached || timings.Lint != 0 {
			t.Fatalf("%s after %s: not served from the cache (cached=%v lint=%v)",
				order[1], order[0], timings.LintCached, timings.Lint)
		}
		ar := comp.Analyze(opts)
		for i, res := range []*lint.Result{first, served} {
			p := order[i]
			if fresh := lint.RunWith(ar, lint.Options{Precision: p}, lint.Exec{}); !reflect.DeepEqual(res, fresh) {
				t.Fatalf("%s tier: cached result differs from a fresh run:\n got  %+v\n want %+v", p, res, fresh)
			}
			again, timings := lintAt(p, 0)
			if !timings.LintCached || timings.Lint != 0 {
				t.Fatalf("%s tier: repeat not served from the cache", p)
			}
			if again != res {
				t.Fatalf("%s tier: cache returned a different result", p)
			}
		}

		flow, _ := lintAt(heaplive.PrecisionFlow, 0)
		heap, _ := lintAt(heaplive.PrecisionHeap, 0)
		if !(len(heap.Findings) > len(flow.Findings)) {
			t.Fatalf("heap tier collided with flow in the cache: heap=%d flow=%d",
				len(heap.Findings), len(flow.Findings))
		}

		if _, timings := lintAt(heaplive.PrecisionPaper, 0); timings.LintCached {
			t.Fatal("paper tier served from a flow/heap cache entry")
		}
		if _, timings := lintAt(heaplive.PrecisionPaper, 0); !timings.LintCached {
			t.Fatal("paper tier repeat not served from the cache")
		}

		// Distinct budgets must not collide either.
		if _, timings := lintAt(order[0], 1<<20); timings.LintCached {
			t.Fatal("budget change served from the old cache entry")
		}
		if _, timings := lintAt(order[1], 1<<20); !timings.LintCached {
			t.Fatal("the other tier at the new budget is not a hit")
		}
	}
}

func TestLintFaultContainment(t *testing.T) {
	sess := engine.NewSession(engine.Config{
		LintFault: func(f *types.Func) {
			if f.QualifiedName() == "overwrite" {
				panic("injected lint fault")
			}
		},
	})
	comp := sess.CompileContext(context.Background(), engine.Source{Name: "lint.mcc", Text: lintSrc})
	if err := comp.Err(); err != nil {
		t.Fatal(err)
	}
	res, _, err := comp.LintContext(context.Background(),
		deadmember.Options{CallGraph: callgraph.RTA}, lint.Options{})
	if err != nil {
		t.Fatalf("a contained panic must not become an error: %v", err)
	}
	if !res.Degraded() {
		t.Fatal("injected fault should degrade the lint result")
	}
	found := false
	for _, f := range res.Failures {
		if f.Stage == "lint" && f.Unit == "overwrite" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing containment record: %v", res.Failures)
	}
}
