package lint

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"deadmembers/internal/callgraph"
	"deadmembers/internal/cfg"
	"deadmembers/internal/dataflow"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/heaplive"
	"deadmembers/internal/types"
)

// heapPass is the heap tier's pass over f with nothing suppressed and
// empty callee summaries, the most candidates and the fewest gens.
func heapPass(ar *deadmember.Result, f *types.Func) *funcPass {
	return &funcPass{
		ar: ar, f: f, g: cfg.Build(f), cl: classify(ar.Program.Info, f, newFieldMarks(fieldCount(ar.Program))),
		sup: dataflow.NewBitSet(fieldCount(ar.Program)), reads: func() *calleeSet { return &calleeSet{} },
	}
}

// heapStores runs the heap tier's pass over every reachable function of
// a lint fixture and renders each dead store as func:line:path.
func heapStores(t *testing.T, fixture string) []string {
	t.Helper()
	ar := analyzeFixture(t, fixture, deadmember.Options{CallGraph: callgraph.RTA})
	var out []string
	for _, f := range ar.CallGraph.ReachableFuncs() {
		fp := heapPass(ar, f)
		if fp.g == nil {
			continue
		}
		stores, err := fp.deadStores(func() *calleeSet { return &calleeSet{} })
		if err != nil {
			t.Fatal(err)
		}
		for _, ds := range stores {
			spelled, _, _ := strings.Cut(strings.TrimPrefix(ds.Message, "dead store to "), ":")
			out = append(out, fmt.Sprintf("%s:%d:%s", ds.Func, ds.Line, spelled))
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
	if got := heapStores(t, "chained.mcc"); !reflect.DeepEqual(got, want) {
		t.Fatalf("chained dead stores:\n got  %q\n want %q", got, want)
	}
}

// TestMaxDepthBound: a chain of maxDepth fields is tracked, a longer
// one never is, so of the fixture's two dead chain stores the heap tier
// reports only the depth-four one and the lower tiers report neither.
func TestMaxDepthBound(t *testing.T) {
	want := []string{"depthFour:37:x.b.c.d.val"}
	if got := heapStores(t, "depth.mcc"); !reflect.DeepEqual(got, want) {
		t.Fatalf("dead chain stores:\n got  %q\n want %q", got, want)
	}
	ar := analyzeFixture(t, "depth.mcc", deadmember.Options{CallGraph: callgraph.RTA})
	for _, p := range heaplive.Tiers() {
		var lines []int
		for _, f := range deadStoreFindings(Run(ar, Options{Precision: p})) {
			lines = append(lines, f.Line)
		}
		var wantLines []int
		if p == heaplive.PrecisionHeap {
			wantLines = []int{37}
		}
		if !reflect.DeepEqual(lines, wantLines) {
			t.Errorf("%s tier dead stores on lines %v, want %v", p, lines, wantLines)
		}
	}
}

// TestReceiverReadKeepsStoreLive: a read through a longer chain
// observes a store to its receiver (o.m.in.val reads what o.m.in = t
// stored; o.in.ptr->val dereferences what o.in.ptr = n stored), so no
// tier may report either store.
func TestReceiverReadKeepsStoreLive(t *testing.T) {
	if got := heapStores(t, "receiver.mcc"); len(got) != 0 {
		t.Errorf("heap pass reports live stores dead: %q", got)
	}
	ar := analyzeFixture(t, "receiver.mcc", deadmember.Options{CallGraph: callgraph.RTA})
	for _, p := range heaplive.Tiers() {
		if r := Run(ar, Options{Precision: p}); len(r.Findings) != 0 || r.Degraded() {
			t.Errorf("%s tier: findings %v, failures %v", p, r.Findings, r.Failures)
		}
	}
}

// TestReceiverIsNotACopy: reading o.b observes o.b alone, so the
// overwritten store o.a = 1 is dead at the flow and the heap tier. A
// flow tier that read the receiver o as a whole-object copy would keep
// every store under o live and report nothing.
func TestReceiverIsNotACopy(t *testing.T) {
	ar := analyzeFixture(t, "flowreceiver.mcc", deadmember.Options{CallGraph: callgraph.RTA})
	for _, p := range heaplive.Tiers() {
		var got []string
		for _, f := range deadStoreFindings(Run(ar, Options{Precision: p})) {
			got = append(got, fmt.Sprintf("%d:%s", f.Line, f.Message))
		}
		var want []string
		if p != heaplive.PrecisionPaper {
			want = []string{"13:dead store to o.a: no path reads a before it is overwritten or discarded"}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s tier dead stores %q, want %q", p, got, want)
		}
	}
}
