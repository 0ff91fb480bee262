package deadmember_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"deadmembers/internal/bench"
	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/frontend"
	"deadmembers/internal/lint"
)

// renderMarks serializes every member's classification — liveness,
// reason, and witness position — into one deterministic string, so two
// analyses can be compared byte-for-byte.
func renderMarks(res *deadmember.Result) string {
	var b strings.Builder
	for _, c := range res.Program.Classes {
		for _, f := range c.Fields {
			m := res.MarkOf(f)
			fmt.Fprintf(&b, "%-40s live=%-5v reason=%-28s witness=%s\n",
				f.QualifiedName(), m.Live, m.Reason, res.Program.FileSet.Position(m.Witness))
		}
	}
	b.WriteString("dead:")
	for _, f := range res.DeadMembers() {
		b.WriteString(" " + f.QualifiedName())
	}
	b.WriteString("\n")
	return b.String()
}

// renderLint serializes a lint result the way deadlint -format json does.
func renderLint(t *testing.T, r *lint.Result) string {
	t.Helper()
	var b strings.Builder
	if err := lint.WriteJSON(&b, r); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// checkWorkerCounts analyzes prog under opts at 1, 2 and 4 workers, with
// GOMAXPROCS set to match, and requires byte-identical results: the
// liveness result equals the sequential Analyze, a re-analysis over the
// same prebuilt call graph equals the fresh one, and the flow and heap
// lint tiers built on it do not move either.
func checkWorkerCounts(t *testing.T, name string, fr *frontend.Result, opts deadmember.Options) {
	t.Helper()
	want := renderMarks(deadmember.Analyze(fr.Program, fr.Graph, opts))
	var wantLint string
	for _, workers := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(workers)
		res := deadmember.AnalyzeWith(fr.Program, fr.Graph, opts, deadmember.Exec{Workers: workers})
		again := deadmember.AnalyzeWith(fr.Program, fr.Graph, opts, deadmember.Exec{Workers: workers, Graph: res.CallGraph})
		flow, heap := lint.RunTiers(res, lint.Options{}, lint.Exec{Workers: workers})
		runtime.GOMAXPROCS(prev)

		got := renderMarks(res)
		if got != want {
			t.Fatalf("%s %+v: result at %d workers differs from sequential:\n--- want ---\n%s--- got ---\n%s",
				name, opts, workers, want, got)
		}
		if renderMarks(again) != got {
			t.Fatalf("%s %+v: re-analysis over the prebuilt graph differs at %d workers", name, opts, workers)
		}
		gotLint := renderLint(t, flow) + renderLint(t, heap)
		if wantLint == "" {
			wantLint = gotLint
		} else if gotLint != wantLint {
			t.Fatalf("%s %+v: lint tiers at %d workers differ from 1 worker:\n--- want ---\n%s--- got ---\n%s",
				name, opts, workers, wantLint, gotLint)
		}
	}
}

// TestParallelDeterminism is the liveness pass's core guarantee: over the
// full corpus, dead-member lists, reasons and witnesses, and the lint
// findings built on them, are byte-identical at any worker count.
func TestParallelDeterminism(t *testing.T) {
	for _, bm := range bench.All() {
		checkWorkerCounts(t, bm.Name, frontend.MustCompile(bm.Sources...), deadmember.Options{CallGraph: callgraph.RTA})
	}
}

// TestParallelDeterminismAcrossOptions repeats the check for the call
// graph modes and the ablation variants whose reasons are the most
// order-sensitive (writes-are-uses marks on every write; conservative
// sizeof fans out MarkAllContained).
func TestParallelDeterminismAcrossOptions(t *testing.T) {
	variants := []deadmember.Options{
		{CallGraph: callgraph.ALL},
		{CallGraph: callgraph.CHA},
		{CallGraph: callgraph.RTA, WritesAreUses: true},
		{CallGraph: callgraph.RTA, Sizeof: deadmember.SizeofConservative},
		{CallGraph: callgraph.RTA, NoDeleteSpecialCase: true},
	}
	for _, bm := range bench.All() {
		fr := frontend.MustCompile(bm.Sources...)
		for _, opts := range variants {
			checkWorkerCounts(t, bm.Name, fr, opts)
		}
	}
}
