package deadmember_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deadmembers/internal/bench"
	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/frontend"
)

var update = flag.Bool("update", false, "rewrite the marks goldens")

// optionSet is one named analysis configuration of the marks goldens.
type optionSet struct {
	name string
	opts deadmember.Options
}

// markOptionSets covers every rule switch of the liveness pass and each
// weaker call graph.
var markOptionSets = []optionSet{
	{"default", deadmember.Options{}},
	{"no-delete-rule", deadmember.Options{NoDeleteSpecialCase: true}},
	{"sizeof-conservative", deadmember.Options{Sizeof: deadmember.SizeofConservative}},
	{"trust-downcasts", deadmember.Options{TrustDowncasts: true}},
	{"writes-are-uses", deadmember.Options{WritesAreUses: true}},
	{"cha", deadmember.Options{CallGraph: callgraph.CHA}},
	{"all", deadmember.Options{CallGraph: callgraph.ALL}},
}

// libraryOptionSets names one class of a program as a library class.
var libraryOptionSets = map[string]optionSet{
	"internal/lint/testdata/specialcases.mcc": {"library=Callback", deadmember.Options{LibraryClasses: []string{"Callback"}}},
}

// goldenMarks renders every member's mark (renderMarks) after analyzing
// at one and at two workers, and fails if the two renderings differ.
func goldenMarks(t *testing.T, r *frontend.Result, opts deadmember.Options) string {
	t.Helper()
	var out [2]string
	for w := range out {
		res := deadmember.AnalyzeWith(r.Program, r.Graph, opts, deadmember.Exec{Workers: w + 1})
		if res.Degraded() {
			t.Fatalf("degraded: %v", res.Failures)
		}
		out[w] = renderMarks(res)
	}
	if out[0] != out[1] {
		t.Fatalf("marks differ between one and two workers:\n%s---\n%s", out[0], out[1])
	}
	return out[0]
}

// TestMarksGolden holds every member's mark — live or dead, the reason
// and the witness — to a golden under each option set, for every
// shipped MC++ program and the paper's Figure 1 example, and to one
// sha256 per option set for each program of the paper corpus. Reasons
// and witnesses are first-wins, so the golden also pins the order in
// which the pass meets accesses.
func TestMarksGolden(t *testing.T) {
	type program struct {
		name string
		src  []frontend.Source
	}
	var progs []program
	for _, pattern := range []string{"../../examples/mcc/*.mcc", "../../testdata/*.mcc", "../*/testdata/*.mcc"} {
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			t.Fatalf("no programs match %s: %v", pattern, err)
		}
		for _, path := range paths {
			text, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			name := strings.TrimPrefix(strings.TrimPrefix(filepath.ToSlash(path), "../../"), "../")
			if !strings.HasPrefix(name, "examples/") && !strings.HasPrefix(name, "testdata/") {
				name = "internal/" + name
			}
			progs = append(progs, program{name, []frontend.Source{{Name: name, Text: string(text)}}})
		}
	}
	// The figure1 const is examples/figure1's program, line for line.
	progs = append(progs, program{"examples/figure1", []frontend.Source{{Name: "figure1.mcc", Text: figure1}}})

	var b strings.Builder
	for _, p := range progs {
		r := frontend.Compile(p.src...)
		if err := r.Err(); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		sets := markOptionSets
		if lib, ok := libraryOptionSets[p.name]; ok {
			sets = append(sets[:len(sets):len(sets)], lib)
		}
		for _, set := range sets {
			fmt.Fprintf(&b, "== %s [%s]\n", p.name, set.name)
			b.WriteString(goldenMarks(t, r, set.opts))
		}
	}
	checkGolden(t, "marks.golden", b.String())

	b.Reset()
	for _, bm := range bench.All() {
		r := frontend.Compile(bm.Sources...)
		if err := r.Err(); err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		for _, set := range markOptionSets {
			fmt.Fprintf(&b, "%s %s %x\n", bm.Name, set.name, sha256.Sum256([]byte(goldenMarks(t, r, set.opts))))
		}
	}
	checkGolden(t, "corpus_marks.sha256", b.String())
}

// checkGolden compares got with testdata/name, or rewrites it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from its golden:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}
