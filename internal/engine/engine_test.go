package engine_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"deadmembers/internal/ast"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/engine"
	"deadmembers/internal/frontend"
	"deadmembers/internal/heaplive"
	"deadmembers/internal/lint"
	"deadmembers/internal/parser"
	"deadmembers/internal/sema"
	"deadmembers/internal/source"
	"deadmembers/internal/strip"
)

// renderResult serializes every member's classification — liveness,
// reason, and witness position — into one deterministic string, so two
// analyses can be compared byte-for-byte.
func renderResult(res *deadmember.Result) string {
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

// TestSessionCompileOnce checks the content-hash cache: identical sources
// compile once, different sources miss, and the cached Compilation is the
// same artifact (so its call-graph cache is shared too).
func TestSessionCompileOnce(t *testing.T) {
	s := engine.NewSession(engine.Config{}, engine.Limits{})
	src := frontend.Source{Name: "a.mcc", Text: "class A { public: int x; A() : x(1) {} }; int main() { A a; return 0; }"}

	c1 := s.Compile(src)
	c2 := s.Compile(src)
	if c1 != c2 {
		t.Fatal("identical sources should return the cached Compilation")
	}
	if st := s.Stats(); st.Compiles != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 compile / 1 hit", st)
	}

	// A one-byte change is a different program.
	src2 := src
	src2.Text = strings.Replace(src.Text, "x(1)", "x(2)", 1)
	c3 := s.Compile(src2)
	if c3 == c1 {
		t.Fatal("changed source must not hit the cache")
	}
	if st := s.Stats(); st.Compiles != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 compiles / 1 hit", st)
	}

	// A cached re-analysis equals a fresh, uncached one.
	fresh := engine.Compile(engine.Config{}, src)
	if renderResult(c1.Analyze(deadmember.Options{})) != renderResult(fresh.Analyze(deadmember.Options{})) {
		t.Fatal("cached compilation's analysis differs from a fresh compile")
	}
}

// stripSrc has a dead member that Strip takes out of a constructor
// initializer (hoisting its effectful argument), of a method, of a
// single-statement if body and, with its only reader, of an unreachable
// method. A strip that wrote its compilation would leave no write of it
// for a later analysis under WritesAreUses to see.
var stripSrc = frontend.Source{Name: "s.mcc", Text: `
int calls = 0;
int bump() { calls = calls + 1; return calls; }
class Node {
public:
	int val;
	int cache;
	Node() : val(1), cache(bump()) {}
	void set(int v) { val = v; cache = v * 2; }
	int debug() { return cache; }
};
int main() {
	Node n;
	n.set(3);
	if (n.val > 0) n.cache = 5;
	print(n.val + calls);
	println();
	return 0;
}
`}

// TestStripLeavesCompilation: the strip transform writes nothing of its
// compilation, so the session hands the same compilation back, a second
// Strip emits the same sources, and analyses and runs after a Strip
// match those of a compilation that was never stripped.
func TestStripLeavesCompilation(t *testing.T) {
	s := engine.NewSession(engine.Config{}, engine.Limits{})
	c1 := s.Compile(stripSrc)
	fresh := engine.Compile(engine.Config{}, stripSrc)
	out := c1.Strip(rta, strip.Options{})
	if len(out.RemovedMembers) != 1 || out.RemovedMembers[0] != "Node::cache" {
		t.Fatalf("strip removed %v, want [Node::cache]", out.RemovedMembers)
	}
	if c2 := s.Compile(stripSrc); c2 != c1 {
		t.Fatal("session recompiled a stripped compilation")
	}
	if st := s.Stats(); st.Compiles != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 compile / 1 hit", st)
	}
	if again := c1.Strip(rta, strip.Options{}); !reflect.DeepEqual(again.Sources, out.Sources) {
		t.Fatalf("second Strip differs:\n%v\n---\n%v", again.Sources, out.Sources)
	}
	writes := rta
	writes.WritesAreUses = true
	for _, opts := range []deadmember.Options{rta, writes} {
		if got, want := renderResult(c1.Analyze(opts)), renderResult(fresh.Analyze(opts)); got != want {
			t.Errorf("Analyze(%+v) after Strip:\n%s\nwant:\n%s", opts, got, want)
		}
	}
	got, err := c1.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Output != want.Output || got.ExitCode != want.ExitCode {
		t.Errorf("Run after Strip = %d %q, want %d %q", got.ExitCode, got.Output, want.ExitCode, want.Output)
	}
}

// TestStripConcurrentWithAnalyses runs Strip, Lint and Analyze on one
// session compilation from several goroutines at once: every Strip
// emits the same sources, and under -race (make race-server) nothing
// they share is written unsynchronized.
func TestStripConcurrentWithAnalyses(t *testing.T) {
	const goroutines = 6
	s := engine.NewSession(engine.Config{}, engine.Limits{})
	comp := s.Compile(stripSrc)
	if err := comp.Err(); err != nil {
		t.Fatal(err)
	}
	outs := make([]*strip.Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0:
				outs[g] = comp.Strip(rta, strip.Options{})
			case 1:
				comp.Lint(rta, lint.Options{Precision: heaplive.PrecisionHeap})
			default:
				opts := rta
				opts.WritesAreUses = g%2 == 0
				comp.Analyze(opts)
			}
		}(g)
	}
	wg.Wait()
	want := engine.Compile(engine.Config{}, stripSrc).Strip(rta, strip.Options{})
	for g := 0; g < goroutines; g += 3 {
		if !reflect.DeepEqual(outs[g], want) {
			t.Errorf("goroutine %d: Strip = %+v, want %+v", g, outs[g], want)
		}
	}
}

// TestParallelParseDiagnosticsDeterministic: diagnostics come in file
// order, so which file's error comes first is fixed, and the engine
// reports exactly what the frontend does.
func TestParallelParseDiagnosticsDeterministic(t *testing.T) {
	sources := []frontend.Source{
		{Name: "one.mcc", Text: "class A { public: int x; };\nint broken1() { return $; }\n"},
		{Name: "two.mcc", Text: "int broken2() { return @; }\n"},
		{Name: "three.mcc", Text: "class B : public A { public: int y; };\nint broken3() { return #; }\nint main() { return 0; }\n"},
	}
	err := engine.Compile(engine.Config{}, sources...).Err()
	if err == nil {
		t.Fatal("expected parse errors")
	}
	got := err.Error()
	one, two, three := strings.Index(got, "one.mcc:"), strings.Index(got, "two.mcc:"), strings.Index(got, "three.mcc:")
	if one < 0 || one > two || two > three {
		t.Fatalf("diagnostics are not in file order:\n%s", got)
	}
	if want := frontend.Compile(sources...).Err(); want == nil || want.Error() != got {
		t.Fatalf("engine and frontend diagnostics differ:\n--- engine ---\n%s\n--- frontend ---\n%v", got, want)
	}
}

// lexParseSources mixes lex errors (unexpected characters, an
// unterminated string) with the parse errors they cause, and needs a
// class name from another file to parse.
var lexParseSources = []frontend.Source{
	{Name: "one.mcc", Text: "class A { public: int x; };\nint broken1() { return $; }\n"},
	{Name: "two.mcc", Text: "int broken2() { B* b; return @ + \"open; }\n"},
	{Name: "three.mcc", Text: "class B : public A { public: int y; };\nint broken3() { return #; }\nint main() { return 0; }\n"},
}

// referenceDiags compiles sources the way the frontend did when every
// file was lexed twice (once for its type names, once by
// parser.ParseFileWithTypes), leaving out the files named in skip as a
// faulted parse does, and renders every diagnostic.
func referenceDiags(sources []frontend.Source, skip string) string {
	fset := source.NewFileSet()
	diags := source.NewDiagnosticList(fset)
	var srcFiles []*source.File
	allTypes := map[string]bool{}
	for _, s := range sources {
		f := fset.AddFile(s.Name, s.Text)
		srcFiles = append(srcFiles, f)
		for name := range parser.CollectTypeNames(f) {
			allTypes[name] = true
		}
	}
	var files []*ast.File
	for _, f := range srcFiles {
		if f.Name() == skip {
			files = append(files, &ast.File{Name: f.Name()})
			continue
		}
		files = append(files, parser.ParseFileWithTypes(f, diags, allTypes))
	}
	sema.Check(fset, files, diags)
	return diags.String()
}

// TestLexDiagnosticsOncePerFile: lexing each file once, in the type-name
// prescan, reports every lex diagnostic once, in the same place as the
// lex-twice pipeline did (each file's lex diagnostics just before its
// parse diagnostics), through the frontend and the engine; a faulted
// parse reports none of its file's.
func TestLexDiagnosticsOncePerFile(t *testing.T) {
	want := referenceDiags(lexParseSources, "")
	if !strings.Contains(want, "unexpected character") || !strings.Contains(want, "unterminated string") {
		t.Fatalf("fixture must carry lex errors:\n%s", want)
	}
	if got := frontend.Compile(lexParseSources...).Diags.String(); got != want {
		t.Errorf("frontend diagnostics differ:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if got := engine.Compile(engine.Config{}, lexParseSources...).Diags.String(); got != want {
		t.Errorf("engine diagnostics differ:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	want = referenceDiags(lexParseSources, "two.mcc")
	c := engine.Compile(engine.Config{ParseFault: func(name string) {
		if name == "two.mcc" {
			panic("injected parse fault")
		}
	}}, lexParseSources...)
	if len(c.Failures) != 1 {
		t.Fatalf("failures = %v, want one", c.Failures)
	}
	if got := c.Diags.String(); got != want {
		t.Errorf("faulted parse: diagnostics differ:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestMultiFileEngineCompile: cross-file type references survive the
// split between the type-name prescan and the parse.
func TestMultiFileEngineCompile(t *testing.T) {
	sources := []frontend.Source{
		{Name: "lib.mcc", Text: "class Vec { public: int x; int pad; Vec() : x(3), pad(0) {} };"},
		{Name: "app.mcc", Text: "int main() { Vec v; return v.x - 3; }"},
	}
	c := engine.Compile(engine.Config{}, sources...)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	res := c.Analyze(deadmember.Options{})
	dead := res.DeadMembers()
	if len(dead) != 1 || dead[0].QualifiedName() != "Vec::pad" {
		t.Fatalf("dead = %v, want [Vec::pad]", dead)
	}
	if r, err := c.Run(); err != nil || r.ExitCode != 0 {
		t.Fatalf("run: %v exit=%d", err, r.ExitCode)
	}
}
