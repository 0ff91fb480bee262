package deadmembers_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"deadmembers"
	"deadmembers/internal/cfg"
	"deadmembers/internal/dynprof"
	"deadmembers/internal/frontend"
)

// The fuzz targets hold the pipeline to its containment contract on
// arbitrary input: the frontend may reject a program with diagnostics,
// but it must never panic out of the API, never report a degraded
// compilation (a contained panic on plain source text is a bug, not
// containment working as intended), and anything Strip emits must
// recompile cleanly. Regressions caught by fuzzing are checked in under
// testdata/fuzz/<FuzzName>/ and replayed by plain `go test`.

func seedCorpus(f *testing.F) {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "*.mcc"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		text, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text))
	}
	f.Add("int main() { return 0; }")
	f.Add("class C { public: int x; C() : x(1) {} }; int main() { C c; return c.x; }")
}

func fuzzCompile(t *testing.T, text string) (*deadmembers.Compilation, bool) {
	t.Helper()
	c, err := deadmembers.Compile(deadmembers.Source{Name: "fuzz.mcc", Text: text})
	if err != nil {
		return nil, false // rejected with diagnostics: fine
	}
	if c.Degraded() {
		t.Fatalf("compile degraded on plain source input: %v", c.Failures())
	}
	return c, true
}

func FuzzCompile(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, text string) {
		fuzzCompile(t, text)
	})
}

func FuzzAnalyze(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, text string) {
		c, ok := fuzzCompile(t, text)
		if !ok {
			return
		}
		for _, opts := range []deadmembers.Options{
			{},
			{CallGraph: deadmembers.CallGraphCHA, WritesAreUses: true},
			{CallGraph: deadmembers.CallGraphALL, TrustDowncasts: true, NoDeleteSpecialCase: true},
		} {
			res := c.Analyze(opts)
			if res.Degraded() {
				t.Fatalf("analysis degraded on plain source input: %v", res.Failures)
			}
			for _, m := range res.DeadMembers() {
				if !res.IsDead(m) {
					t.Fatalf("%s listed dead but IsDead is false", m.QualifiedName())
				}
			}
		}
	})
}

// FuzzCFG holds the flow-sensitive layer to its contract on arbitrary
// compiling input: every function's CFG satisfies the structural
// invariants, the lint pass terminates under the default solver budget
// without degrading, and a deliberately starved budget surfaces only
// orderly "budget" failures — never a hang or a panic.
func FuzzCFG(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, text string) {
		res := frontend.Compile(frontend.Source{Name: "fuzz.mcc", Text: text})
		if res.Err() != nil {
			return
		}
		for _, fn := range res.Program.AllFuncs() {
			g := cfg.Build(fn)
			if g == nil {
				continue
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if g.Dump() == "" || g.DOT() == "" {
				t.Fatalf("%s: empty CFG rendering", fn.QualifiedName())
			}
		}

		c, ok := fuzzCompile(t, text)
		if !ok {
			return
		}
		lres := c.Lint(deadmembers.Options{}, deadmembers.LintOptions{})
		if lres.Degraded() {
			t.Fatalf("lint degraded on plain source input under the default budget: %v", lres.Failures)
		}
		// A starved budget must fail politely, function by function.
		lres = c.Lint(deadmembers.Options{}, deadmembers.LintOptions{Budget: 1})
		for _, fl := range lres.Failures {
			if fl.Stack != "budget" {
				t.Fatalf("non-budget failure under Budget=1: %+v", fl)
			}
		}
	})
}

func FuzzStripRoundTrip(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, text string) {
		if _, ok := fuzzCompile(t, text); !ok {
			return
		}
		// Strip consumes its compilation, so let it compile its own.
		out, err := deadmembers.Strip(deadmembers.Options{}, deadmembers.StripOptions{},
			deadmembers.Source{Name: "fuzz.mcc", Text: text})
		if err != nil {
			t.Fatalf("compiled program failed to strip: %v", err)
		}
		// The round-trip property: whatever the transform emits is a valid
		// MC++ program — it reparses and rechecks with zero diagnostics.
		if _, err := deadmembers.Compile(out.Sources...); err != nil {
			var b strings.Builder
			for _, s := range out.Sources {
				b.WriteString(s.Text)
			}
			t.Fatalf("stripped output does not recompile: %v\n---- stripped ----\n%s", err, b.String())
		}
	})
}

// FuzzVMDifferential holds the bytecode VM, which executes every
// program, to its reference oracle: each compiling input is profiled
// through the production path and on the tree-walker (a nil
// Executor), and the two runs must agree byte-for-byte — same output,
// exit code, step count, and heap high-water marks — or fail with the
// identical error. The input is compiled once and analyzed under the
// same options for both runs; only the body evaluator differs, so any
// divergence is the VM's fault by construction.
func FuzzVMDifferential(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, text string) {
		c, ok := fuzzCompile(t, text)
		if !ok {
			return
		}
		// A small step budget keeps looping inputs cheap under coverage
		// instrumentation; both evaluators count statements identically,
		// so the budget trips in lockstep.
		const budget = 20_000
		vm, verr := c.Profile(deadmembers.Options{MaxSteps: budget})
		res := c.Analyze(deadmembers.Options{})
		tree, terr := dynprof.Run(res, dynprof.Options{MaxSteps: budget, FileSet: res.Program.FileSet})
		if (terr != nil) != (verr != nil) {
			t.Fatalf("evaluators disagree on failure: tree=%v vm=%v", terr, verr)
		}
		if terr != nil {
			if terr.Error() != verr.Error() {
				t.Fatalf("evaluators fail differently:\ntree: %v\nvm:   %v", terr, verr)
			}
			return
		}
		if tree.Exec.Output != vm.Exec.Output {
			t.Fatalf("output differs:\ntree: %q\nvm:   %q", tree.Exec.Output, vm.Exec.Output)
		}
		if tree.Exec.ExitCode != vm.Exec.ExitCode || tree.Exec.Steps != vm.Exec.Steps {
			t.Fatalf("exit/steps differ: tree(exit=%d steps=%d) vm(exit=%d steps=%d)",
				tree.Exec.ExitCode, tree.Exec.Steps, vm.Exec.ExitCode, vm.Exec.Steps)
		}
		if tree.Ledger.HighWater != vm.Ledger.HighWater ||
			tree.Ledger.AdjustedHighWater != vm.Ledger.AdjustedHighWater {
			t.Fatalf("heap HWM differs: tree(%d/%d) vm(%d/%d)",
				tree.Ledger.HighWater, tree.Ledger.AdjustedHighWater,
				vm.Ledger.HighWater, vm.Ledger.AdjustedHighWater)
		}
	})
}

// TestVMDifferentialSeedsCompile keeps the checked-in FuzzVMDifferential
// seeds live: a seed the frontend rejects returns before either
// evaluator runs, so plain `go test` would replay it as a no-op.
func TestVMDifferentialSeedsCompile(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzVMDifferential", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no FuzzVMDifferential seeds found")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// A seed file is the header line, then string("<quoted source>").
		_, arg, _ := strings.Cut(string(data), "\n")
		arg = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(arg), "string("), ")")
		text, err := strconv.Unquote(arg)
		if err != nil {
			t.Fatalf("%s: not a one-string fuzz seed: %v", path, err)
		}
		if _, err := deadmembers.Compile(deadmembers.Source{Name: filepath.Base(path), Text: text}); err != nil {
			t.Errorf("%s does not compile: %v", path, err)
		}
	}
}
