package vm_test

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"deadmembers/internal/bench"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/dynprof"
	"deadmembers/internal/engine"
	"deadmembers/internal/heapsim"
	"deadmembers/internal/interp"
	"deadmembers/internal/vm"
)

// compile builds a Compilation from one source, failing the test on
// frontend errors.
func compile(t *testing.T, name, src string) *engine.Compilation {
	t.Helper()
	c := engine.Compile(engine.Config{}, engine.Source{Name: name, Text: src})
	if err := c.Err(); err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return c
}

// runBoth executes the program on the production path (the VM) and on
// the tree-walker oracle (a nil Executor), asserting identical results
// (or identical failures).
func runBoth(t *testing.T, name, src string) *interp.Result {
	t.Helper()
	c := compile(t, name, src)
	tres, terr := interp.Run(c.Program, c.Hierarchy, interp.Options{FileSet: c.FileSet})
	vres, verr := c.RunContext(context.Background())
	assertSameRun(t, name, tres, terr, vres, verr)
	return vres
}

func assertSameRun(t *testing.T, name string, tres *interp.Result, terr error, vres *interp.Result, verr error) {
	t.Helper()
	if (terr == nil) != (verr == nil) {
		t.Fatalf("%s: engines disagree on failure: tree err=%v, vm err=%v", name, terr, verr)
	}
	if terr != nil {
		if terr.Error() != verr.Error() {
			t.Fatalf("%s: error mismatch:\n tree: %v\n   vm: %v", name, terr, verr)
		}
		return
	}
	if tres.Output != vres.Output {
		t.Fatalf("%s: output mismatch:\n tree: %q\n   vm: %q", name, tres.Output, vres.Output)
	}
	if tres.ExitCode != vres.ExitCode {
		t.Fatalf("%s: exit code mismatch: tree %d, vm %d", name, tres.ExitCode, vres.ExitCode)
	}
	if tres.Steps != vres.Steps {
		t.Fatalf("%s: step count mismatch: tree %d, vm %d", name, tres.Steps, vres.Steps)
	}
}

func TestDifferentialBasics(t *testing.T) {
	cases := map[string]string{
		"arith": `
			int main() {
				int a = 7; int b = 3;
				int s = a + b * 2 - (a / b) % 2;
				double d = 1.5 * a;
				print(s); print(" "); print(d); println();
				return s;
			}`,
		"controlflow": `
			int main() {
				int n = 0;
				for (int i = 0; i < 10; i = i + 1) {
					if (i % 2 == 0) continue;
					if (i > 7) break;
					n = n + i;
				}
				int j = 0;
				while (j < 5) { j++; }
				do { j--; } while (j > 2);
				switch (j) {
					case 1: print("one"); break;
					case 2: print("two"); break;
					default: print("many");
				}
				println();
				return n + j;
			}`,
		"shortcircuit": `
			int side = 0;
			bool bump() { side = side + 1; return true; }
			int main() {
				bool a = false && bump();
				bool b = true || bump();
				bool c = bump() && bump();
				print(side); println();
				return side;
			}`,
		"ternary": `
			int main() {
				int x = 4;
				int y = x > 2 ? x * 10 : x - 1;
				print(y); println();
				return 0;
			}`,
		"strings": `
			int main() {
				char* s = "hello";
				print(s); println();
				print(s[1]); println();
				return 0;
			}`,
		"virtual": `
			class A {
			public:
				int tag;
				A() { tag = 1; }
				virtual int f() { return tag; }
				virtual ~A() {}
			};
			class B : public A {
			public:
				int extra;
				B() { extra = 41; }
				int f() { return extra + tag; }
			};
			int main() {
				A* objs[2];
				objs[0] = new A();
				objs[1] = new B();
				int sum = 0;
				for (int i = 0; i < 2; i = i + 1) sum = sum + objs[i]->f();
				delete objs[0];
				delete objs[1];
				print(sum); println();
				return sum;
			}`,
		"heap": `
			int main() {
				int* a = new int[5];
				for (int i = 0; i < 5; i++) a[i] = i * i;
				int* p = &a[2];
				int got = *p + p[1];
				delete[] a;
				int* s = new int(9);
				got = got + *s;
				delete s;
				print(got); println();
				return 0;
			}`,
		"members": `
			class P {
			public:
				int x; int y;
				P(int a, int b) { x = a; y = b; }
				int norm1() { return x + y; }
			};
			int main() {
				P p(3, 4);
				P* q = &p;
				q->x = 10;
				int P::*mp = &P::y;
				p.*mp = 20;
				print(p.norm1()); println();
				return 0;
			}`,
		"builtins": `
			int main() {
				rand_seed(42);
				int a = rand_next(100);
				int b = rand_next(100);
				int* m = (int*)malloc(3);
				m[0] = a; m[1] = b; m[2] = clock();
				int s = m[0] + m[1] + m[2];
				free(m);
				print(s); println();
				return 0;
			}`,
		"recursion": `
			int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
			int main() { print(fib(15)); println(); return 0; }`,
		"globals": `
			int counter = 0;
			int gArr[3];
			int next() { counter = counter + 1; return counter; }
			int main() {
				gArr[0] = next(); gArr[1] = next(); gArr[2] = next();
				print(gArr[0] + gArr[1] * gArr[2]); println();
				return counter;
			}`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) { runBoth(t, name+".mcc", src) })
	}
}

func TestDifferentialRuntimeErrors(t *testing.T) {
	cases := map[string]string{
		"nullderef": `
			class C { public: int v; };
			int main() { C* p = 0; return p->v; }`,
		"divzero": `
			int main() { int z = 0; return 10 / z; }`,
		"oob": `
			int main() { int a[3]; return a[5]; }`,
		"doubledelete": `
			class C { public: int v; };
			int main() { C* p = new C(); delete p; delete p; return 0; }`,
		"purevirtual": `
			class A { public: virtual int f() = 0; virtual ~A() {} };
			int main() { A* a = (A*)0; if (a != 0) return a->f(); return 7; }`,
		"useafterfree": `
			int main() { int* a = new int[2]; delete[] a; return a[0]; }`,
		"abort": `
			int main() { abort(); return 0; }`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) { runBoth(t, name+".mcc", src) })
	}
}

// TestDifferentialCorpusFiles runs every example and testdata program on
// the VM and the oracle, comparing output, exit code, step count, and
// the full instrumented heap profile.
func TestDifferentialCorpusFiles(t *testing.T) {
	var files []string
	for _, dir := range []string{"../../examples/mcc", "../../testdata"} {
		fs, err := filepath.Glob(filepath.Join(dir, "*.mcc"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, fs...)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files found")
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			c := compile(t, filepath.Base(path), string(data))
			assertSameProfile(t, filepath.Base(path), c)
		})
	}
}

// TestDifferentialBenchCorpus runs the built-in synthetic benchmarks on
// the VM and the oracle with profiling.
func TestDifferentialBenchCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("bench corpus differential is slow")
	}
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			c := engine.Compile(engine.Config{}, b.Sources...)
			if err := c.Err(); err != nil {
				t.Fatalf("compile %s: %v", b.Name, err)
			}
			assertSameProfile(t, b.Name, c)
		})
	}
}

// TestDifferentialLargeKernel covers the generator's compute-kernel
// codegen (Spec.ComputeRounds) at a test-sized scale: the kernel shape —
// wide integer statements over a dozen locals — does not depend on the
// round count, so a scaled-down spec exercises the same fused bytecode
// that BENCH_vm.json's 35-58 s programs did.
func TestDifferentialLargeKernel(t *testing.T) {
	spec := bench.Spec{
		Name: "kernel-test", Description: "scaled-down large-corpus shape",
		Classes: 20, UsedClasses: 12, Members: 60, DeadPercent: 10,
		Allocations: 200, DynDeadPercent: 8, RetainMod: 3,
		DeadHeavyClasses: 2, DeleteFlavor: true, ComputeRounds: 3, Seed: 42,
	}
	src, _ := bench.Generate(spec)
	c := compile(t, "kernel-test.mcc", src)
	assertSameProfile(t, "kernel-test", c)
}

// assertSameProfile profiles the compilation on the production path and
// on the oracle, comparing execution results plus every ledger
// statistic.
func assertSameProfile(t *testing.T, name string, c *engine.Compilation) {
	t.Helper()
	tp, terr := dynprof.Run(c.Analyze(deadmember.Options{}), dynprof.Options{FileSet: c.FileSet})
	vp, verr := c.ProfileContext(context.Background(), deadmember.Options{}, dynprof.Options{})
	if (terr == nil) != (verr == nil) {
		t.Fatalf("%s: engines disagree on profile failure: tree err=%v, vm err=%v", name, terr, verr)
	}
	if terr != nil {
		if terr.Error() != verr.Error() {
			t.Fatalf("%s: profile error mismatch:\n tree: %v\n   vm: %v", name, terr, verr)
		}
		return
	}
	assertSameRun(t, name, tp.Exec, nil, vp.Exec, nil)
	assertSameLedger(t, name, tp.Ledger, vp.Ledger)
}

// assertSameLedger compares every byte-accounting aggregate plus the
// per-class breakdown — the heart of the "byte-identical instrumented
// heap" contract.
func assertSameLedger(t *testing.T, name string, tl, vl *heapsim.Ledger) {
	t.Helper()
	type agg struct {
		total, dead, objects, live, adjLive, hwm, adjHWM int64
	}
	snap := func(l *heapsim.Ledger) agg {
		return agg{l.TotalBytes, l.DeadBytes, l.TotalObjects,
			l.LiveBytes, l.AdjustedLiveBytes, l.HighWater, l.AdjustedHighWater}
	}
	if ts, vs := snap(tl), snap(vl); ts != vs {
		t.Fatalf("%s: ledger mismatch:\n tree: %+v\n   vm: %+v", name, ts, vs)
	}
	tc, vc := tl.ByClass(), vl.ByClass()
	if len(tc) != len(vc) {
		t.Fatalf("%s: per-class stat count mismatch: tree %d, vm %d", name, len(tc), len(vc))
	}
	for i := range tc {
		if tc[i].Class != vc[i].Class || tc[i].Count != vc[i].Count ||
			tc[i].Bytes != vc[i].Bytes || tc[i].Dead != vc[i].Dead {
			t.Fatalf("%s: per-class stats differ for %s:\n tree: %+v\n   vm: %+v",
				name, tc[i].Class.Name, *tc[i], *vc[i])
		}
	}
}

// TestVMCompilesHotFunctions is the fallback census: over every program
// the repository ships — examples, testdata, the benchmark corpus, and
// the checked-in fuzz seeds that compile — the VM must compile, not
// decline, each function the run reaches, so no production body is
// silently left to the tree-walker.
func TestVMCompilesHotFunctions(t *testing.T) {
	type program struct {
		name    string
		sources []engine.Source
	}
	var progs []program
	for _, pattern := range []string{"../../examples/mcc/*.mcc", "../../testdata/*.mcc", "../../testdata/fuzz/*/*"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			text := string(data)
			if isSeed(path) {
				text = seedText(t, path, text)
			}
			progs = append(progs, program{path, []engine.Source{{Name: filepath.Base(path), Text: text}}})
		}
	}
	for _, b := range bench.All() {
		progs = append(progs, program{b.Name, b.Sources})
	}

	compiled, declined := 0, 0
	for _, p := range progs {
		c := engine.Compile(engine.Config{}, p.sources...)
		if err := c.Err(); err != nil {
			if isSeed(p.name) {
				continue // a fuzz seed the frontend rejects never executes
			}
			t.Fatalf("compile %s: %v", p.name, err)
		}
		// A run error (a seed's division by zero) only ends the census
		// of that program early.
		ex := c.NewExecutor()
		interp.Run(c.Program, c.Hierarchy, interp.Options{Executor: ex})
		n, fallback := ex.Counts()
		if fallback != 0 {
			t.Errorf("%s: the VM declined %d function(s) (compiled %d)", p.name, fallback, n)
		}
		compiled += n
		declined += fallback
	}
	if compiled == 0 {
		t.Fatal("no functions compiled")
	}
	t.Logf("census: %d function(s) compiled, %d declined, over %d program(s)", compiled, declined, len(progs))
}

// isSeed reports whether path is a checked-in fuzz seed.
func isSeed(path string) bool { return strings.Contains(path, "/testdata/fuzz/") }

// seedText decodes a checked-in `go test fuzz v1` file holding one
// string argument.
func seedText(t *testing.T, path, data string) string {
	t.Helper()
	_, arg, _ := strings.Cut(data, "\n")
	arg = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(arg), "string("), ")")
	text, err := strconv.Unquote(arg)
	if err != nil {
		t.Fatalf("%s: not a one-string fuzz seed: %v", path, err)
	}
	return text
}

// TestVMStepBudget asserts the VM honors MaxSteps with the tree-walker's
// exact error (including the satellite position/function diagnostics).
func TestVMStepBudget(t *testing.T) {
	src := `int main() { int i = 0; while (1) { i = i + 1; } return i; }`
	c := compile(t, "spin.mcc", src)
	run := func(ex interp.Executor) string {
		_, err := interp.Run(c.Program, c.Hierarchy, interp.Options{
			MaxSteps: 5000,
			FileSet:  c.FileSet,
			Executor: ex,
		})
		if err == nil {
			t.Fatal("expected step-limit error")
		}
		return err.Error()
	}
	tmsg := run(nil)
	vmsg := run(vm.NewExecutor(c.Program, c.Hierarchy))
	if tmsg != vmsg {
		t.Fatalf("step-limit error differs:\n tree: %s\n   vm: %s", tmsg, vmsg)
	}
	if tmsg == "runtime error: step limit exceeded (5000)" {
		t.Fatalf("step-limit error lacks position/function diagnostics: %s", tmsg)
	}
}
