package vm_test

import (
	"context"
	"fmt"
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
	vres, verr := c.RunContext(context.Background(), 0)
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

// TestDifferentialRuntimeErrors holds the VM to the oracle on every kind
// of runtime error a well-typed program can reach: both fail with the
// same message at the same position (or, for purevirtual, whose call is
// guarded, both run to the same exit).
func TestDifferentialRuntimeErrors(t *testing.T) {
	cases := map[string]struct{ src, want string }{
		"nullderef": {`
			class C { public: int v; };
			int main() { C* p = 0; return p->v; }`, "null pointer dereference at nullderef.mcc:3:"},
		"divzero": {`
			int main() { int z = 0; return 10 / z; }`, "integer division by zero at divzero.mcc:2:"},
		"oob": {`
			int main() { int a[3]; return a[5]; }`, "array index 5 out of range [0,3) at oob.mcc:2:"},
		"doubledelete": {`
			class C { public: int v; };
			int main() { C* p = new C(); delete p; delete p; return 0; }`, "double delete at doubledelete.mcc:3:"},
		"purevirtual": {`
			class A { public: virtual int f() = 0; virtual ~A() {} };
			int main() { A* a = (A*)0; if (a != 0) return a->f(); return 7; }`, ""},
		"useafterfree": {`
			int main() { int* a = new int[2]; delete[] a; return a[0]; }`, "use after free at useafterfree.mcc:2:"},
		"abort": {`
			int main() { abort(); return 0; }`, "abort() called at abort.mcc:2:"},
		"nullreceiver": {`
			class C { public: int v; int get() { return v; } };
			int main() { C* p = nullptr; return p->get(); }`, "null pointer dereference at nullreceiver.mcc:3:"},
		"doublefree": {`
			int main() { int* p = (int*)malloc(2); free(p); free(p); return 0; }`, "double free at doublefree.mcc:2:"},
		"arraydeletescalar": {`
			int main() { int* p = new int(3); delete[] p; return 0; }`,
			"scalar allocation must be released with delete, not delete[] at arraydeletescalar.mcc:2:"},
		"negativenew": {`
			int main() { int n = 0 - 2; int* a = new int[n]; return a[0]; }`,
			"negative array size -2 in new[] at negativenew.mcc:2:"},
		"pointerindex": {`
			int main() { int* a = new int[3]; int i = 5; return a[i]; }`,
			"pointer index 5 out of range [0,3) at pointerindex.mcc:2:"},
		"nullmemberptr": {`
			class P { public: int x; };
			int main() { P p; int P::*mp; return p.*mp; }`,
			"dereference of null pointer-to-member at nullmemberptr.mcc:3:"},
		"modzero": {`
			int main() { int z = 0; return 10 % z; }`, "integer modulo by zero at modzero.mcc:2:"},
		"floatdivzero": {`
			int main() { double z = 0.0; double r = 1.5 / z; return 0; }`,
			"floating division by zero at floatdivzero.mcc:2:"},
		"globalread": {`
			int f(); int a = f();
			int b = 3;
			int f() { return b; }
			int main() { return a; }`,
			"variable b has no storage (not in scope) at globalread.mcc:4:21"},
		"globalwrite": {`
			int f(); int a = f();
			int b = 3;
			int f() { b = 4; return 0; }
			int main() { return a; }`,
			"variable b has no storage (not in scope) at globalwrite.mcc:4:14"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			c := compile(t, name+".mcc", tc.src)
			tres, terr := interp.Run(c.Program, c.Hierarchy, interp.Options{FileSet: c.FileSet})
			vres, verr := c.RunContext(context.Background(), 0)
			assertSameRun(t, name, tres, terr, vres, verr)
			switch {
			case tc.want == "" && verr != nil:
				t.Fatalf("%s: %v, want a clean exit", name, verr)
			case tc.want != "" && (verr == nil || !strings.Contains(verr.Error(), tc.want)):
				t.Fatalf("%s: err = %v, want a runtime error containing %q", name, verr, tc.want)
			}
		})
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

// TestDifferentialLargeKernel holds the VM to the oracle on wide integer
// statements: a corpus-shaped generated program whose hot loop also
// calls a compute kernel. The kernel rewrites a dozen int locals once per
// round, each by one wide `x = x + y % p - z % q …` statement, then folds
// them into an accumulator with two guarded wraps. The rewrites run the
// generic int-local assignment (opLvSlot … opAssignPop) over fused
// slot-const binops chained by plain opIntBin; the declarations run
// opIntBinXC, and the loop condition and the wraps the fused branch.
func TestDifferentialLargeKernel(t *testing.T) {
	spec := bench.Spec{
		Name: "kernel-test", Description: "scaled-down large-corpus shape",
		Classes: 20, UsedClasses: 12, Members: 60, DeadPercent: 10,
		Allocations: 200, DynDeadPercent: 8, RetainMod: 3,
		DeadHeavyClasses: 2, DeleteFlavor: true, Seed: 42,
	}
	src, _ := bench.Generate(spec)
	const mainDecl, hotUse = "int main() {\n", "\t\tsink = sink + o->use();\n"
	if strings.Count(src, mainDecl) != 1 || strings.Count(src, hotUse) != 1 {
		t.Fatalf("generated driver has no single %q and %q to splice the kernel at", mainDecl, hotUse)
	}
	src = strings.Replace(src, mainDecl, kernelSource(3)+mainDecl, 1)
	src = strings.Replace(src, hotUse, hotUse+"\t\tsink = sink + kernel(i);\n", 1)
	c := compile(t, "kernel-test.mcc", src)
	assertSameProfile(t, "kernel-test", c)
}

// kernelSource writes `int kernel(int seed)`: rounds rounds of wide
// integer-arithmetic statements over a dozen distinct locals. It
// allocates nothing, so the heap ledger is untouched.
func kernelSource(rounds int) string {
	vars := []string{"a", "b", "c", "d", "e", "f", "g", "h", "p", "q", "u"}
	primes := []int{3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127}
	var b strings.Builder
	b.WriteString("int kernel(int seed) {\n")
	for i, v := range vars {
		fmt.Fprintf(&b, "\tint %s = seed * %d + %d;\n", v, primes[i], primes[len(primes)-1-i])
	}
	b.WriteString("\tint s = 0;\n")
	fmt.Fprintf(&b, "\tfor (int r = 0; r < %d; r++) {\n", rounds)
	ops := []string{"+", "-", "+", "+", "-", "+", "+", "-", "+", "+"}
	for i, v := range vars {
		fmt.Fprintf(&b, "\t\t%s = %s", v, v)
		k := 0
		for j, w := range vars {
			if w == v {
				continue
			}
			fmt.Fprintf(&b, " %s %s %% %d", ops[k%len(ops)], w, primes[(i*7+j*3)%len(primes)])
			k++
		}
		b.WriteString(";\n")
	}
	b.WriteString("\t\ts = s + a % 4096 - b % 4096 + c % 128 - d % 128 + e % 64 - f % 64 + g % 32 - h % 32 + p % 16 + q % 16 - u % 8;\n")
	b.WriteString("\t\tif (s > 16777216) { s = s % 9973; }\n")
	b.WriteString("\t\tif (s < 0) { s = 1 - s % 9973; }\n")
	b.WriteString("\t}\n\treturn s;\n}\n\n")
	return b.String()
}

// assertSameProfile profiles the compilation on the production path and
// on the oracle, comparing execution results plus every ledger
// statistic.
func assertSameProfile(t *testing.T, name string, c *engine.Compilation) {
	t.Helper()
	tp, terr := dynprof.Run(c.Analyze(deadmember.Options{}), dynprof.Options{FileSet: c.FileSet})
	vp, verr := c.ProfileContext(context.Background(), deadmember.Options{}, 0)
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
	if n := strings.Count(tmsg, " at "); n != 1 {
		t.Fatalf("step-limit error names %d positions, want 1: %s", n, tmsg)
	}
}

// switchFixture runs a three-way switch 100 times, then a switch whose
// only case never matches 100 times.
const switchFixture = `
	int main() {
		int a = 0; int b = 0; int c = 0;
		for (int i = 0; i < 100; i++) {
			switch (i % 3) {
				case 0: a++; break;
				case 1: b++; break;
				default: c++;
			}
		}
		for (int i = 0; i < 100; i++) {
			switch (i) {
				case 1000: a++; break;
			}
		}
		print(a); print(" "); print(b); print(" "); print(c); println();
		return 0;
	}`

// maxOperandStack bounds the operand-stack capacity a whole run may
// reach. Expression depth, not iteration count, sets the stack depth, so
// a loop that leaves a value behind per iteration overshoots it.
const maxOperandStack = 16

// TestSwitchKeepsStackBalanced holds every switch to a balanced operand
// stack, whether a case matches or none does: over the switch fixture
// and the whole benchmark corpus, no activation's stack may grow with
// the number of switches executed.
func TestSwitchKeepsStackBalanced(t *testing.T) {
	if res := runBoth(t, "switch.mcc", switchFixture); res.Output != "34 33 33\n" {
		t.Fatalf("switch fixture printed %q", res.Output)
	}
	progs := []*bench.Benchmark{{Name: "switch", Sources: []engine.Source{{Name: "switch.mcc", Text: switchFixture}}}}
	progs = append(progs, bench.All()...)
	for _, b := range progs {
		c := engine.Compile(engine.Config{}, b.Sources...)
		if err := c.Err(); err != nil {
			t.Fatalf("compile %s: %v", b.Name, err)
		}
		ex := c.NewExecutor()
		if _, err := interp.Run(c.Program, c.Hierarchy, interp.Options{Executor: ex}); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if n := vm.MaxStackCap(ex); n > maxOperandStack {
			t.Errorf("%s: operand stack grew to capacity %d, want at most %d", b.Name, n, maxOperandStack)
		}
	}
}

// TestCtorInitNamesShadowingParameter pins the name resolution of
// constructor-initializer arguments, which evaluate in a frame without
// a name map: a parameter named like a global must win over it, in a
// member initializer (scalar and class-typed) and in a virtual-base
// initializer that the most-derived constructor gives.
func TestCtorInitNamesShadowingParameter(t *testing.T) {
	const src = `
		int x = 100;
		int y = 200;
		class V {
		public:
			int v;
			V() { v = 0; }
			V(int a) { v = a; }
		};
		class In {
		public:
			int i;
			In(int a) { i = a; }
		};
		class M : public virtual V {
		public:
			int m;
			In in;
			M(int y, int x) : V(x + 1), m(x - y), in(x * 10) {}
		};
		class D : public M {
		public:
			int d;
			D(int y, int x) : V(x * 2), M(y, x), d(x + 3) {}
		};
		int main() {
			D obj(1, 7);
			print(obj.v); print(" "); print(obj.m); print(" "); print(obj.in.i); print(" "); print(obj.d); println();
			M mm(2, 5);
			print(mm.v); print(" "); print(mm.m); print(" "); print(mm.in.i); println();
			D* p = new D(3, 2);
			print(p->v); print(" "); print(x); print(" "); print(y); println();
			delete p;
			return 0;
		}`
	c := compile(t, "shadow.mcc", src)
	assertSameProfile(t, "shadow", c)
	res, err := c.RunContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := "14 6 70 10\n6 3 50\n4 100 200\n"; res.Output != want {
		t.Fatalf("output %q, want %q", res.Output, want)
	}
}

// TestVirtualBaseInitSharesParams: the most-derived constructor's
// virtual-base initializer is evaluated in that constructor's own frame,
// so &param there names the cell the constructor body then writes, as
// it does in a non-virtual base's initializer and in C++.
func TestVirtualBaseInitSharesParams(t *testing.T) {
	res := runBoth(t, "vbinit.mcc", `
		class V { public: int* q; V() { q = nullptr; } V(int* q0) : q(q0) {} };
		class B { public: int* q; B(int* q0) : q(q0) {} };
		class VD : public virtual V { public: VD(int y) : V(&y) { y = y + 1; } };
		class BD : public B { public: BD(int y) : B(&y) { y = y + 1; } };
		int main() {
			VD* v = new VD(5);
			BD* b = new BD(7);
			print(*v->q); print(" "); print(*b->q); println();
			delete v; delete b;
			return 0;
		}`)
	if want := "6 8\n"; res.Output != want {
		t.Fatalf("output %q, want %q", res.Output, want)
	}
}

// TestNonVirtualDiamondDestruction pins the destruction order of a
// non-virtual diamond deleted through new/delete: the shared base's
// destructor runs once, after the last base that reaches it, and the
// ledger balances.
func TestNonVirtualDiamondDestruction(t *testing.T) {
	const src = `
		class A { public: int a; ~A() { print("~A"); } };
		class L : public A { public: int l; ~L() { print("~L"); } };
		class R : public A { public: int r; ~R() { print("~R"); } };
		class D : public L, public R { public: int d; ~D() { print("~D"); } };
		int main() {
			D* p = new D();
			delete p;
			println();
			return 0;
		}`
	c := compile(t, "diamond.mcc", src)
	assertSameProfile(t, "diamond", c)
	prof, err := c.ProfileContext(context.Background(), deadmember.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := "~D~R~A~L\n"; prof.Exec.Output != want {
		t.Fatalf("output %q, want %q", prof.Exec.Output, want)
	}
	if l := prof.Ledger; l.TotalObjects != 1 || l.LiveBytes != 0 || l.AdjustedLiveBytes != 0 || prof.AccountingErr != nil {
		t.Fatalf("ledger not balanced: objects %d, live %d, adjusted live %d, err %v",
			l.TotalObjects, l.LiveBytes, l.AdjustedLiveBytes, prof.AccountingErr)
	}
}

// TestDeleteThroughNonVirtualBase: deleting an object through a base
// whose destructor is not virtual runs the base's destruction only, as
// C++ compilers do, while the block is freed whole with the object's
// ledger charge. Through a virtual destructor, or through the object's
// own class, the whole object is destroyed.
func TestDeleteThroughNonVirtualBase(t *testing.T) {
	for _, tc := range []struct {
		name, src, want string
		objects         int64
	}{
		{"dtor-only-in-derived", `
			class Base { public: int tag; Base() { tag = 1; } };
			class Derived : public Base { public: int v; Derived() { v = 9; } ~Derived() { print(v); println(); } };
			class H { public: Base* p; H() { p = new Derived(); } ~H() { delete p; } };
			int main() { H h; return 0; }`, "", 2},
		{"base-members-and-bases", `
			class M { public: int m; ~M() { print("~M"); } };
			class Root { public: int r; ~Root() { print("~Root"); } };
			class Base : public Root { public: M mem; ~Base() { print("~Base"); } };
			class Derived : public Base { public: M extra; ~Derived() { print("~Derived"); } };
			int main() {
				Base* b = new Derived();
				delete b;
				println();
				Derived* d = new Derived();
				delete d;
				println();
				return 0;
			}`, "~Base~M~Root\n~Derived~M~Base~M~Root\n", 2},
		{"virtual-dtor-in-base", `
			class Root { public: int r; virtual ~Root() { print("~Root"); } };
			class Base : public Root { public: int b; ~Base() { print("~Base"); } };
			class Derived : public Base { public: int d; ~Derived() { print("~Derived"); } };
			int main() { Base* b = new Derived(); delete b; println(); return 0; }`, "~Derived~Base~Root\n", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := compile(t, tc.name+".mcc", tc.src)
			assertSameProfile(t, tc.name, c)
			prof, err := c.ProfileContext(context.Background(), deadmember.Options{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if prof.Exec.Output != tc.want {
				t.Errorf("output %q, want %q", prof.Exec.Output, tc.want)
			}
			if l := prof.Ledger; l.TotalObjects != tc.objects || l.LiveBytes != 0 || l.AdjustedLiveBytes != 0 || prof.AccountingErr != nil {
				t.Errorf("ledger: objects %d (want %d), live %d, adjusted live %d, err %v",
					l.TotalObjects, tc.objects, l.LiveBytes, l.AdjustedLiveBytes, prof.AccountingErr)
			}
		})
	}
}

// TestFreeOfObjectsFails: free runs no destructor, so freeing a block
// that holds class objects is a runtime error on both evaluators, as a
// mismatched delete/delete[] is. A malloc'd block still frees.
func TestFreeOfObjectsFails(t *testing.T) {
	for name, src := range map[string]string{
		"new": `
			class A { public: int v; A() { v = 7; } ~A() { print(v); println(); } };
			int main() { A* a = new A(); free(a); return 0; }`,
		"new-array": `
			class A { public: int v; };
			int main() { A* a = new A[2]; free(a); return 0; }`,
	} {
		c := compile(t, name+".mcc", src)
		tres, terr := interp.Run(c.Program, c.Hierarchy, interp.Options{FileSet: c.FileSet})
		vres, verr := c.RunContext(context.Background(), 0)
		assertSameRun(t, name, tres, terr, vres, verr)
		if want := "free of class objects allocated with new"; verr == nil || !strings.Contains(verr.Error(), want) {
			t.Errorf("%s: err = %v, want a runtime error containing %q", name, verr, want)
		}
	}
	runBoth(t, "malloc.mcc", `int main() { int* p = (int*)malloc(2); free(p); return 0; }`)
}

// TestEscapedCellsSurviveLaterCalls: frames and the cells of locals
// and parameters whose address is never taken are reused, but a cell
// whose address escapes its activation keeps its value through later
// calls on both evaluators: a parameter, a local, the parameters of a
// recursion, a constructor parameter passed out through an initializer,
// a loop local whose address each iteration keeps, a function with one
// address-taken and one plain parameter, and a recursion in which only
// the innermost activation takes a parameter's address.
func TestEscapedCellsSurviveLaterCalls(t *testing.T) {
	res := runBoth(t, "escape.mcc", `
		int* slots[4];
		int* param(int v) { return &v; }
		int* local(int v) { int x = v * 10; return &x; }
		void rec(int n) { slots[n] = &n; if (n > 0) { rec(n - 1); } }
		class Keep { public: int* p; Keep(int x) : p(&x) {} };
		class Base { public: int* q; Base(int* q0) : q(q0) {} };
		class Derived : public Base { public: Derived(int y) : Base(&y) {} };
		int* keep(int* p) { return p; }
		int* mixed(int a, int b) { a = a + b; return &a; }
		int* deepest(int n, int v) { if (n > 0) { return deepest(n - 1, v + 1); } return &v; }
		int loops() {
			int* ps[3];
			for (int i = 0; i < 3; i++) { int x = i * 10; ps[i] = keep(&x); }
			return *ps[0] + *ps[1] + *ps[2];
		}
		int main() {
			int* a = param(1);
			int* b = param(2);
			int* c = local(3);
			int* d = local(4);
			rec(3);
			Keep* k1 = new Keep(5);
			Keep* k2 = new Keep(6);
			Derived* d1 = new Derived(7);
			Derived* d2 = new Derived(8);
			param(9); local(9); rec(2);
			print(*a); print(*b); print(" "); print(*c); print(*d); print(" ");
			print(*slots[0]); print(*slots[1]); print(*slots[2]); print(*slots[3]); print(" ");
			print(*k1->p); print(*k2->p); print(*d1->q); print(*d2->q); println();
			delete k1; delete k2; delete d1; delete d2;
			int* m1 = mixed(1, 2);
			int* m2 = mixed(3, 4);
			int* e1 = deepest(2, 10);
			int* e2 = deepest(3, 20);
			print(loops()); print(" "); print(*m1); print(*m2); print(" "); print(*e1); print(*e2); println();
			return 0;
		}`)
	if want := "12 3040 0123 5678\n30 37 1223\n"; res.Output != want {
		t.Fatalf("output %q, want %q", res.Output, want)
	}
}

// TestProfileAllocs: one instrumented richards run allocates no cell
// that cannot outlive its activation. The run takes about 900
// allocations, its objects and its compile; a parameter slab per call or
// a cell per executed local declaration would cost tens of thousands.
func TestProfileAllocs(t *testing.T) {
	b, err := bench.ByName("richards")
	if err != nil {
		t.Fatal(err)
	}
	c := engine.Compile(engine.Config{}, b.Sources...)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	res := c.Analyze(deadmember.Options{})
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := dynprof.Run(res, dynprof.Options{Executor: vm.NewExecutor(c.Program, c.Hierarchy)}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2_000 {
		t.Errorf("profiling richards allocates %v times, want at most 2,000", allocs)
	}
}

// runAllocs reports the allocations of one VM run of src with loop
// count n substituted for ITERS.
func runAllocs(t *testing.T, src string, n int) float64 {
	t.Helper()
	c := compile(t, "allocs.mcc", strings.ReplaceAll(src, "ITERS", strconv.Itoa(n)))
	return testing.AllocsPerRun(2, func() {
		if _, err := interp.Run(c.Program, c.Hierarchy, interp.Options{Executor: vm.NewExecutor(c.Program, c.Hierarchy)}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDoublingAddsNoCells: a local or parameter whose address is never
// taken lives in a cell its activation owns, so doubling the work of a
// loop adds no allocation, apart from the objects the program allocates:
// re-declared int and pointer locals, calls of a function with such
// parameters, and new D(a) whose constructor passes a on through a base
// initializer.
func TestDoublingAddsNoCells(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		perIter   float64 // allocations of the objects one iteration allocates
	}{
		{"locals", `
			int main() {
				int s = 0;
				int* q = nullptr;
				for (int i = 0; i < ITERS; i++) {
					int x = i * 2;
					int* p = q;
					if (p == nullptr) { s = s + x; }
				}
				return s % 7;
			}`, 0},
		{"params", `
			int add(int a, int* p, int b) { if (p == nullptr) { return a + b; } return a; }
			int main() {
				int s = 0;
				for (int i = 0; i < ITERS; i++) { s = add(s, nullptr, i) % 1000; }
				return s % 7;
			}`, 0},
		// An object of D costs two allocations: its cell slab, and one
		// holding its Object header, heap block and pointer.
		{"new-base-init", `
			class Base { public: int v; Base(int x) : v(x) {} };
			class D : public Base { public: int w; D(int a) : Base(a), w(a) {} };
			int main() {
				int s = 0;
				for (int i = 0; i < ITERS; i++) { D* d = new D(i); s = s + d->v - d->w; delete d; }
				return s;
			}`, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 200
			one, two := runAllocs(t, tc.src, n), runAllocs(t, tc.src, 2*n)
			if extra := two - one; extra > tc.perIter*n {
				t.Errorf("%d more iterations took %v more allocations, want at most %v", n, extra, tc.perIter*n)
			}
		})
	}
}

// TestInstrSize: an instruction holds int32 operands and positions only;
// its pointer operands and inline cache live in the chunk's side table.
func TestInstrSize(t *testing.T) {
	if n := vm.InstrSize(); n > 40 {
		t.Errorf("vm.instr is %d bytes, want at most 40", n)
	}
}
