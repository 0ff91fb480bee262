package sema_test

import (
	"strings"
	"testing"

	"deadmembers/internal/frontend"
	"deadmembers/internal/types"
)

// check compiles src expecting success.
func check(t *testing.T, src string) *frontend.Result {
	t.Helper()
	r := frontend.Compile(frontend.Source{Name: "t.mcc", Text: src})
	if err := r.Err(); err != nil {
		t.Fatalf("unexpected errors:\n%v", err)
	}
	return r
}

// checkErr compiles src expecting an error containing want.
func checkErr(t *testing.T, src, want string) {
	t.Helper()
	r := frontend.Compile(frontend.Source{Name: "t.mcc", Text: src})
	err := r.Err()
	if err == nil {
		t.Fatalf("expected error containing %q, got success", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("expected error containing %q, got:\n%v", want, err)
	}
}

func TestTypeErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"arith on pointer", `int main() { int* p = nullptr; return p * 2; }`, "requires arithmetic operands"},
		{"assign mismatch", `class A { public: int x; }; int main() { A a; int i = 0; a = i; return 0; }`, "cannot assign"},
		{"bad return type", `class A { public: int x; }; A f() { return 3; } int main() { return 0; }`, "cannot return"},
		{"void function returns value", `void f() { return 1; } int main() { f(); return 0; }`, "return with value"},
		{"value return missing", `int f() { return; } int main() { return f(); }`, "return without value"},
		{"call non-function", `int main() { int x = 1; return x(); }`, "not a function"},
		{"deref non-pointer", `int main() { int x = 1; return *x; }`, "dereference non-pointer"},
		{"deref void ptr", `int main() { void* p = nullptr; return *p; }`, "cannot dereference void*"},
		{"index non-array", `int main() { int x = 1; return x[0]; }`, "cannot index"},
		{"bad condition", `class A { public: int x; }; int main() { A a; if (a) { } return 0; }`, "invalid condition"},
		{"not lvalue", `int main() { 5 = 3; return 0; }`, "not an lvalue"},
		{"address of rvalue", `int main() { int* p = &5; return 0; }`, "not an lvalue"},
		{"dup member", `class A { public: int x; int x; }; int main() { A a; return a.x; }`, "duplicate member"},
		{"dup method", `class A { public: int f() { return 1; } int f() { return 2; } }; int main() { return 0; }`, "duplicate method"},
		{"dup ctor arity", `class A { public: A(int a) {} A(int b) {} }; int main() { return 0; }`, "duplicate 1-argument constructor"},
		{"missing ctor arity", `class A { public: A(int a) {} }; int main() { A a; return 0; }`, "no 0-argument constructor"},
		{"incomplete field", `class Fwd; class A { public: Fwd f; }; int main() { return 0; }`, "incomplete type"},
		{"never defined", `class Fwd; int main() { return 0; }`, "never defined"},
		{"embedding cycle", `class A { public: A inner; }; int main() { return 0; }`, "embeds class"},
		{"inheritance cycle via forward", `class B; class A : public B { public: int x; }; class B : public A { public: int y; }; int main() { return 0; }`, "inheritance cycle"},
		{"main params", `int main(int argc) { return argc; }`, "main must take no parameters"},
		{"main return", `void main() { }`, "main must return int"},
		{"switch non-integral", `int main() { double d = 1.5; switch (d) { default: return 0; } return 1; }`, "must be integral"},
		{"two defaults", `int main() { switch (1) { default: return 0; default: return 1; } return 2; }`, "multiple default"},
		{"array negative", `int main() { int a[0]; return 0; }`, "must be a positive integer"},
		{"modulo double", `int main() { double d = 1.0; return 3 % d; }`, "integral operands"},
		{"unknown base ctor init", `class A { public: A() : nothere(3) {} int x; }; int main() { A a; return a.x; }`, "neither a member nor a base"},
		{"scalar init arity", `class A { public: int x; A() : x(1, 2) {} }; int main() { A a; return a.x; }`, "exactly one argument"},
		{"ptr-to-member wrong class", `class A { public: int x; }; class B { public: int y; }; int main() { int A::* pm = &A::x; B b; return b.*pm; }`, "applied to"},
		{"qualified ident as value", `class A { public: int x; }; int main() { return A::x; }`, "pointer to member"},
		{"call undefined prototype", `int f(int a); int main() { return f(1); }`, "no definition"},
		{"class param mismatch", `class A { public: int x; }; class B { public: int y; }; int f(A a) { return a.x; } int main() { B b; return f(b); }`, "cannot pass"},
		{"redeclared local", `int main() { int x = 1; int x = 2; return x; }`, "redeclaration"},
		{"stray break", `int main() { break; return 0; }`, "break statement not within a loop or switch"},
		{"stray continue", `int main() { continue; return 0; }`, "continue statement not within a loop"},
		{"continue in switch without loop", `int main() { switch (1) { case 1: continue; } return 0; }`, "continue statement not within a loop"},
		// Loop nesting is per function body: the caller's loop does not
		// make the callee's break legal.
		{"break in callee of a loop", `void f(int i) { if (i == 2) break; }
			int main() { int n = 0; for (int i = 0; i < 5; i++) { f(i); n++; } print(n); return n; }`,
			"break statement not within a loop or switch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkErr(t, tc.src, tc.want)
		})
	}
}

func TestAcceptedPrograms(t *testing.T) {
	cases := []struct{ name, src string }{
		{"shadowing in inner scope", `int main() { int x = 1; { int x = 2; x = x + 1; } return x; }`},
		{"pointer compare with zero", `int main() { int* p = 0; if (p == 0) { return 0; } return 1; }`},
		{"upcast implicit", `class A { public: int x; }; class B : public A { public: int y; }; int f(A* a) { return a->x; } int main() { B b; return f(&b); }`},
		{"memberptr base conversion", `class A { public: int x; }; class B : public A { public: int y; }; int main() { int A::* pa = &A::x; int B::* pb = pa; B b; return b.*pb; }`},
		{"void param list", `int f(void) { return 1; } int main() { return f(); }`},
		{"array parameter decays", `int sum(int a[], int n) { int s = 0; for (int i = 0; i < n; i++) { s += a[i]; } return s; }
			int main() { int v[3]; v[0]=1; v[1]=2; v[2]=3; return sum(&v[0], 3); }`},
		{"ternary pointer merge", `class A { public: int x; }; class B : public A { public: int y; };
			int main() { A a; B b; bool c = true; A* p = c ? &a : (A*)&b; return p->x; }`},
		{"const qualifiers", `int main() { const int x = 5; const int* p = &x; return *p; }`},
		{"class by value", `class V { public: int n; V(int a) : n(a) {} }; int get(V v) { return v.n; } int main() { V v(4); return get(v); }`},
		{"prototype then definition", `int f(int a); int f(int a) { return a; } int main() { return f(2); }`},
		{"continue in switch in loop", `int main() { int n = 0; for (int i = 0; i < 4; i++) { switch (i) { case 1: continue; default: n++; } } return n; }`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check(t, tc.src)
		})
	}
}

func TestInfoTables(t *testing.T) {
	r := check(t, `
class C {
public:
	int v;
	C(int a) : v(a) {}
	int get() { return v; }
};
int main() {
	C c(3);
	C* p = new C(5);
	int r = c.get() + p->v;
	delete p;
	return r;
}
`)
	info := r.Program.Info
	if len(info.FieldRefs) == 0 {
		t.Error("FieldRefs empty")
	}
	if len(info.MethodRefs) == 0 {
		t.Error("MethodRefs empty")
	}
	if len(info.NewCtors) != 1 {
		t.Errorf("NewCtors has %d entries, want 1", len(info.NewCtors))
	}
	if len(info.VarCtors) == 0 {
		t.Error("VarCtors empty")
	}
	if len(info.CtorInitFields) != 1 {
		t.Errorf("CtorInitFields has %d entries, want 1", len(info.CtorInitFields))
	}
	// Every expression the checker touched has a type.
	for e, typ := range info.Types {
		if typ == nil {
			t.Errorf("expression at %v has nil type", e.Pos())
		}
	}
	c := r.Program.ClassByName["C"]
	if c == nil || c.MethodByName("get").Return != types.IntType {
		t.Error("method signature resolution wrong")
	}
}

func TestVolatileTracked(t *testing.T) {
	r := check(t, `
class D { public: volatile int reg; int plain; };
int main() { D d; d.reg = 1; d.plain = 2; return 0; }
`)
	d := r.Program.ClassByName["D"]
	if !d.FieldByName("reg").Volatile {
		t.Error("volatile qualifier lost")
	}
	if d.FieldByName("plain").Volatile {
		t.Error("plain member marked volatile")
	}
}

func TestBuiltinSignatures(t *testing.T) {
	check(t, `
int main() {
	print(1);
	print(1.5);
	print('c');
	print(true);
	print("s");
	println();
	println(2);
	void* p = malloc(8);
	free(p);
	rand_seed(42);
	int r = rand_next(10);
	int c = clock();
	return r + c - r - c;
}
`)
	checkErr(t, `int main() { print(); return 0; }`, "exactly one argument")
	checkErr(t, `class A { public: int x; }; int main() { A a; print(a); return 0; }`, "cannot print")
	checkErr(t, `int main() { malloc(); return 0; }`, "expects 1 argument")
	checkErr(t, `int f() { return 1; } int g() { return 2; } int print(int x) { return x; } int main() { return f() + g(); }`, "conflicts with builtin")
}
