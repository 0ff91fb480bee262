package frontend

import (
	"strings"
	"testing"

	"deadmembers/internal/ast"
	"deadmembers/internal/types"
)

// figure1 is the example program of Figure 1 of the paper, transliterated
// to MC++ (references replaced by pointers).
const figure1 = `
class N {
public:
	int mn1; /* live: accessed and observable */
	int mn2; /* dead: not accessed */
};
class A {
public:
	virtual int f() { return ma1; }
	int ma1; /* live */
	int ma2; /* dead: not accessed */
	int ma3; /* dead: accessed but only written */
};
class B : public A {
public:
	virtual int f() { return mb1; }
	int mb1;
	N   mb2;
	int mb3;
	int mb4;
};
class C : public A {
public:
	virtual int f() { return mc1; }
	int mc1;
};
int foo(int* x) { return (*x) + 1; }
int main() {
	A a;
	B b;
	C c;
	A* ap;
	a.ma3 = b.mb3 + 1;
	int i = 10;
	if (i < 20) { ap = &a; } else { ap = &b; }
	return ap->f() + b.mb2.mn1 + foo(&b.mb4);
}
`

func TestCompileFigure1(t *testing.T) {
	r := Compile(Source{Name: "figure1.mcc", Text: figure1})
	if err := r.Err(); err != nil {
		t.Fatalf("unexpected errors:\n%v", err)
	}
	p := r.Program
	if p.Main == nil {
		t.Fatal("main not found")
	}
	if got := len(p.Classes); got != 4 {
		t.Fatalf("expected 4 classes, got %d", got)
	}
	b := p.ClassByName["B"]
	if b == nil {
		t.Fatal("class B missing")
	}
	if len(b.Fields) != 4 {
		t.Fatalf("B should have 4 fields, got %d", len(b.Fields))
	}
	if len(b.Bases) != 1 || b.Bases[0].Class.Name != "A" {
		t.Fatalf("B should derive from A, got %v", b.Bases)
	}
	// ap->f() is a virtual call; the static target is A::f.
	a := p.ClassByName["A"]
	if m := a.MethodByName("f"); m == nil || !m.Virtual {
		t.Fatal("A::f should be a virtual method")
	}
	// Layout sanity: B contains A subobject (vptr+3 ints) plus own fields.
	lb := r.Graph.LayoutOf(b)
	if lb.Size <= r.Graph.LayoutOf(a).Size {
		t.Fatalf("sizeof(B)=%d should exceed sizeof(A)=%d", lb.Size, r.Graph.LayoutOf(a).Size)
	}
	if lb.VptrBytes != 8 {
		t.Fatalf("B should have one inherited vptr (8 bytes), got %d", lb.VptrBytes)
	}
}

func TestCompileErrorsAreReported(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown type", `int main() { Foo x; return 0; }`, "undeclared identifier"},
		{"unknown member", `class A { public: int x; }; int main() { A a; return a.y; }`, "no member named"},
		{"bad arity", `int f(int a) { return a; } int main() { return f(); }`, "expects 1 argument"},
		{"union inheritance", `class A { public: int x; }; union U : public A { int y; }; int main() { return 0; }`, "unions cannot participate"},
		{"self inheritance", `class A : public A { public: int x; }; int main() { return 0; }`, "cannot derive from itself"},
		{"method without call", `class A { public: int f() { return 1; } }; int main() { A a; return a.f; }`, "used without call"},
		{"this outside method", `int main() { return (int)this; }`, "outside a member function"},
		{"dtor mismatch", `class A { public: ~B() {} }; int main() { return 0; }`, "does not match class"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := Compile(Source{Name: "t.mcc", Text: tc.src})
			err := r.Err()
			if err == nil {
				t.Fatalf("expected error containing %q, got none", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("expected error containing %q, got:\n%v", tc.wantSub, err)
			}
		})
	}
}

func TestMemberLookupThroughBases(t *testing.T) {
	src := `
class Base { public: int x; };
class Mid : public Base { public: int y; };
class Derived : public Mid { public: int z; };
int main() {
	Derived d;
	d.x = 1;
	d.y = 2;
	d.z = 3;
	return d.x + d.y + d.z;
}
`
	r := Compile(Source{Name: "t.mcc", Text: src})
	if err := r.Err(); err != nil {
		t.Fatalf("unexpected errors:\n%v", err)
	}
	derived := r.Program.ClassByName["Derived"]
	f, err := r.Graph.LookupField(derived, "x")
	if err != nil {
		t.Fatalf("lookup failed: %v", err)
	}
	if f.Owner.Name != "Base" {
		t.Fatalf("x should resolve to Base::x, got %s", f.QualifiedName())
	}
}

func TestAmbiguousLookupRejected(t *testing.T) {
	src := `
class L { public: int v; };
class R { public: int v; };
class D : public L, public R { public: int w; };
int main() {
	D d;
	return d.v;
}
`
	r := Compile(Source{Name: "t.mcc", Text: src})
	err := r.Err()
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("expected ambiguity error, got: %v", err)
	}
}

func TestVirtualBaseSharedNotAmbiguous(t *testing.T) {
	src := `
class V { public: int v; };
class L : public virtual V { public: int l; };
class R : public virtual V { public: int r; };
class D : public L, public R { public: int d; };
int main() {
	D x;
	x.v = 1;
	return x.v;
}
`
	r := Compile(Source{Name: "t.mcc", Text: src})
	if err := r.Err(); err != nil {
		t.Fatalf("diamond through virtual base should be unambiguous:\n%v", err)
	}
	d := r.Program.ClassByName["D"]
	vbs := r.Graph.VirtualBases(d)
	if len(vbs) != 1 || vbs[0].Name != "V" {
		t.Fatalf("expected one virtual base V, got %v", vbs)
	}
	// V's field must appear exactly once in D's layout.
	count := 0
	for _, mi := range r.Graph.LayoutOf(d).Members {
		if mi.Field.QualifiedName() == "V::v" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("V::v should appear once in D's layout, got %d", count)
	}
}

func TestNonVirtualDiamondDuplicatesBase(t *testing.T) {
	src := `
class V { public: int v; };
class L : public V { public: int l; };
class R : public V { public: int r; };
class D : public L, public R { public: int d; };
int main() { D x; return x.d; }
`
	r := Compile(Source{Name: "t.mcc", Text: src})
	if err := r.Err(); err != nil {
		t.Fatalf("unexpected errors:\n%v", err)
	}
	d := r.Program.ClassByName["D"]
	count := 0
	for _, mi := range r.Graph.LayoutOf(d).Members {
		if mi.Field.QualifiedName() == "V::v" {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("non-virtual diamond should contain two V::v instances, got %d", count)
	}
}

func TestPointerToMemberTypes(t *testing.T) {
	src := `
class A { public: int x; int y; };
int main() {
	int A::* pm = &A::x;
	A a;
	a.*pm = 42;
	pm = &A::y;
	A* ap = &a;
	return ap->*pm;
}
`
	r := Compile(Source{Name: "t.mcc", Text: src})
	if err := r.Err(); err != nil {
		t.Fatalf("unexpected errors:\n%v", err)
	}
	// Both &A::x and &A::y must be resolved.
	if len(r.Program.Info.QualFieldRefs) != 2 {
		t.Fatalf("expected 2 qualified field refs, got %d", len(r.Program.Info.QualFieldRefs))
	}
}

func TestUnsafeCastRecorded(t *testing.T) {
	src := `
class A { public: int x; };
class B : public A { public: int y; };
int main() {
	A* ap = new B();
	B* bp = (B*)ap;   // downcast: potentially unsafe
	A* ap2 = (A*)bp;  // upcast: safe
	return bp->y + (ap2 != nullptr ? 1 : 0);
}
`
	r := Compile(Source{Name: "t.mcc", Text: src})
	if err := r.Err(); err != nil {
		t.Fatalf("unexpected errors:\n%v", err)
	}
	if len(r.Program.Info.UnsafeCasts) != 1 {
		t.Fatalf("expected exactly 1 unsafe cast, got %d", len(r.Program.Info.UnsafeCasts))
	}
	for _, cls := range r.Program.Info.UnsafeCasts {
		if cls.Name != "A" {
			t.Fatalf("unsafe cast source class should be A, got %s", cls.Name)
		}
	}
}

func TestImplicitThisMemberAccess(t *testing.T) {
	src := `
class Counter {
public:
	int n;
	Counter() : n(0) {}
	void bump() { n = n + 1; }
	int get() { return n; }
};
int main() {
	Counter c;
	c.bump();
	return c.get();
}
`
	r := Compile(Source{Name: "t.mcc", Text: src})
	if err := r.Err(); err != nil {
		t.Fatalf("unexpected errors:\n%v", err)
	}
	resolved := false
	for _, f := range r.Program.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && r.Program.Info.FieldOf(id) != nil {
				resolved = true
			}
			return !resolved
		})
	}
	if !resolved {
		t.Fatal("implicit this-> field accesses should resolve to fields (Info.FieldOf)")
	}
}

func TestOutOfLineDefinitions(t *testing.T) {
	src := `
class Stack {
public:
	int data[16];
	int top;
	Stack();
	void push(int v);
	int pop();
};
Stack::Stack() : top(0) {}
void Stack::push(int v) { data[top] = v; top = top + 1; }
int Stack::pop() { top = top - 1; return data[top]; }
int main() {
	Stack s;
	s.push(41);
	s.push(1);
	return s.pop() + s.pop();
}
`
	r := Compile(Source{Name: "t.mcc", Text: src})
	if err := r.Err(); err != nil {
		t.Fatalf("unexpected errors:\n%v", err)
	}
	st := r.Program.ClassByName["Stack"]
	for _, name := range []string{"push", "pop"} {
		m := st.MethodByName(name)
		if m == nil || m.Body == nil {
			t.Fatalf("out-of-line %s should have a body", name)
		}
	}
	if len(st.Ctors()) != 1 || st.Ctors()[0].Body == nil {
		t.Fatal("out-of-line constructor should have a body")
	}
}

func TestGlobalsAndBuiltins(t *testing.T) {
	src := `
int counter = 5;
int main() {
	print(counter);
	println();
	int* p = (int*)malloc(4);
	*p = 7;
	int v = *p;
	free((void*)p);
	return v;
}
`
	r := Compile(Source{Name: "t.mcc", Text: src})
	if err := r.Err(); err != nil {
		t.Fatalf("unexpected errors:\n%v", err)
	}
	if len(r.Program.Globals) != 1 || r.Program.Globals[0].Name != "counter" {
		t.Fatalf("expected one global counter, got %v", r.Program.Globals)
	}
	if r.Program.Globals[0].Type != types.IntType {
		t.Fatalf("counter should be int, got %s", r.Program.Globals[0].Type)
	}
}

func TestUnionCompile(t *testing.T) {
	src := `
union U {
	int i;
	double d;
	char c;
};
int main() {
	U u;
	u.i = 3;
	return u.i;
}
`
	r := Compile(Source{Name: "t.mcc", Text: src})
	if err := r.Err(); err != nil {
		t.Fatalf("unexpected errors:\n%v", err)
	}
	u := r.Program.ClassByName["U"]
	if !u.IsUnion() {
		t.Fatal("U should be a union")
	}
	l := r.Graph.LayoutOf(u)
	if l.Size != 8 {
		t.Fatalf("union of int/double/char should have size 8, got %d", l.Size)
	}
	for _, mi := range l.Members {
		if mi.Offset != 0 {
			t.Fatalf("union members must overlay at offset 0, got %d for %s", mi.Offset, mi.Field.Name)
		}
	}
}
