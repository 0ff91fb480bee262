package callgraph_test

import (
	"testing"

	"deadmembers/internal/callgraph"
	"deadmembers/internal/frontend"
	"deadmembers/internal/types"
)

func compile(t *testing.T, src string) *frontend.Result {
	t.Helper()
	r := frontend.Compile(frontend.Source{Name: "t.mcc", Text: src})
	if err := r.Err(); err != nil {
		t.Fatalf("compile errors:\n%v", err)
	}
	return r
}

func build(t *testing.T, src string, mode callgraph.Mode) (*frontend.Result, *callgraph.Graph) {
	t.Helper()
	r := compile(t, src)
	return r, callgraph.Build(r.Program, r.Graph, callgraph.Options{Mode: mode})
}

func reachableNames(g *callgraph.Graph) map[string]bool {
	out := map[string]bool{}
	for _, f := range g.ReachableFuncs() {
		out[f.QualifiedName()] = true
	}
	return out
}

const dispatchProgram = `
class A {
public:
	virtual int f() { return 1; }
};
class B : public A {
public:
	virtual int f() { return 2; }
};
class C : public A {
public:
	virtual int f() { return 3; }
};
int unreached() { return 9; }
int main() {
	B b;
	A* p = &b;
	return p->f();
}
`

func TestRTADispatchOnlyInstantiated(t *testing.T) {
	_, g := build(t, dispatchProgram, callgraph.RTA)
	names := reachableNames(g)
	if !names["main"] || !names["B::f"] {
		t.Fatalf("main and B::f must be reachable, got %v", names)
	}
	if names["C::f"] {
		t.Error("RTA must not reach C::f (C never instantiated)")
	}
	if names["unreached"] {
		t.Error("unreached() must not be reachable")
	}
	// A::f IS reachable: A is instantiated as B's base subobject and the
	// dispatch set over {A, B} includes A::f for receivers of exact class A.
	if len(g.InstantiatedClasses()) == 0 {
		t.Error("instantiated set should not be empty")
	}
}

func TestCHADispatchAllSubclasses(t *testing.T) {
	_, g := build(t, dispatchProgram, callgraph.CHA)
	names := reachableNames(g)
	for _, want := range []string{"A::f", "B::f", "C::f"} {
		if !names[want] {
			t.Errorf("CHA should reach %s", want)
		}
	}
	if names["unreached"] {
		t.Error("even CHA must not reach a never-called free function")
	}
}

func TestALLReachesEverything(t *testing.T) {
	_, g := build(t, dispatchProgram, callgraph.ALL)
	names := reachableNames(g)
	for _, want := range []string{"A::f", "B::f", "C::f", "unreached", "main"} {
		if !names[want] {
			t.Errorf("ALL should reach %s", want)
		}
	}
}

func TestModeString(t *testing.T) {
	if callgraph.ALL.String() != "ALL" || callgraph.CHA.String() != "CHA" || callgraph.RTA.String() != "RTA" {
		t.Error("mode names wrong")
	}
}

func TestConstructorChainReachability(t *testing.T) {
	src := `
class Inner {
public:
	int v;
	Inner() { v = seed(); }
	int seed() { return 3; }
};
class Outer {
public:
	Inner in;
	Outer() {}
};
int main() {
	Outer o;
	return 0;
}
`
	_, g := build(t, src, callgraph.RTA)
	names := reachableNames(g)
	for _, want := range []string{"Outer::Outer", "Inner::Inner", "Inner::seed"} {
		if !names[want] {
			t.Errorf("constructor chain should reach %s, got %v", want, names)
		}
	}
}

func TestDestructorReachability(t *testing.T) {
	src := `
class Member {
public:
	int v;
	~Member() { v = cleanup(); }
	int cleanup() { return 0; }
};
class Holder {
public:
	Member m;
};
int main() {
	Holder* h = new Holder();
	delete h;
	return 0;
}
`
	_, g := build(t, src, callgraph.RTA)
	names := reachableNames(g)
	if !names["Member::~Member"] || !names["Member::cleanup"] {
		t.Errorf("member destructor chain unreachable: %v", names)
	}
}

func TestVirtualDestructorDispatch(t *testing.T) {
	src := `
class Base {
public:
	virtual ~Base() {}
};
class Derived : public Base {
public:
	int mark;
	~Derived() { mark = 1; }
};
int main() {
	Base* p = new Derived();
	delete p;
	return 0;
}
`
	_, g := build(t, src, callgraph.RTA)
	names := reachableNames(g)
	if !names["Derived::~Derived"] {
		t.Errorf("delete through base pointer must reach Derived's dtor: %v", names)
	}
}

func TestGlobalConstructionIsRoot(t *testing.T) {
	src := `
class Init {
public:
	int v;
	Init() { v = helper(); }
	int helper() { return 1; }
};
Init g;
int main() { return g.v; }
`
	_, cg := build(t, src, callgraph.RTA)
	names := reachableNames(cg)
	if !names["Init::Init"] || !names["Init::helper"] {
		t.Errorf("global constructor must be a root: %v", names)
	}
}

func TestQualifiedCallIsStatic(t *testing.T) {
	src := `
class A { public: virtual int f() { return 1; } };
class B : public A { public: virtual int f() { return inner(); } int inner() { return 2; } };
int main() {
	B b;
	return b.A::f(); // statically bound: B::f body not required
}
`
	_, g := build(t, src, callgraph.RTA)
	names := reachableNames(g)
	if !names["A::f"] {
		t.Error("qualified call target A::f must be reachable")
	}
}

func TestExtraRoots(t *testing.T) {
	src := `
class Lib { public: virtual void onEvent() {} };
class Mine : public Lib {
public:
	int hits;
	virtual void onEvent() { hits = hits + bump(); }
	int bump() { return 1; }
};
int main() {
	Mine m;
	return 0;
}
`
	r := compile(t, src)
	var root *types.Func
	for _, c := range r.Program.Classes {
		if c.Name == "Mine" {
			root = c.MethodByName("onEvent")
		}
	}
	// Without the extra root, onEvent is unreachable (never called).
	g := callgraph.Build(r.Program, r.Graph, callgraph.Options{Mode: callgraph.RTA})
	if reachableNames(g)["Mine::onEvent"] {
		t.Fatal("onEvent should be unreachable without roots")
	}
	g = callgraph.Build(r.Program, r.Graph, callgraph.Options{Mode: callgraph.RTA, ExtraRoots: []*types.Func{root}})
	names := reachableNames(g)
	if !names["Mine::onEvent"] || !names["Mine::bump"] {
		t.Errorf("extra root should pull in onEvent and bump: %v", names)
	}
}

func TestEdgesRecorded(t *testing.T) {
	src := `
int helper() { return 1; }
int main() { return helper(); }
`
	r, g := build(t, src, callgraph.RTA)
	main := r.Program.Main
	if len(g.Edges[main]) != 1 || g.Edges[main][0].Name != "helper" {
		t.Errorf("edges from main = %v", g.Edges[main])
	}
}

func TestUsedClasses(t *testing.T) {
	src := `
class Used1 { public: int a; };
class UsedViaNew { public: int b; };
class UsedAsMember { public: int c; };
class Holder { public: UsedAsMember m; };
class NotUsed { public: int d; };
int take(Used1 u) { return u.a; }
int main() {
	Used1 u;
	UsedViaNew* p = new UsedViaNew();
	Holder h;
	int r = u.a + p->b + h.m.c;
	delete p;
	return r;
}
`
	r := compile(t, src)
	used := callgraph.UsedClasses(r.Program)
	names := map[string]bool{}
	for c := range used {
		names[c.Name] = true
	}
	for _, want := range []string{"Used1", "UsedViaNew", "UsedAsMember", "Holder"} {
		if !names[want] {
			t.Errorf("%s should be a used class", want)
		}
	}
	if names["NotUsed"] {
		t.Error("NotUsed should not be a used class")
	}
}

// TestRTAIndirectBaseSiteReachedByLaterInstantiation: main records the
// virtual site p->f() at static class A while only A is instantiated;
// the later new C() instantiates C, whose A base is indirect (through
// B), so C and its B subobject must reach the site. D never is.
func TestRTAIndirectBaseSiteReachedByLaterInstantiation(t *testing.T) {
	src := `
class A { public: virtual int f() { return 1; } };
class B : public A { public: virtual int f() { return 2; } };
class C : public B { public: virtual int f() { return 3; } };
class D : public B { public: virtual int f() { return 4; } };
int main() {
	A* p = new A();
	int r = p->f();
	C* c = new C();
	return r;
}
`
	r, g := build(t, src, callgraph.RTA)
	callees := map[string]bool{}
	for _, f := range g.Edges[r.Program.Main] {
		callees[f.QualifiedName()] = true
	}
	for _, want := range []string{"A::f", "B::f", "C::f"} {
		if !callees[want] {
			t.Errorf("main -> %s missing; callees %v", want, callees)
		}
	}
	if callees["D::f"] || reachableNames(g)["D::f"] {
		t.Error("D is never instantiated: D::f must stay unreachable")
	}
}

// TestRTAVirtualDtorDeleteBeforeSubclassInstantiated: delete through a
// Mid* is recorded when no Leaf exists yet. Mid's destructor is virtual
// only through its base, and Leaf, instantiated after the delete, must
// still have its destructor (and what it calls) reached from that
// delete. Other is never instantiated.
func TestRTAVirtualDtorDeleteBeforeSubclassInstantiated(t *testing.T) {
	src := `
class Base { public: virtual ~Base() {} };
class Mid : public Base { public: ~Mid() {} };
class Leaf : public Mid {
public:
	int mark;
	~Leaf() { mark = cleanup(); }
	int cleanup() { return 0; }
};
class Other : public Mid { public: ~Other() {} };
int main() {
	Mid* p = new Mid();
	delete p;
	Leaf* q = new Leaf();
	return 0;
}
`
	_, g := build(t, src, callgraph.RTA)
	names := reachableNames(g)
	if !names["Leaf::~Leaf"] || !names["Leaf::cleanup"] {
		t.Errorf("delete must reach the later-instantiated Leaf's destructor: %v", names)
	}
	if names["Other::~Other"] {
		t.Error("Other is never instantiated: its destructor must stay unreachable")
	}
}

// twoCtorsProgram declares two constructors of C, which share the
// qualified name C::C: the first takes x's address, the second reads x.
const twoCtorsProgram = `
class C {
public:
	int x;
	int* p;
	C() { p = &x; }
	C(int v) { print(x + v); }
};
int main() {
	C a;
	C b(1);
	print(*a.p);
	return 0;
}
`

// TestReachableFuncsOrdersOverloads pins the tie-break among functions
// that share a qualified name: declaration order, on every build (the
// name alone left it to map iteration).
func TestReachableFuncsOrdersOverloads(t *testing.T) {
	r := compile(t, twoCtorsProgram)
	for run := 0; run < 50; run++ {
		g := callgraph.Build(r.Program, r.Graph, callgraph.Options{Mode: callgraph.RTA})
		var ctors []*types.Func
		for _, f := range g.ReachableFuncs() {
			if f.QualifiedName() == "C::C" {
				ctors = append(ctors, f)
			}
		}
		if len(ctors) != 2 {
			t.Fatalf("want 2 reachable C::C constructors, got %d", len(ctors))
		}
		if !(ctors[0].Pos < ctors[1].Pos) || len(ctors[0].Params) != 0 {
			t.Fatalf("call %d: constructors out of declaration order: %v then %v", run, ctors[0], ctors[1])
		}
	}
}

// TestReachableFuncsOrderedOnce: Build orders the reachable functions
// once, in every mode, so a pass that asks for them allocates nothing.
func TestReachableFuncsOrderedOnce(t *testing.T) {
	r := compile(t, dispatchProgram)
	for _, mode := range []callgraph.Mode{callgraph.RTA, callgraph.CHA, callgraph.ALL} {
		g := callgraph.Build(r.Program, r.Graph, callgraph.Options{Mode: mode})
		if got, want := len(g.ReachableFuncs()), len(g.Reachable); got != want {
			t.Errorf("%v: ReachableFuncs has %d functions, Reachable %d", mode, got, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { g.ReachableFuncs() }); allocs != 0 {
			t.Errorf("%v: ReachableFuncs allocates %.0f times per call, want 0", mode, allocs)
		}
	}
}
