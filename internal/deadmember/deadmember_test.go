package deadmember_test

import (
	"sort"
	"strings"
	"testing"

	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/frontend"
)

// analyze compiles src and runs the analysis with the given options.
func analyze(t *testing.T, src string, opts deadmember.Options) *deadmember.Result {
	t.Helper()
	r := frontend.Compile(frontend.Source{Name: "test.mcc", Text: src})
	if err := r.Err(); err != nil {
		t.Fatalf("compile errors:\n%v", err)
	}
	return deadmember.Analyze(r.Program, r.Graph, opts)
}

func deadNames(res *deadmember.Result) []string {
	var out []string
	for _, f := range res.DeadMembers() {
		out = append(out, f.QualifiedName())
	}
	sort.Strings(out)
	return out
}

func expectDead(t *testing.T, res *deadmember.Result, want ...string) {
	t.Helper()
	got := deadNames(res)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("dead members mismatch:\n got:  %v\n want: %v", got, want)
	}
}

// figure1 is the paper's example program (Figure 1). Section 3.1 walks the
// algorithm over it: A::ma1, B::mb1, C::mc1 are marked live because their
// methods are reachable under the call graph; B::mb3 is live because it is
// read; B::mb2 and N::mn1 are live via the chained read; B::mb4 is live
// because its address is taken. Dead: N::mn2, A::ma2, A::ma3.
const figure1 = `
class N {
public:
	int mn1;
	int mn2;
};
class A {
public:
	virtual int f() { return ma1; }
	int ma1;
	int ma2;
	int ma3;
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

func TestFigure1Classification(t *testing.T) {
	res := analyze(t, figure1, deadmember.Options{CallGraph: callgraph.RTA})
	expectDead(t, res, "N::mn2", "A::ma2", "A::ma3")

	// Reasons reported for the live members match the paper's narrative.
	p := res.Program
	wantReasons := map[string]deadmember.Reason{
		"A::ma1": deadmember.ReasonRead,
		"B::mb1": deadmember.ReasonRead,
		"C::mc1": deadmember.ReasonRead,
		"B::mb2": deadmember.ReasonRead,
		"B::mb3": deadmember.ReasonRead,
		"N::mn1": deadmember.ReasonRead,
		"B::mb4": deadmember.ReasonAddressTaken,
	}
	for qn, want := range wantReasons {
		parts := strings.SplitN(qn, "::", 2)
		cls := p.ClassByName[parts[0]]
		f := cls.FieldByName(parts[1])
		m := res.MarkOf(f)
		if !m.Live || m.Reason != want {
			t.Errorf("%s: got live=%v reason=%v, want live reason=%v", qn, m.Live, m.Reason, want)
		}
	}

	s := res.Stats()
	if s.Members != 10 || s.DeadMembers != 3 {
		t.Fatalf("stats mismatch: %+v", s)
	}
	if got := s.DeadPercent(); got != 30.0 {
		t.Fatalf("dead percent = %v, want 30.0", got)
	}
}

func TestWriteOnlyMemberIsDead(t *testing.T) {
	src := `
class A {
public:
	int written;
	int read;
	A() : written(1), read(2) {}
};
int main() {
	A a;
	a.written = 10;
	return a.read;
}
`
	res := analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA})
	expectDead(t, res, "A::written")
}

func TestVolatileWriteMarksLive(t *testing.T) {
	src := `
class Dev {
public:
	volatile int reg;
	int scratch;
};
int main() {
	Dev d;
	d.reg = 1;      // write to volatile: live
	d.scratch = 2;  // write to plain member: dead
	return 0;
}
`
	res := analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA})
	expectDead(t, res, "Dev::scratch")
	dev := res.Program.ClassByName["Dev"]
	if m := res.MarkOf(dev.FieldByName("reg")); m.Reason != deadmember.ReasonVolatileWrite {
		t.Fatalf("reg should be live via volatile write, got %v", m.Reason)
	}
}

func TestDeleteSpecialCase(t *testing.T) {
	src := `
class Node {
public:
	int* buf;
	int  n;
	Node() { buf = (int*)malloc(8); n = 0; }
	~Node() { delete buf; }
};
int main() {
	Node* p = new Node();
	int r = p->n;
	delete p;
	return r;
}
`
	// With the special case (paper default): buf only flows to delete, dead.
	res := analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA})
	expectDead(t, res, "Node::buf")

	// Ablated: delete's argument is an ordinary read, buf becomes live.
	res = analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA, NoDeleteSpecialCase: true})
	expectDead(t, res)
}

func TestFreeSpecialCase(t *testing.T) {
	src := `
class Buf {
public:
	void* mem;
	int   used;
	Buf() { mem = malloc(16); used = 1; }
	~Buf() { free(mem); }
};
int main() {
	Buf b;
	return b.used;
}
`
	res := analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA})
	expectDead(t, res, "Buf::mem")
}

func TestUnreachableAccessIgnored(t *testing.T) {
	src := `
class A {
public:
	int x;
	int y;
};
int deadCode(A* a) { return a->x; } // never called
int main() {
	A a;
	return a.y;
}
`
	res := analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA})
	expectDead(t, res, "A::x")

	// The ALL baseline considers deadCode reachable, so x is live there.
	resAll := analyze(t, src, deadmember.Options{CallGraph: callgraph.ALL})
	expectDead(t, resAll)
}

func TestRTAPrunesUninstantiatedReceivers(t *testing.T) {
	// Mirrors the paper's §3.1 discussion: with a more precise call graph
	// C::f is excluded because no C object exists.
	src := `
class A {
public:
	virtual int f() { return ma; }
	int ma;
};
class B : public A {
public:
	virtual int f() { return mb; }
	int mb;
};
class C : public A {
public:
	virtual int f() { return mc; }
	int mc;
};
int main() {
	B b;
	A* ap = &b;
	return ap->f();
}
`
	res := analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA})
	// C is never instantiated: C::f is unreachable under RTA, so C::mc is
	// dead — but C is also unused, so it is excluded from the counted set.
	stats := res.Stats()
	if stats.UsedClasses != 2 {
		t.Fatalf("used classes = %d, want 2 (A, B)", stats.UsedClasses)
	}
	// Under CHA, C::f is a dispatch target and C::mc is marked live.
	resCHA := analyze(t, src, deadmember.Options{CallGraph: callgraph.CHA})
	c := resCHA.Program.ClassByName["C"]
	if !resCHA.IsLive(c.FieldByName("mc")) {
		t.Fatal("CHA should mark C::mc live (C::f is a dispatch target)")
	}
	if res.IsLive(res.Program.ClassByName["C"].FieldByName("mc")) {
		t.Fatal("RTA should NOT mark C::mc live (C never instantiated)")
	}
}

func TestPointerToMemberMarksLive(t *testing.T) {
	src := `
class A {
public:
	int picked;
	int other;
};
int main() {
	int A::* pm = &A::picked;
	A a;
	return a.*pm;
}
`
	res := analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA})
	expectDead(t, res, "A::other")
	a := res.Program.ClassByName["A"]
	if m := res.MarkOf(a.FieldByName("picked")); m.Reason != deadmember.ReasonPointerToMember {
		t.Fatalf("picked should be live via pointer-to-member, got %v", m.Reason)
	}
}

func TestUnsafeCastMarksSourceMembers(t *testing.T) {
	src := `
class A {
public:
	int a1;
	int a2;
};
class B : public A {
public:
	int b1;
};
int main() {
	A* ap = new B();
	B* bp = (B*)ap; // downcast: conservatively unsafe
	return bp->b1;
}
`
	// Conservative: all members contained in A (the source type) are live.
	res := analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA})
	expectDead(t, res)
	a := res.Program.ClassByName["A"]
	if m := res.MarkOf(a.FieldByName("a2")); m.Reason != deadmember.ReasonUnsafeCast {
		t.Fatalf("a2 should be live via unsafe cast, got %v", m.Reason)
	}

	// With verified-safe downcasts (the paper's benchmark setting), the
	// cast adds nothing and A's members are dead.
	res = analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA, TrustDowncasts: true})
	expectDead(t, res, "A::a1", "A::a2")
}

func TestUnionClosure(t *testing.T) {
	src := `
union U {
	int i;
	double d;
	char c;
};
int main() {
	U u;
	u.d = 1.5;
	return u.i; // reading i makes ALL union members live
}
`
	res := analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA})
	expectDead(t, res)
	u := res.Program.ClassByName["U"]
	if m := res.MarkOf(u.FieldByName("d")); m.Reason != deadmember.ReasonUnionClosure {
		t.Fatalf("d should be live via union closure, got %v", m.Reason)
	}
}

func TestUnionFullyDeadStaysDead(t *testing.T) {
	src := `
union U {
	int i;
	double d;
};
int main() {
	U u;
	u.i = 1; // only writes: every union member stays dead
	return 0;
}
`
	res := analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA})
	expectDead(t, res, "U::d", "U::i")
}

func TestSizeofPolicies(t *testing.T) {
	src := `
class A {
public:
	int x;
	int y;
};
int main() {
	A used;   // a constructor call makes A a "used class" for the stats
	A* p = (A*)malloc(sizeof(A));
	p->x = 1;
	int r = p->x;
	free((void*)p);
	return r;
}
`
	// Paper setting: sizeof used for storage allocation is ignored.
	res := analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA, Sizeof: deadmember.SizeofIgnore})
	expectDead(t, res, "A::y")

	// Conservative: sizeof(A) marks all of A's members live.
	res = analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA, Sizeof: deadmember.SizeofConservative})
	expectDead(t, res)
}

func TestLibraryClassExcluded(t *testing.T) {
	src := `
class LibBase {
public:
	virtual void handle() {}
	int libdata;
};
class Mine : public LibBase {
public:
	virtual void handle() { used = used + 1; }
	int used;
	int unused;
	Mine() : used(0), unused(0) {}
};
int main() {
	Mine m;
	return 0;
}
`
	res := analyze(t, src, deadmember.Options{
		CallGraph:      callgraph.RTA,
		LibraryClasses: []string{"LibBase"},
	})
	// LibBase::libdata is unclassifiable (library), not reported dead.
	// Mine::handle overrides a library virtual => callback root, so
	// Mine::used is read (live); Mine::unused is dead.
	expectDead(t, res, "Mine::unused")
	lb := res.Program.ClassByName["LibBase"]
	if res.IsDead(lb.FieldByName("libdata")) {
		t.Fatal("library member must never be classified dead")
	}
	if !res.IsLibraryClass(lb) {
		t.Fatal("LibBase should be flagged as a library class")
	}
	// Stats exclude the library class entirely.
	s := res.Stats()
	if s.Classes != 1 || s.Members != 2 {
		t.Fatalf("stats should cover only Mine: %+v", s)
	}
}

// TestLibraryOverrideRootThroughIndirectBase: a user method overriding
// a virtual method of a library class two levels up is a call-graph root
// (the library may call it back); without a library designation it is
// not, and the member only it reads is dead.
func TestLibraryOverrideRootThroughIndirectBase(t *testing.T) {
	src := `
class Lib { public: virtual void onEvent() {} };
class Mid : public Lib { public: int pad; Mid() : pad(0) {} };
class Mine : public Mid {
public:
	int hits;
	Mine() : hits(0) {}
	virtual void onEvent() { hits = hits + 1; }
};
int main() { Mine m; return 0; }
`
	r := frontend.Compile(frontend.Source{Name: "test.mcc", Text: src})
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	onEvent := r.Program.ClassByName["Mine"].MethodByName("onEvent")
	lib := deadmember.Options{CallGraph: callgraph.RTA, LibraryClasses: []string{"Lib"}}
	if g := deadmember.BuildGraph(r.Program, r.Graph, lib); !g.Reachable[onEvent] {
		t.Error("Mine::onEvent overrides a library virtual through Mid: it must be a root")
	}
	if g := deadmember.BuildGraph(r.Program, r.Graph, deadmember.Options{CallGraph: callgraph.RTA}); g.Reachable[onEvent] {
		t.Error("without a library class Mine::onEvent is never called")
	}
	expectDead(t, deadmember.Analyze(r.Program, r.Graph, lib), "Mid::pad")
	expectDead(t, deadmember.Analyze(r.Program, r.Graph, deadmember.Options{CallGraph: callgraph.RTA}), "Mid::pad", "Mine::hits")
}

func TestUnusedClassesExcludedFromStats(t *testing.T) {
	src := `
class Used { public: int a; int b; };
class Unused { public: int c; };
int main() {
	Used u;
	return u.a;
}
`
	res := analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA})
	s := res.Stats()
	if s.UsedClasses != 1 {
		t.Fatalf("used classes = %d, want 1", s.UsedClasses)
	}
	if s.Members != 2 {
		t.Fatalf("members counted = %d, want 2 (Used only)", s.Members)
	}
	expectDead(t, res, "Used::b")
}

func TestChainedReadMarksWholePath(t *testing.T) {
	src := `
class Inner { public: int v; int w; };
class Outer { public: Inner in; int pad; };
int main() {
	Outer o;
	return o.in.v;
}
`
	res := analyze(t, res0Src(src), deadmember.Options{CallGraph: callgraph.RTA})
	expectDead(t, res, "Inner::w", "Outer::pad")
}

func res0Src(s string) string { return s }

func TestWritePathDoesNotMarkIntermediates(t *testing.T) {
	src := `
class Inner { public: int v; };
class Outer { public: Inner in; };
int main() {
	Outer o;
	o.in.v = 42; // pure write: neither v nor in become live
	return 0;
}
`
	res := analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA})
	expectDead(t, res, "Inner::v", "Outer::in")
}

func TestArrowOnWritePathReadsPointerMember(t *testing.T) {
	src := `
class Inner { public: int v; };
class Outer {
public:
	Inner* ip;
	Outer() { ip = new Inner(); }
};
int main() {
	Outer o;
	o.ip->v = 42; // writing v reads the pointer member ip
	return 0;
}
`
	res := analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA})
	expectDead(t, res, "Inner::v")
	outer := res.Program.ClassByName["Outer"]
	if !res.IsLive(outer.FieldByName("ip")) {
		t.Fatal("Outer::ip must be live: its pointer value is read to locate *ip")
	}
}

func TestCompoundAssignReads(t *testing.T) {
	src := `
class A { public: int acc; };
int main() {
	A a;
	a.acc += 3; // read-modify-write: live
	return 0;
}
`
	res := analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA})
	expectDead(t, res)
}

func TestCtorInitIsWriteNotRead(t *testing.T) {
	src := `
class A {
public:
	int initialized;
	int readBack;
	A() : initialized(7), readBack(8) {}
};
int main() {
	A a;
	return a.readBack;
}
`
	res := analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA})
	expectDead(t, res, "A::initialized")
}

func TestWritesAreUsesAblation(t *testing.T) {
	// Paper §2: "data members are typically initialized with a value in a
	// constructor. Otherwise, the initialization of data members would
	// lead to liveness, and very few data members would be dead."
	src := `
class A {
public:
	int initialized;     // ctor-initialized, never read
	int neverTouched;    // never written at all: dead either way
	A() : initialized(1) {}
};
int main() {
	A a;
	return 0;
}
`
	normal := analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA})
	expectDead(t, normal, "A::initialized", "A::neverTouched")

	naive := analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA, WritesAreUses: true})
	expectDead(t, naive, "A::neverTouched")
	a := naive.Program.ClassByName["A"]
	if m := naive.MarkOf(a.FieldByName("initialized")); m.Reason != deadmember.ReasonWrite {
		t.Fatalf("initialized should be live via write in naive mode, got %v", m.Reason)
	}
}

func TestCallGraphMonotonicity(t *testing.T) {
	// dead(ALL) ⊆ dead(CHA) ⊆ dead(RTA): more precise call graphs can
	// only find more dead members.
	src := figure1
	all := deadNames(analyze(t, src, deadmember.Options{CallGraph: callgraph.ALL}))
	cha := deadNames(analyze(t, src, deadmember.Options{CallGraph: callgraph.CHA}))
	rta := deadNames(analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA}))
	isSubset := func(a, b []string) bool {
		set := map[string]bool{}
		for _, x := range b {
			set[x] = true
		}
		for _, x := range a {
			if !set[x] {
				return false
			}
		}
		return true
	}
	if !isSubset(all, cha) || !isSubset(cha, rta) {
		t.Fatalf("monotonicity violated:\nALL=%v\nCHA=%v\nRTA=%v", all, cha, rta)
	}
}

func TestMethodCallReceiverNotRead(t *testing.T) {
	src := `
class Inner {
public:
	int state;
	int get() { return state; }
};
class Outer { public: Inner in; };
int main() {
	Outer o;
	return o.in.get(); // calling a method on subobject does not read 'in' itself
}
`
	res := analyze(t, src, deadmember.Options{CallGraph: callgraph.RTA})
	expectDead(t, res, "Outer::in")
	inner := res.Program.ClassByName["Inner"]
	if !res.IsLive(inner.FieldByName("state")) {
		t.Fatal("Inner::state is read inside get(): live")
	}
}
