package deadmembers_test

import (
	"strings"
	"testing"

	"deadmembers"
)

const apiExample = `
class Widget {
public:
	int shown;       // live
	int refreshes;   // dead: write-only counter
	Widget() : shown(0), refreshes(0) {}
	void draw() { shown = shown + 1; refreshes = refreshes + 0 * shown; }
	int visible() { return shown; }
};
int main() {
	Widget w;
	w.draw();
	w.draw();
	return w.visible();
}
`

func TestAnalyzeSourceDefaultsToRTA(t *testing.T) {
	res, err := deadmembers.AnalyzeSource("api.mcc", apiExample, deadmembers.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CallGraph.Mode.String() != "RTA" {
		t.Fatalf("default call graph = %s, want RTA", res.CallGraph.Mode)
	}
	// refreshes is read (compound-style) so actually live; shown is live.
	dead := res.DeadMembers()
	if len(dead) != 0 {
		t.Fatalf("unexpected dead members: %v", dead)
	}
}

func TestAnalyzeReportsCompileErrors(t *testing.T) {
	_, err := deadmembers.AnalyzeSource("bad.mcc", "int main() { return x; }", deadmembers.Options{})
	if err == nil || !strings.Contains(err.Error(), "undeclared identifier") {
		t.Fatalf("want compile error, got %v", err)
	}
}

func TestRunExecutes(t *testing.T) {
	res, err := deadmembers.Run(deadmembers.Source{Name: "run.mcc", Text: `
int main() { print("hi"); println(); return 7; }`})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 7 || res.Output != "hi\n" {
		t.Fatalf("exit=%d output=%q", res.ExitCode, res.Output)
	}
}

func TestProfileSourceEndToEnd(t *testing.T) {
	src := `
class Box {
public:
	int used;
	int wasted;     // dead
	Box() : used(1), wasted(2) {}
};
int main() {
	int acc = 0;
	for (int i = 0; i < 10; i++) {
		Box* b = new Box();
		acc = acc + b->used;
		delete b;
	}
	return acc;
}
`
	prof, err := deadmembers.ProfileSource("box.mcc", src, deadmembers.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Exec.ExitCode != 10 {
		t.Fatalf("exit = %d, want 10", prof.Exec.ExitCode)
	}
	l := prof.Ledger
	if l.TotalObjects != 10 {
		t.Fatalf("objects = %d, want 10", l.TotalObjects)
	}
	// Box is 8 bytes (two ints), half dead.
	if l.TotalBytes != 80 || l.DeadBytes != 40 {
		t.Fatalf("bytes = %d dead = %d, want 80/40", l.TotalBytes, l.DeadBytes)
	}
	if l.HighWater != 8 || l.AdjustedHighWater != 4 {
		t.Fatalf("hwm = %d adj = %d, want 8/4", l.HighWater, l.AdjustedHighWater)
	}
}

func TestMultiFilePrograms(t *testing.T) {
	lib := deadmembers.Source{Name: "lib.mcc", Text: `
class Counter {
public:
	int n;
	int spare;   // dead
	Counter() : n(0), spare(0) {}
	void bump() { n = n + 1; }
	int get() { return n; }
};
`}
	app := deadmembers.Source{Name: "app.mcc", Text: `
int main() {
	Counter c;
	c.bump();
	c.bump();
	return c.get();
}
`}
	res, err := deadmembers.Analyze(deadmembers.Options{}, lib, app)
	if err != nil {
		t.Fatal(err)
	}
	dead := res.DeadMembers()
	if len(dead) != 1 || dead[0].QualifiedName() != "Counter::spare" {
		t.Fatalf("dead = %v, want [Counter::spare]", dead)
	}
}

func TestStripAPI(t *testing.T) {
	src := deadmembers.Source{Name: "s.mcc", Text: `
class R {
public:
	int keep;
	int drop;   // dead
	R() : keep(1), drop(2) {}
};
int main() {
	R r;
	return r.keep;
}
`}
	out, err := deadmembers.Strip(deadmembers.Options{}, deadmembers.StripOptions{}, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.RemovedMembers) != 1 || out.RemovedMembers[0] != "R::drop" {
		t.Fatalf("removed = %v", out.RemovedMembers)
	}
	before, err := deadmembers.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	after, err := deadmembers.Run(out.Sources...)
	if err != nil {
		t.Fatal(err)
	}
	if before.ExitCode != after.ExitCode {
		t.Fatal("behaviour changed")
	}
	// Compile errors propagate.
	if _, err := deadmembers.Strip(deadmembers.Options{}, deadmembers.StripOptions{},
		deadmembers.Source{Name: "bad.mcc", Text: "int main() { return y; }"}); err == nil {
		t.Fatal("want compile error")
	}
}

func TestCallGraphModeMapping(t *testing.T) {
	src := `
class A { public: virtual int f() { return a; } int a; };
class B : public A { public: virtual int f() { return b; } int b; };
B* makeB() { return new B(); }   // never called: B is used but never
                                 // instantiated in reachable code
int main() { A x; A* p = &x; return p->f(); }
`
	// Under ALL and CHA, B::f is a dispatch target so B::b is live;
	// under RTA, B is not instantiated in reachable code so B::b is dead
	// — this distinguishes the mappings through the public API.
	counts := map[deadmembers.CallGraphMode]int{}
	for _, mode := range []deadmembers.CallGraphMode{
		deadmembers.CallGraphRTA, deadmembers.CallGraphCHA, deadmembers.CallGraphALL,
	} {
		res, err := deadmembers.AnalyzeSource("m.mcc", src, deadmembers.Options{CallGraph: mode})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.CallGraph.Mode.String(); got != [...]string{"RTA", "CHA", "ALL"}[mode] {
			t.Errorf("mode %d mapped to %s", mode, got)
		}
		counts[mode] = len(res.DeadMembers())
	}
	if counts[deadmembers.CallGraphRTA] <= counts[deadmembers.CallGraphCHA] {
		t.Errorf("RTA should find more dead members than CHA here: %v", counts)
	}
}

func TestOptionsPlumbing(t *testing.T) {
	src := `
class A { public: int x; };
class B : public A { public: int y; };
int main() {
	A* p = new B();
	B* q = (B*)p;
	return q->y;
}
`
	conservative, err := deadmembers.AnalyzeSource("t.mcc", src, deadmembers.Options{})
	if err != nil {
		t.Fatal(err)
	}
	trusting, err := deadmembers.AnalyzeSource("t.mcc", src, deadmembers.Options{TrustDowncasts: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(conservative.DeadMembers()) != 0 {
		t.Fatal("conservative downcast handling should keep A::x live")
	}
	if len(trusting.DeadMembers()) != 1 {
		t.Fatal("trusted downcasts should let A::x die")
	}
}

const reuseExample = `
class Box {
public:
	int used;
	int wasted;    // dead: written in the ctor, never read
	Box() : used(1), wasted(2) {}
};
int main() {
	Box* b = new Box();
	int v = b->used;
	delete b;
	return v;
}
`

// TestCompileReuse exercises the compile-once API: one Compilation serves
// several analyses under different options, a profile, and a run — with
// no recompilation in between.
func TestCompileReuse(t *testing.T) {
	comp, err := deadmembers.Compile(deadmembers.Source{Name: "reuse.mcc", Text: reuseExample})
	if err != nil {
		t.Fatal(err)
	}

	res := comp.Analyze(deadmembers.Options{})
	if dead := res.DeadMembers(); len(dead) != 1 || dead[0].QualifiedName() != "Box::wasted" {
		t.Fatalf("dead = %v, want [Box::wasted]", dead)
	}

	// Same compilation, different options: writes-as-uses revives the
	// write-only member.
	res2 := comp.Analyze(deadmembers.Options{WritesAreUses: true})
	if dead := res2.DeadMembers(); len(dead) != 0 {
		t.Fatalf("writes-as-uses left members dead: %v", dead)
	}

	prof, err := comp.Profile(deadmembers.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Exec.ExitCode != 1 || prof.Ledger.DeadBytes != 4 {
		t.Fatalf("profile exit=%d deadbytes=%d, want 1/4", prof.Exec.ExitCode, prof.Ledger.DeadBytes)
	}

	exec, err := comp.Run()
	if err != nil || exec.ExitCode != 1 {
		t.Fatalf("run: %v result=%+v", err, exec)
	}

	// Frontend work happened exactly once, and the stage timings cover it.
	tm := comp.Timings()
	if tm.Total() <= 0 {
		t.Fatalf("timings not recorded: %+v", tm)
	}
	if comp.Fingerprint == "" {
		t.Fatal("empty fingerprint")
	}

	// Compile errors surface from Compile itself.
	if _, err := deadmembers.Compile(deadmembers.Source{Name: "bad.mcc", Text: "int main() { return z; }"}); err == nil {
		t.Fatal("want compile error")
	}
}

// TestWritesAreUsesOption checks the paper's §2 distinction end to end
// through the one-shot API: under the default read-based definition the
// write-only member is dead; treating writes as uses revives it.
func TestWritesAreUsesOption(t *testing.T) {
	res, err := deadmembers.AnalyzeSource("w.mcc", reuseExample, deadmembers.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeadMembers()) != 1 {
		t.Fatalf("default analysis should find Box::wasted dead, got %v", res.DeadMembers())
	}
	res, err = deadmembers.AnalyzeSource("w.mcc", reuseExample, deadmembers.Options{WritesAreUses: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeadMembers()) != 0 {
		t.Fatalf("WritesAreUses should leave nothing dead, got %v", res.DeadMembers())
	}
}
