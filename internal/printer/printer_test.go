package printer_test

import (
	"fmt"
	"strings"
	"testing"

	"deadmembers/internal/ast"
	"deadmembers/internal/bench"
	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/frontend"
	"deadmembers/internal/interp"
	"deadmembers/internal/printer"
)

// roundTrip compiles src, prints it, recompiles the output, and returns
// both results.
func roundTrip(t *testing.T, name, src string) (orig, reprinted *frontend.Result, printed string) {
	t.Helper()
	orig = frontend.Compile(frontend.Source{Name: name, Text: src})
	if err := orig.Err(); err != nil {
		t.Fatalf("original does not compile:\n%v", err)
	}
	printed = printer.Print(orig.Program.Files[0])
	reprinted = frontend.Compile(frontend.Source{Name: name + ".printed", Text: printed})
	if err := reprinted.Err(); err != nil {
		t.Fatalf("printed output does not compile:\n%v\n---- printed ----\n%s", err, printed)
	}
	return orig, reprinted, printed
}

func TestRoundTripSmall(t *testing.T) {
	src := `
class Base {
public:
	int b;
	virtual int f() { return b; }
	virtual ~Base() {}
};
class D : public Base, public virtual Base2 {
public:
	int arr[4];
	double d;
	volatile int flag;
	int D2::* pm;
	D(int v) : Base(), d(1.5) { arr[0] = v; pm = &D2::w; }
	virtual int f() { return arr[0] + (int)d + this->Base::b; }
};
class Base2 { public: int z; };
class D2 { public: int w; };
union U { int i; char c; };
int global = 3;
int helper(int* p) { return *p + sizeof(D2); }
int main() {
	D x(2);
	D* px = &x;
	U u;
	u.i = 1;
	switch (x.f()) {
	case 0: return 0;
	case 1:
	case 2: break;
	default: break;
	}
	for (int i = 0; i < 3; i++) { continue; }
	while (false) {}
	do { u.i += 1; } while (u.i < 0);
	int acc = px->f() + helper(&global) + (true ? u.i : 0) - -5 + 'a';
	D2 d2;
	acc = acc + d2.*(px->pm);
	print("ok\n");
	return acc % 256;
}
`
	orig, reprinted, _ := roundTrip(t, "rt.mcc", src)

	// Same program behaviour.
	r1, err := interp.Run(orig.Program, orig.Graph, interp.Options{})
	if err != nil {
		t.Fatalf("original run: %v", err)
	}
	r2, err := interp.Run(reprinted.Program, reprinted.Graph, interp.Options{})
	if err != nil {
		t.Fatalf("reprinted run: %v", err)
	}
	if r1.ExitCode != r2.ExitCode || r1.Output != r2.Output {
		t.Fatalf("behaviour changed: %d/%q vs %d/%q", r1.ExitCode, r1.Output, r2.ExitCode, r2.Output)
	}
}

// TestRoundTripCorpus: every corpus benchmark must print, re-parse, run
// identically, and yield the identical dead-member analysis — a strong
// whole-system property test of parser, printer, and analysis together.
func TestRoundTripCorpus(t *testing.T) {
	for _, bm := range bench.All() {
		t.Run(bm.Name, func(t *testing.T) {
			orig, reprinted, _ := roundTrip(t, bm.Name, bm.Sources[0].Text)

			a1 := deadmember.Analyze(orig.Program, orig.Graph, deadmember.Options{CallGraph: callgraph.RTA})
			a2 := deadmember.Analyze(reprinted.Program, reprinted.Graph, deadmember.Options{CallGraph: callgraph.RTA})
			d1, d2 := names(a1), names(a2)
			if strings.Join(d1, ",") != strings.Join(d2, ",") {
				t.Fatalf("dead sets differ after round trip:\n%v\nvs\n%v", d1, d2)
			}

			r1, err := interp.Run(orig.Program, orig.Graph, interp.Options{})
			if err != nil {
				t.Fatalf("original run: %v", err)
			}
			r2, err := interp.Run(reprinted.Program, reprinted.Graph, interp.Options{})
			if err != nil {
				t.Fatalf("reprinted run: %v", err)
			}
			if r1.Output != r2.Output || r1.ExitCode != r2.ExitCode {
				t.Fatalf("behaviour changed after round trip")
			}
		})
	}
}

func names(res *deadmember.Result) []string {
	var out []string
	for _, f := range res.DeadMembers() {
		out = append(out, f.QualifiedName())
	}
	return out
}

// TestIdempotent: printing the reprinted program yields identical text.
func TestIdempotent(t *testing.T) {
	bm, err := bench.ByName("richards")
	if err != nil {
		t.Fatal(err)
	}
	_, reprinted, printed := roundTrip(t, "richards", bm.Sources[0].Text)
	again := printer.Print(reprinted.Program.Files[0])
	if printed != again {
		t.Fatal("printer is not idempotent")
	}
}

func TestPrintExpr(t *testing.T) {
	r := frontend.Compile(frontend.Source{Name: "e.mcc", Text: `
int main() { int a = 1; int b = 2; return a + b * 3; }
`})
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	out := printer.Print(r.Program.Files[0])
	if !strings.Contains(out, "a + (b * 3)") {
		t.Errorf("expected parenthesized rendering, got:\n%s", out)
	}
}

// typeShape renders the structure of a syntactic type, qualifiers and
// the node they wrap included.
func typeShape(t ast.TypeExpr) string {
	switch x := t.(type) {
	case nil:
		return "void"
	case *ast.NamedType:
		return x.Name
	case *ast.PointerType:
		return "ptr(" + typeShape(x.Elem) + ")"
	case *ast.ArrayType:
		return "array(" + typeShape(x.Elem) + ")"
	case *ast.MemberPointerType:
		return "memptr(" + x.Class + ", " + typeShape(x.Elem) + ")"
	case *ast.QualType:
		return fmt.Sprintf("qual(const=%v volatile=%v, %s)", x.Const, x.Volatile, typeShape(x.Base))
	}
	return fmt.Sprintf("%T", t)
}

// declaredTypes lists "name: shape" for every variable, field and
// parameter f declares, locals included, in source order.
func declaredTypes(f *ast.File) []string {
	var out []string
	add := func(name string, t ast.TypeExpr) { out = append(out, name+": "+typeShape(t)) }
	params := func(ps []ast.Param) {
		for _, p := range ps {
			add(p.Name, p.Type)
		}
	}
	var stmt func(s ast.Stmt)
	stmt = func(s ast.Stmt) {
		switch x := s.(type) {
		case *ast.BlockStmt:
			for _, s := range x.Stmts {
				stmt(s)
			}
		case *ast.DeclStmt:
			add(x.Var.Name, x.Var.Type)
		case *ast.IfStmt:
			stmt(x.Then)
			stmt(x.Else)
		case *ast.WhileStmt:
			stmt(x.Body)
		case *ast.DoWhileStmt:
			stmt(x.Body)
		case *ast.ForStmt:
			stmt(x.Init)
			stmt(x.Body)
		case *ast.SwitchStmt:
			for _, c := range x.Cases {
				for _, s := range c.Body {
					stmt(s)
				}
			}
		}
	}
	for _, d := range f.Decls {
		switch x := d.(type) {
		case *ast.ClassDecl:
			for _, fd := range x.Fields {
				add(x.Name+"::"+fd.Name, fd.Type)
			}
			for _, m := range x.Methods {
				params(m.Params)
				if m.Body != nil {
					stmt(m.Body)
				}
			}
		case *ast.FuncDecl:
			params(x.Params)
			if x.Body != nil {
				stmt(x.Body)
			}
		case *ast.VarDecl:
			add(x.Name, x.Type)
		}
	}
	return out
}

// TestRoundTripTypes: printing keeps the structure of every declared
// type. A qualifier after a `*` qualifies the pointer, so `int * const`
// must not come back as `const int*`, a pointer to const.
func TestRoundTripTypes(t *testing.T) {
	qualified := `
class C { public: int v; int w; C() : v(1), w(2) {} };
class K {
public:
	int * const p;
	const int * const q;
	volatile int * volatile vp;
	int C::* const pm;
	K(int * const a) : p(a), q(a), vp(a), pm(&C::v) {}
};
const int * const limit = 0;
int use(int * const a, const int * const b, int C::* const m, C * c) { return *a + *b + c->*m; }
int main() {
	C c;
	int * const p = &c.v;
	*p = 7;
	const int * const q = p;
	int const r = 3;
	const volatile int s = 1;
	int C::* const pm = &C::w;
	K k(p);
	for (int * const f = p; false; ) {}
	return use(p, q, pm, &c) + r + s - c.*pm;
}
`
	sources := map[string]string{"qualified": qualified}
	for _, bm := range bench.All() {
		sources[bm.Name] = bm.Sources[0].Text
	}
	for name, src := range sources {
		orig, reprinted, printed := roundTrip(t, name, src)
		want, got := declaredTypes(orig.Program.Files[0]), declaredTypes(reprinted.Program.Files[0])
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: declared types changed in the round trip:\n--- want ---\n%s\n--- got ---\n%s\n--- printed ---\n%s",
				name, strings.Join(want, "\n"), strings.Join(got, "\n"), printed)
		}
	}
}
