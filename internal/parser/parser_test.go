package parser

import (
	"strings"
	"testing"

	"deadmembers/internal/ast"
	"deadmembers/internal/printer"
	"deadmembers/internal/source"
)

func parse(t *testing.T, src string) (*ast.File, *source.DiagnosticList) {
	t.Helper()
	fset := source.NewFileSet()
	f := fset.AddFile("t.mcc", src)
	diags := source.NewDiagnosticList(fset)
	return ParseFile(f, diags), diags
}

func parseOK(t *testing.T, src string) *ast.File {
	t.Helper()
	file, diags := parse(t, src)
	if diags.HasErrors() {
		t.Fatalf("unexpected parse errors:\n%v", diags)
	}
	return file
}

func firstClass(t *testing.T, file *ast.File) *ast.ClassDecl {
	t.Helper()
	for _, d := range file.Decls {
		if cd, ok := d.(*ast.ClassDecl); ok {
			return cd
		}
	}
	t.Fatal("no class declaration found")
	return nil
}

func TestClassDeclaration(t *testing.T) {
	file := parseOK(t, `
class C : public A, virtual private B {
public:
	int x;
	double y;
	char buf[16];
	int a, b, c;
protected:
	volatile int flags;
private:
	C(int v) : x(v), A(v) {}
	virtual ~C() {}
	virtual int f(int p) { return p; }
	virtual int g() = 0;
	void h();
};
`)
	cd := firstClass(t, file)
	if !cd.Defined || cd.Kind != ast.ClassClass {
		t.Fatalf("unexpected class header: %+v", cd)
	}
	if len(cd.Bases) != 2 || cd.Bases[0].Name != "A" || cd.Bases[0].Virtual ||
		cd.Bases[1].Name != "B" || !cd.Bases[1].Virtual {
		t.Fatalf("bases parsed wrong: %+v", cd.Bases)
	}
	if len(cd.Fields) != 7 {
		t.Fatalf("field count = %d, want 7 (x y buf a b c flags)", len(cd.Fields))
	}
	if _, ok := cd.Fields[2].Type.(*ast.ArrayType); !ok {
		t.Error("buf should have array type")
	}
	if !cd.Fields[6].Volatile {
		t.Error("flags should be volatile")
	}
	if len(cd.Methods) != 5 {
		t.Fatalf("method count = %d, want 5", len(cd.Methods))
	}
	var ctor, dtor, pure, proto *ast.MethodDecl
	for _, m := range cd.Methods {
		switch {
		case m.IsCtor:
			ctor = m
		case m.IsDtor:
			dtor = m
		case m.Pure:
			pure = m
		case m.Body == nil:
			proto = m
		}
	}
	if ctor == nil || len(ctor.Inits) != 2 {
		t.Fatal("constructor with init list not parsed")
	}
	if dtor == nil || !dtor.Virtual {
		t.Fatal("virtual destructor not parsed")
	}
	if pure == nil || !pure.Virtual {
		t.Fatal("pure virtual not parsed")
	}
	if proto == nil {
		t.Fatal("body-less declaration not parsed")
	}
}

func TestStructAndUnion(t *testing.T) {
	file := parseOK(t, `
struct S { int a; };
union U { int i; double d; };
`)
	var kinds []ast.ClassKind
	for _, d := range file.Decls {
		if cd, ok := d.(*ast.ClassDecl); ok {
			kinds = append(kinds, cd.Kind)
		}
	}
	if len(kinds) != 2 || kinds[0] != ast.ClassStruct || kinds[1] != ast.ClassUnion {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestDeclarationVsExpressionAmbiguity(t *testing.T) {
	// `Foo * p;` must be a declaration when Foo is a class, while
	// `a * b;` is a multiplication expression statement.
	file := parseOK(t, `
class Foo { public: int v; };
int main() {
	Foo* p;
	int a = 2;
	int b = 3;
	a * b;
	return 0;
}
`)
	var fn *ast.FuncDecl
	for _, d := range file.Decls {
		if f, ok := d.(*ast.FuncDecl); ok && f.Name == "main" {
			fn = f
		}
	}
	if fn == nil {
		t.Fatal("main not found")
	}
	if _, ok := fn.Body.Stmts[0].(*ast.DeclStmt); !ok {
		t.Errorf("Foo* p; parsed as %T, want DeclStmt", fn.Body.Stmts[0])
	}
	es, ok := fn.Body.Stmts[3].(*ast.ExprStmt)
	if !ok {
		t.Fatalf("a * b; parsed as %T, want ExprStmt", fn.Body.Stmts[3])
	}
	if _, ok := es.X.(*ast.Binary); !ok {
		t.Errorf("a * b; expression is %T, want Binary", es.X)
	}
}

func TestPrecedence(t *testing.T) {
	file := parseOK(t, `int main() { return 1 + 2 * 3 < 4 && 5 == 6 || 7 != 8; }`)
	fn := file.Decls[0].(*ast.FuncDecl)
	ret := fn.Body.Stmts[0].(*ast.ReturnStmt)
	// Top node must be ||.
	top, ok := ret.X.(*ast.Binary)
	if !ok || top.Op.String() != "||" {
		t.Fatalf("top operator = %v, want ||", ret.X)
	}
	left, ok := top.X.(*ast.Binary)
	if !ok || left.Op.String() != "&&" {
		t.Fatalf("left of || = %v, want &&", top.X)
	}
}

func TestMemberAccessForms(t *testing.T) {
	file := parseOK(t, `
class B { public: int m; };
class D : public B { public: int n; };
int main() {
	D d;
	D* p = &d;
	int x = d.n + p->n + d.B::m + p->B::m;
	int D::* pm = &D::n;
	return d.*pm + p->*pm + x;
}
`)
	qualCount, ptrDeref, qualIdent := 0, 0, 0
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Member:
			if x.Qual != "" {
				qualCount++
			}
		case *ast.MemberPtrDeref:
			ptrDeref++
		case *ast.QualifiedIdent:
			qualIdent++
		}
		return true
	})
	if qualCount != 2 {
		t.Errorf("qualified member accesses = %d, want 2", qualCount)
	}
	if ptrDeref != 2 {
		t.Errorf("member-pointer dereferences = %d, want 2", ptrDeref)
	}
	if qualIdent != 1 {
		t.Errorf("qualified identifiers (&D::n) = %d, want 1", qualIdent)
	}
}

func TestCastVsParen(t *testing.T) {
	file := parseOK(t, `
class T { public: int v; };
int main() {
	int a = 1;
	int b = (a) + 2;      // parenthesized expression
	T* p = (T*)0;         // cast
	double d = (double)a; // cast
	return b + (int)d + (p != 0 ? 1 : 0);
}
`)
	casts := 0
	ast.Inspect(file, func(n ast.Node) bool {
		if _, ok := n.(*ast.Cast); ok {
			casts++
		}
		return true
	})
	if casts != 3 {
		t.Errorf("cast count = %d, want 3", casts)
	}
}

func TestNewDeleteForms(t *testing.T) {
	file := parseOK(t, `
class C { public: int v; C(int a) { v = a; } };
int main() {
	C* a = new C(5);
	int* b = new int[10];
	int* c = new int(7);
	delete a;
	delete[] b;
	delete c;
	return 0;
}
`)
	news, arrNews, dels, arrDels := 0, 0, 0, 0
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.New:
			if x.Len != nil {
				arrNews++
			} else {
				news++
			}
		case *ast.Delete:
			if x.Array {
				arrDels++
			} else {
				dels++
			}
		}
		return true
	})
	if news != 2 || arrNews != 1 || dels != 2 || arrDels != 1 {
		t.Errorf("new/new[]/delete/delete[] = %d/%d/%d/%d, want 2/1/2/1", news, arrNews, dels, arrDels)
	}
}

func TestSizeofForms(t *testing.T) {
	file := parseOK(t, `
class C { public: int v; };
int main() {
	C c;
	return sizeof(C) + sizeof(c) + sizeof c.v;
}
`)
	typeForm, exprForm := 0, 0
	ast.Inspect(file, func(n ast.Node) bool {
		if s, ok := n.(*ast.Sizeof); ok {
			if s.Type != nil {
				typeForm++
			} else {
				exprForm++
			}
		}
		return true
	})
	if typeForm != 1 || exprForm != 2 {
		t.Errorf("sizeof(type)/sizeof(expr) = %d/%d, want 1/2", typeForm, exprForm)
	}
}

func TestControlFlowStatements(t *testing.T) {
	parseOK(t, `
int main() {
	for (int i = 0; i < 10; i++) { continue; }
	for (;;) { break; }
	while (1 < 2) { break; }
	do { } while (false);
	switch (3) {
	case 1: return 1;
	case 2:
	case 3: break;
	default: return 9;
	}
	if (true) { } else { }
	;
	return 0;
}
`)
}

func TestOutOfLineDefinitions(t *testing.T) {
	file := parseOK(t, `
class C {
public:
	int v;
	C();
	~C();
	int get();
};
C::C() : v(3) {}
C::~C() {}
int C::get() { return v; }
`)
	cd := firstClass(t, file)
	for _, m := range cd.Methods {
		if m.Body == nil {
			t.Errorf("method %s still has no body after out-of-line definitions", m.Name)
		}
	}
	// Out-of-line definitions do not produce extra top-level decls.
	if len(file.Decls) != 1 {
		t.Errorf("top-level decls = %d, want 1", len(file.Decls))
	}
}

// TestOutOfLineReturnTypeConflict: a definition whose return type differs
// from its in-class declaration is one error, at the definition, naming
// both types; the definition's type is kept, so its body and callers
// raise no follow-on errors.
func TestOutOfLineReturnTypeConflict(t *testing.T) {
	file, diags := parse(t, `class C {
public:
	int v;
	void f(int a);
	const int* g();
	C* h();
};
int C::f(int a) { v = a; return v; }
const int* C::g() { return &v; }
int* C::h() { return &v; }
`)
	want := []string{
		"t.mcc:8:5: error: conflicting return type for C::f: defined as int, declared as void",
		"t.mcc:10:6: error: conflicting return type for C::h: defined as int*, declared as C*",
	}
	if got := strings.Split(strings.TrimSpace(diags.String()), "\n"); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("diagnostics:\n%v\nwant:\n%s", diags, strings.Join(want, "\n"))
	}
	cd := firstClass(t, file)
	if len(cd.Methods) != 3 {
		t.Fatalf("methods = %d, want the three declared", len(cd.Methods))
	}
	for _, m := range cd.Methods {
		if m.Body == nil {
			t.Errorf("%s has no body", m.Name)
		}
	}
	if nt, ok := cd.Methods[0].Return.(*ast.NamedType); !ok || nt.Name != "int" {
		t.Errorf("C::f returns %s, want the definition's int", printer.PrintType(cd.Methods[0].Return))
	}
}

func TestErrorRecovery(t *testing.T) {
	// Multiple independent errors must all be reported (recovery works).
	_, diags := parse(t, `
class A { public: int x }   // missing semicolon after member
int f( { return 1; }        // broken parameter list
int main() { return 0; }
`)
	if !diags.HasErrors() {
		t.Fatal("expected errors")
	}
	if diags.ErrorCount() < 2 {
		t.Errorf("error count = %d, want at least 2 (recovery should find both)", diags.ErrorCount())
	}
}

func TestParserNeverLoopsOnGarbage(t *testing.T) {
	inputs := []string{
		"%%%%", "class", "class ;;;", "int main() { (((((((", "} } }",
		"int main() { a..b; }", "class C : : {};", "new new new",
	}
	for _, src := range inputs {
		file, _ := parse(t, src) // must terminate
		if file == nil {
			t.Errorf("%q: nil file", src)
		}
	}
}

func TestForwardDeclaration(t *testing.T) {
	file := parseOK(t, `
class Later;
class Holder { public: Later* p; };
class Later { public: int v; };
`)
	count := 0
	for _, d := range file.Decls {
		if cd, ok := d.(*ast.ClassDecl); ok && cd.Name == "Later" {
			count++
			if count == 1 && cd.Defined {
				t.Error("forward declaration should not be Defined")
			}
		}
	}
	if count != 2 {
		t.Errorf("Later declared %d times, want 2", count)
	}
}

func TestGlobalVariables(t *testing.T) {
	file := parseOK(t, `
int counter = 0;
double rate = 2.5;
int table[4];
int main() { return counter; }
`)
	vars := 0
	for _, d := range file.Decls {
		if _, ok := d.(*ast.VarDecl); ok {
			vars++
		}
	}
	if vars != 3 {
		t.Errorf("global var count = %d, want 3", vars)
	}
}

func TestDiagnosticMentionsExpectation(t *testing.T) {
	_, diags := parse(t, `int main() { if true) {} return 0; }`)
	if !strings.Contains(diags.String(), "expected (") {
		t.Errorf("diagnostic should mention the expected token:\n%v", diags)
	}
}
