package deadmember_test

import (
	"fmt"
	"reflect"
	"testing"

	"deadmembers/internal/ast"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/frontend"
	"deadmembers/internal/printer"
	"deadmembers/internal/source"
	"deadmembers/internal/types"
)

var accessNames = map[deadmember.Access]string{
	deadmember.AccNone:   "none",
	deadmember.AccRead:   "read",
	deadmember.AccWrite:  "write",
	deadmember.AccAddr:   "addr",
	deadmember.AccPath:   "path",
	deadmember.AccDelete: "delete",
}

// recorder renders every event of a walk as one line: the event, the
// node as source would spell it, and its context. A pointer-to-member
// formation records the column of its witness.
type recorder struct {
	fset   *source.FileSet
	events []string
}

func (r *recorder) add(format string, args ...any) {
	r.events = append(r.events, fmt.Sprintf(format, args...))
}

func spell(n ast.Node) string {
	if init, ok := n.(*ast.CtorInit); ok {
		return "init " + init.Name
	}
	return printer.PrintExpr(n.(ast.Expr))
}

func (r *recorder) Field(n ast.Node, f *types.Field, c deadmember.Access) {
	r.add("field %s %s", spell(n), accessNames[c])
}

func (r *recorder) Var(x *ast.Ident, _ *types.Var, c deadmember.Access) {
	r.add("var %s %s", x.Name, accessNames[c])
}

func (r *recorder) MemberPointer(f *types.Field, at source.Pos) {
	r.add("member-pointer %s col %d", f.QualifiedName(), r.fset.Position(at).Column)
}

func (r *recorder) Mutate(n ast.Node, v *types.Var) { r.add("mutate %s of %s", spell(n), v.Name) }

func (r *recorder) Deref(x ast.Expr, c deadmember.Access) {
	r.add("deref %s %s", spell(x), accessNames[c])
}

func (r *recorder) MemberPtrDeref(x *ast.MemberPtrDeref) { r.add("member-ptr-deref %s", spell(x)) }
func (r *recorder) Cast(x *ast.Cast)                     { r.add("cast %s", spell(x)) }
func (r *recorder) Sizeof(x *ast.Sizeof)                 { r.add("sizeof %s", spell(x)) }

// walkProgram is the class every row's statement accesses; probe's body
// is the row's statement.
const walkProgram = `
class In { public: int v; };
class S {
public:
	int a;
	int* p;
	In in;
	int arr[2];
	void* raw;
	S(int x) : a(x), p(nullptr) { in.v = a; }
	int get() { return a; }
};
void probe(S s, S* sp, int i, int S::* pm) {
	%s;
}
int main() { S s(1); probe(s, &s, 0, &S::a); return 0; }
`

// walk compiles walkProgram around stmt and records the walk of the
// named function, with the delete/free special case on or off.
func walk(t *testing.T, stmt, fn string, deleteRule bool) []string {
	t.Helper()
	r := frontend.Compile(frontend.Source{Name: "walk.mcc", Text: fmt.Sprintf(walkProgram, stmt)})
	if err := r.Err(); err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	var f *types.Func
	for _, g := range r.Program.AllFuncs() {
		if g.QualifiedName() == fn {
			f = g
		}
	}
	rec := &recorder{fset: r.Program.FileSet}
	deadmember.Walk(r.Program.Info, f, deleteRule, rec)
	return rec.events
}

// TestWalkEvents maps each statement to the events of the access walk,
// in order: a member before its receiver, a mutation before its target,
// a dereference, o.*p or cast before its operands. Only the delete/free
// special case depends on the rule switch; offDelete lists the events
// without it where they differ.
func TestWalkEvents(t *testing.T) {
	cases := []struct {
		stmt      string
		events    []string
		offDelete []string
	}{
		{"s.a = i", []string{"field s.a write", "var s path", "var i read"}, nil},
		{"i = s.a", []string{"mutate i = s.a of i", "var i write", "field s.a read", "var s read"}, nil},
		{"(s.a) = 1", []string{"field s.a write", "var s path"}, nil},
		{"sp->in.v = 1", []string{"field sp->in.v write", "field sp->in path", "var sp read"}, nil},
		{"i = s.in.v", []string{"mutate i = s.in.v of i", "var i write", "field s.in.v read", "field s.in read", "var s read"}, nil},
		{"sp = &s", []string{"mutate sp = &s of sp", "var sp write", "var s addr"}, nil},
		{"sp->p = &s.in.v", []string{"field sp->p write", "var sp read", "field s.in.v addr", "field s.in path", "var s path"}, nil},
		{"i += s.a", []string{"mutate i += s.a of i", "var i read", "field s.a read", "var s read"}, nil},
		{"++i", []string{"mutate ++i of i", "var i read"}, nil},
		{"i--", []string{"mutate i-- of i", "var i read"}, nil},
		{"s.a++", []string{"field s.a read", "var s read"}, nil},
		{"*s.p = 2", []string{"deref *s.p write", "field s.p read", "var s read"}, nil},
		{"s.arr[i] = 3", []string{"deref s.arr[i] write", "field s.arr path", "var s path", "var i read"}, nil},
		{"i = s.arr[0]", []string{"mutate i = s.arr[0] of i", "var i write", "deref s.arr[0] read", "field s.arr read", "var s read"}, nil},
		{"i = i > 0 ? s.a : sp->a", []string{"mutate i = (i > 0) ? s.a : sp->a of i", "var i write", "var i read", "field s.a read", "var s read", "field sp->a read", "var sp read"}, nil},
		{"i = s.*pm", []string{"mutate i = s.*pm of i", "var i write", "member-ptr-deref s.*pm", "var s path", "var pm read"}, nil},
		{"i = sp->*pm", []string{"mutate i = sp->*pm of i", "var i write", "member-ptr-deref sp->*pm", "var sp read", "var pm read"}, nil},
		{"pm = &S::a", []string{"mutate pm = &S::a of pm", "var pm write", "member-pointer S::a col 7"}, nil},
		{"pm = &(S::a)", []string{"mutate pm = &(S::a) of pm", "var pm write", "member-pointer S::a col 7"}, nil},
		{"i = s.get() + sp->get()", []string{"mutate i = s.get() + sp->get() of i", "var i write", "var s path", "var sp read"}, nil},
		{"i = sizeof(S) + sizeof(s.a)", []string{"mutate i = sizeof(S) + sizeof((s.a)) of i", "var i write", "sizeof sizeof(S)", "sizeof sizeof((s.a))"}, nil},
		{"sp = (S*)s.raw", []string{"mutate sp = (S*)s.raw of sp", "var sp write", "cast (S*)s.raw", "field s.raw read", "var s read"}, nil},
		{"delete sp->p",
			[]string{"field sp->p delete", "var sp read"},
			[]string{"field sp->p read", "var sp read"}},
		{"delete (int*)s.raw",
			[]string{"cast (int*)s.raw", "field s.raw delete", "var s path"},
			[]string{"cast (int*)s.raw", "field s.raw read", "var s read"}},
		{"free(s.raw)",
			[]string{"field s.raw delete", "var s path"},
			[]string{"field s.raw read", "var s read"}},
		{"delete (s.arr[i] == 0 ? sp->p : s.p)",
			[]string{"deref s.arr[i] read", "field s.arr read", "var s read", "var i read", "field sp->p delete", "var sp read", "field s.p delete", "var s path"},
			[]string{"deref s.arr[i] read", "field s.arr read", "var s read", "var i read", "field sp->p read", "var sp read", "field s.p read", "var s read"}},
	}
	for _, c := range cases {
		if got := walk(t, c.stmt, "probe", true); !reflect.DeepEqual(got, c.events) {
			t.Errorf("%s with the delete rule:\n got  %q\n want %q", c.stmt, got, c.events)
		}
		off := c.offDelete
		if off == nil {
			off = c.events
		}
		if got := walk(t, c.stmt, "probe", false); !reflect.DeepEqual(got, off) {
			t.Errorf("%s without the delete rule:\n got  %q\n want %q", c.stmt, got, off)
		}
	}

	// A constructor initializer's field comes before its arguments, and
	// the initializers before the body; implicit-this members are
	// identifiers.
	want := []string{"field init a write", "var x read", "field init p write", "field in.v write", "field in path", "field a read"}
	if got := walk(t, "i = 0", "S::S", true); !reflect.DeepEqual(got, want) {
		t.Errorf("S::S:\n got  %q\n want %q", got, want)
	}
}
