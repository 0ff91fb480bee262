package sema_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"deadmembers/internal/ast"
	"deadmembers/internal/bench"
	"deadmembers/internal/cfg"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/frontend"
	"deadmembers/internal/parser"
	"deadmembers/internal/sema"
	"deadmembers/internal/source"
	"deadmembers/internal/types"
)

// programs returns every shipped MC++ program, each as the sources of
// one compilation: the examples, the repository's testdata programs and
// the eleven corpus programs.
func programs(t *testing.T) map[string][]frontend.Source {
	t.Helper()
	out := map[string][]frontend.Source{}
	for _, pattern := range []string{"../../examples/mcc/*.mcc", "../../testdata/*.mcc"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			text, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			out[path] = []frontend.Source{{Name: filepath.Base(path), Text: string(text)}}
		}
	}
	for _, bm := range bench.All() {
		out[bm.Name] = bm.Sources
	}
	if len(out) < 18 {
		t.Fatalf("found %d programs, want the 4 examples, 3 testdata programs and 11 corpus programs", len(out))
	}
	return out
}

// compile compiles srcs expecting success.
func compile(t *testing.T, name string, srcs []frontend.Source) *frontend.Result {
	t.Helper()
	r := frontend.Compile(srcs...)
	if err := r.Err(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r
}

// numberable walks files and calls f with every expression and
// syntactic type, and with the node it is a direct child of.
func numberable(files []*ast.File, f func(n ast.Numbered, parent ast.Node)) {
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			ast.Inspect(n, func(c ast.Node) bool {
				if c == n {
					return true
				}
				if x, ok := c.(ast.Numbered); ok {
					f(x, n)
				}
				return false
			})
			return true
		})
	}
}

// TestNodeNumbering holds sema's numbering to its contract on every
// shipped program. Every expression and syntactic type is numbered
// except the two kinds sema resolves without recording them in the
// node-indexed tables: a call's callee identifier (a function or method,
// in IdentFuncs or IdentMethods) and an array type's length (a constant
// sema evaluates). The numbers are unique and run densely from 1 to the
// compilation's count, the parser's count bounds the tree, and every
// numbered expression and syntactic type has a type.
func TestNodeNumbering(t *testing.T) {
	for name, srcs := range programs(t) {
		r := compile(t, name, srcs)
		info := r.Program.Info
		parsed := 0
		for _, f := range r.Program.Files {
			parsed += f.Nodes
		}
		seen := map[int]bool{}
		walked := 0
		numberable(r.Program.Files, func(n ast.Numbered, parent ast.Node) {
			walked++
			id := n.ID()
			if id == 0 {
				switch p := parent.(type) {
				case *ast.Call:
					x, ok := n.(*ast.Ident)
					if ok && p.Fun == ast.Expr(x) && (info.IdentFuncs[x] != nil || info.IdentMethods[x] != nil) {
						return
					}
				case *ast.ArrayType:
					if p.Len == n {
						return
					}
				}
				t.Errorf("%s: %T at %v (under %T) is not numbered", name, n, r.FileSet.Position(n.Pos()), parent)
				return
			}
			if id < 0 || id > info.Nodes() {
				t.Errorf("%s: %T has ID %d outside 1..%d", name, n, id, info.Nodes())
			}
			if seen[id] {
				t.Errorf("%s: ID %d stamped on two nodes", name, id)
			}
			seen[id] = true
			switch x := n.(type) {
			case ast.Expr:
				if info.TypeOf(x) == nil {
					t.Errorf("%s: expression %T at %v has no type", name, x, r.FileSet.Position(x.Pos()))
				}
			case ast.TypeExpr:
				if info.TypeExprOf(x) == nil {
					t.Errorf("%s: syntactic type %T at %v has no type", name, x, r.FileSet.Position(x.Pos()))
				}
			}
		})
		if len(seen) != info.Nodes() {
			t.Errorf("%s: %d nodes carry an ID, want the %d numbered (IDs must be dense)", name, len(seen), info.Nodes())
		}
		// The parser's count bounds the tree: an out-of-line definition
		// that fills in a declaration drops the nodes it replaces.
		if walked > parsed {
			t.Errorf("%s: the parser counted %d expressions and syntactic types, the tree holds %d", name, parsed, walked)
		}
	}
}

// TestUnnumberedNodesReadNil: a node sema never numbered, such as one
// built after compilation, reads nil from every accessor, as a map miss
// did.
func TestUnnumberedNodesReadNil(t *testing.T) {
	r := check(t, `
class C { public: int v; int get() { return v; } };
int main() { C c; int x = c.get(); return x; }
`)
	info := r.Program.Info
	id := &ast.Ident{Name: "x"}
	te := &ast.NamedType{Name: "int"}
	if id.ID() != 0 || te.ID() != 0 {
		t.Fatal("a node built by hand must be unnumbered")
	}
	if info.TypeOf(id) != nil || info.VarOf(id) != nil || info.FieldOf(id) != nil || info.TypeExprOf(te) != nil {
		t.Error("an unnumbered node reads a recorded answer")
	}
}

// TestHandBuiltTreeGrowsTables: a hand-built tree carries no parser
// count (File.Nodes is 0), so sema grows its node-indexed tables as it
// records instead of sizing them once.
func TestHandBuiltTreeGrowsTables(t *testing.T) {
	x := &ast.Ident{Name: "x"}
	file := &ast.File{Name: "gen.mcc", Decls: []ast.Decl{
		&ast.FuncDecl{
			Name:   "main",
			Return: &ast.NamedType{Name: "int"},
			Body: &ast.BlockStmt{Stmts: []ast.Stmt{
				&ast.DeclStmt{Var: &ast.VarDecl{Name: "x", Type: &ast.NamedType{Name: "int"}, Init: &ast.IntLit{Value: 1}}},
				&ast.ReturnStmt{X: &ast.Paren{X: x}},
			}},
		},
	}}
	fset := source.NewFileSet()
	fset.AddFile("gen.mcc", "")
	diags := source.NewDiagnosticList(fset)
	prog, _ := sema.Check(fset, []*ast.File{file}, diags)
	if diags.HasErrors() {
		t.Fatal(diags.String())
	}
	info := prog.Info
	if info.Nodes() != 5 {
		t.Errorf("numbered %d nodes, want 5 (two types, the literal, the paren and the identifier)", info.Nodes())
	}
	if info.TypeOf(x) != types.IntType || info.VarOf(x) == nil || info.VarOf(x).Name != "x" {
		t.Errorf("x: type %v, var %v; want int and the local x", info.TypeOf(x), info.VarOf(x))
	}
}

// answers lists, in walk order, every numbered node with what the
// compilation's Info says of it, spelled without pointers so two
// compilations can be compared.
func answers(prog *types.Program) []string {
	info := prog.Info
	var out []string
	numberable(prog.Files, func(n ast.Numbered, _ ast.Node) {
		if n.ID() == 0 {
			return
		}
		var typ types.Type
		switch x := n.(type) {
		case ast.Expr:
			typ = info.TypeOf(x)
		case ast.TypeExpr:
			typ = info.TypeExprOf(x)
		}
		line := fmt.Sprintf("%d %T @%d type=%v", n.ID(), n, n.Pos(), typ)
		if x, ok := n.(*ast.Ident); ok {
			if v := info.VarOf(x); v != nil {
				line += fmt.Sprintf(" var=%s@%d", v.Name, v.Pos)
			}
			if f := info.FieldOf(x); f != nil {
				line += " field=" + f.QualifiedName()
			}
		}
		out = append(out, line)
	})
	return out
}

// TestNumberingDeterministic: two compilations of the same sources, and
// a second sema.Check over freshly parsed files, number every node alike
// and give node-for-node equal answers.
func TestNumberingDeterministic(t *testing.T) {
	for name, srcs := range programs(t) {
		want := answers(compile(t, name, srcs).Program)
		again := answers(compile(t, name, srcs).Program)

		fset := source.NewFileSet()
		diags := source.NewDiagnosticList(fset)
		var files []*source.File
		typeNames := map[string]bool{}
		for _, s := range srcs {
			f := fset.AddFile(s.Name, s.Text)
			files = append(files, f)
			for n := range parser.CollectTypeNames(f) {
				typeNames[n] = true
			}
		}
		var asts []*ast.File
		for _, f := range files {
			asts = append(asts, parser.ParseFileWithTypes(f, diags, typeNames))
		}
		prog, _ := sema.Check(fset, asts, diags)
		if diags.HasErrors() {
			t.Fatalf("%s: %s", name, diags.String())
		}
		rechecked := answers(prog)

		for label, got := range map[string][]string{"second compilation": again, "re-parsed sema.Check": rechecked} {
			if len(got) != len(want) {
				t.Errorf("%s: %s numbered %d nodes, first compilation %d", name, label, len(got), len(want))
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s: %s differs at node %d:\n got %s\nwant %s", name, label, i, got[i], want[i])
					break
				}
			}
		}
	}
}

// rangeCheck is a deadmember.Visitor that holds every node the access
// walk reports for one function, and the receiver of every member
// access it reports (which lint indexes too), to the function's
// recorded node range.
type rangeCheck struct {
	t    *testing.T
	name string
	f    *types.Func
	fset *source.FileSet
}

func (c *rangeCheck) in(n ast.Node) {
	if id := n.ID(); id < c.f.NodeLo || id > c.f.NodeHi {
		c.t.Errorf("%s: %s: %T at %v has ID %d outside its range %d..%d",
			c.name, c.f.QualifiedName(), n, c.fset.Position(n.Pos()), id, c.f.NodeLo, c.f.NodeHi)
	}
}

func (c *rangeCheck) Field(n ast.Node, _ *types.Field, _ deadmember.Access) {
	switch x := n.(type) {
	case *ast.Member:
		c.in(x)
		c.in(ast.Unparen(x.X))
	case *ast.Ident:
		c.in(x)
	}
}
func (c *rangeCheck) Var(x *ast.Ident, _ *types.Var, _ deadmember.Access) { c.in(x) }
func (c *rangeCheck) MemberPointer(*types.Field, source.Pos)              {}
func (c *rangeCheck) Mutate(n ast.Node, _ *types.Var)                     { c.in(n) }
func (c *rangeCheck) Deref(x ast.Expr, _ deadmember.Access)               { c.in(x) }
func (c *rangeCheck) MemberPtrDeref(x *ast.MemberPtrDeref)                { c.in(x) }
func (c *rangeCheck) Cast(x *ast.Cast)                                    { c.in(x) }
func (c *rangeCheck) Sizeof(x *ast.Sizeof)                                { c.in(x) }

// fuzzSeeds returns the fuzz targets' seed programs: the lint and CFG
// fixtures, the inline seeds, and the checked-in fuzz corpora.
func fuzzSeeds(t *testing.T) map[string][]frontend.Source {
	t.Helper()
	out := map[string][]frontend.Source{
		"seed:empty-main": {{Name: "fuzz.mcc", Text: "int main() { return 0; }"}},
		"seed:ctor-init":  {{Name: "fuzz.mcc", Text: "class C { public: int x; C() : x(1) {} }; int main() { C c; return c.x; }"}},
	}
	for _, pattern := range []string{"../lint/testdata/*.mcc", "../cfg/testdata/*.mcc", "../../testdata/fuzz/*/*"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			text, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			src := string(text)
			if rest, ok := strings.CutPrefix(src, "go test fuzz v1\n"); ok {
				// One string("...") argument per corpus entry.
				rest = strings.TrimSpace(rest)
				lit, ok := strings.CutPrefix(rest, "string(")
				if !ok || !strings.HasSuffix(lit, ")") {
					continue
				}
				if src, err = strconv.Unquote(strings.TrimSuffix(lit, ")")); err != nil {
					t.Fatalf("%s: %v", path, err)
				}
			}
			out[path] = []frontend.Source{{Name: filepath.Base(path), Text: src}}
		}
	}
	return out
}

// TestFuncNodeRanges: sema numbers each function's initializers and
// body in one run, NodeLo..NodeHi, and the runs of two functions never
// overlap. Every node the access walk reports for a function, every
// receiver of a member access it reports, and every numbered CFG atom
// lies in the function's run, so lint's per-function fact tables,
// indexed by ID - NodeLo, hold every node they are asked about. The
// check covers the shipped programs and the fuzz targets' seeds.
func TestFuncNodeRanges(t *testing.T) {
	all := programs(t)
	for name, srcs := range fuzzSeeds(t) {
		all[name] = srcs
	}
	checked := 0
	for name, srcs := range all {
		r := frontend.Compile(srcs...)
		if r.Err() != nil {
			continue // a fuzz seed that is meant to be rejected
		}
		info := r.Program.Info
		var runs [][2]int
		for _, f := range r.Program.AllFuncs() {
			if f.Body == nil {
				continue
			}
			if f.NodeLo < 1 || f.NodeHi > info.Nodes() || f.NodeLo > f.NodeHi+1 {
				t.Errorf("%s: %s: range %d..%d outside 1..%d", name, f.QualifiedName(), f.NodeLo, f.NodeHi, info.Nodes())
			}
			if f.NodeLo <= f.NodeHi {
				runs = append(runs, [2]int{f.NodeLo, f.NodeHi})
			}
			c := &rangeCheck{t: t, name: name, f: f, fset: r.FileSet}
			deadmember.Walk(info, f, false, c)
			deadmember.Walk(info, f, true, c)
			if g := cfg.Build(f); g != nil {
				for _, n := range g.Atoms {
					if n.ID() != 0 {
						c.in(n)
					}
				}
			}
			checked++
		}
		slices.SortFunc(runs, func(a, b [2]int) int { return a[0] - b[0] })
		for i := 1; i < len(runs); i++ {
			if runs[i][0] <= runs[i-1][1] {
				t.Errorf("%s: node ranges %v and %v overlap", name, runs[i-1], runs[i])
			}
		}
	}
	if checked < 100 {
		t.Fatalf("checked %d functions; the programs did not compile", checked)
	}
}
