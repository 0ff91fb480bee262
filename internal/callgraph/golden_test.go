package callgraph_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"deadmembers/internal/bench"
	"deadmembers/internal/callgraph"
	"deadmembers/internal/frontend"
)

var update = flag.Bool("update", false, "rewrite the call-graph goldens")

var modes = []callgraph.Mode{callgraph.ALL, callgraph.CHA, callgraph.RTA}

// goldenProgram is one program whose graphs are held to a golden.
type goldenProgram struct {
	id      string // golden file stem
	seed    bool   // a fuzz seed, which may not compile
	sources []frontend.Source
}

// goldenPrograms gathers every program the repository ships: the MC++
// examples and the programs embedded in the Go examples, the top-level
// and per-package testdata, the paper corpus, and the FuzzVMDifferential
// seeds.
func goldenPrograms(t *testing.T) []goldenProgram {
	t.Helper()
	var progs []goldenProgram
	add := func(path string, seed bool, text string) {
		id := strings.NewReplacer("../", "", "/", "_").Replace(path)
		progs = append(progs, goldenProgram{id, seed, []frontend.Source{{Name: filepath.Base(path), Text: text}}})
	}
	for _, pattern := range []string{"../../examples/mcc/*.mcc", "../../testdata/*.mcc", "../*/testdata/*.mcc"} {
		for _, path := range glob(t, pattern) {
			add(path, false, readFile(t, path))
		}
	}
	for _, path := range glob(t, "../../examples/*/main.go") {
		add(path, false, embeddedProgram(t, path))
	}
	for _, path := range glob(t, "../../testdata/fuzz/FuzzVMDifferential/*") {
		add(path, true, seedText(t, path))
	}
	for _, b := range bench.All() {
		progs = append(progs, goldenProgram{"bench_" + b.Name, false, b.Sources})
	}
	return progs
}

func glob(t *testing.T, pattern string) []string {
	t.Helper()
	paths, err := filepath.Glob(pattern)
	if err != nil || len(paths) == 0 {
		t.Fatalf("no programs match %s: %v", pattern, err)
	}
	return paths
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// embeddedProgram returns the `const program` string of a Go example.
func embeddedProgram(t *testing.T, path string) string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, s := range gd.Specs {
			vs := s.(*ast.ValueSpec)
			if len(vs.Names) == 1 && vs.Names[0].Name == "program" && len(vs.Values) == 1 {
				if lit, ok := vs.Values[0].(*ast.BasicLit); ok {
					text, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatalf("%s: %v", path, err)
					}
					return text
				}
			}
		}
	}
	t.Fatalf("%s: no `const program` string", path)
	return ""
}

// seedText decodes a checked-in `go test fuzz v1` file holding one
// string argument.
func seedText(t *testing.T, path string) string {
	t.Helper()
	_, arg, _ := strings.Cut(readFile(t, path), "\n")
	arg = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(arg), "string("), ")")
	text, err := strconv.Unquote(arg)
	if err != nil {
		t.Fatalf("%s: not a one-string fuzz seed: %v", path, err)
	}
	return text
}

// render prints g's reachable, edge and instantiated sets, each sorted,
// so the rendering is independent of construction order (Edges[f] is a
// set; its slice order is not part of the contract).
func render(g *callgraph.Graph) string {
	var reach, edges, inst []string
	for f := range g.Reachable {
		reach = append(reach, f.String())
	}
	for from, tos := range g.Edges {
		for _, to := range tos {
			edges = append(edges, from.String()+" -> "+to.String())
		}
	}
	for c := range g.Instantiated {
		inst = append(inst, c.Name)
	}
	var b strings.Builder
	for _, sec := range []struct {
		name  string
		lines []string
	}{{"reachable", reach}, {"edges", edges}, {"instantiated", inst}} {
		sort.Strings(sec.lines)
		fmt.Fprintf(&b, "-- %s (%d)\n", sec.name, len(sec.lines))
		for _, l := range sec.lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// renderModes renders the graphs of every construction mode.
func renderModes(r *frontend.Result) string {
	var b strings.Builder
	for _, mode := range modes {
		fmt.Fprintf(&b, "== %s\n", mode)
		b.WriteString(render(callgraph.Build(r.Program, r.Graph, callgraph.Options{Mode: mode})))
	}
	return b.String()
}

// checkGolden compares got with testdata/name, or rewrites it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from its golden:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestGoldenGraphs holds the ALL, CHA and RTA graphs of every shipped
// program to goldens: the sorted reachable functions, the sorted edge
// set and the sorted instantiated classes.
func TestGoldenGraphs(t *testing.T) {
	for _, p := range goldenPrograms(t) {
		p := p
		t.Run(p.id, func(t *testing.T) {
			r := frontend.Compile(p.sources...)
			if err := r.Err(); err != nil {
				if p.seed {
					t.Skipf("seed does not compile: %v", err)
				}
				t.Fatalf("compile: %v", err)
			}
			checkGolden(t, p.id+".golden", renderModes(r))
		})
	}
}

// TestGoldenGeneratedDigests holds the graphs of seeded 800- and
// 3,200-class generated programs (the shape the scaled benchmark series
// uses) to a sha256 of their rendering per mode.
func TestGoldenGeneratedDigests(t *testing.T) {
	var b strings.Builder
	for _, classes := range []int{800, 3200} {
		src, _ := bench.Generate(scaledSpec(classes))
		r := frontend.Compile(frontend.Source{Name: "scaled.mcc", Text: src})
		if err := r.Err(); err != nil {
			t.Fatalf("%d classes: %v", classes, err)
		}
		for _, mode := range modes {
			g := callgraph.Build(r.Program, r.Graph, callgraph.Options{Mode: mode})
			fmt.Fprintf(&b, "scaled%d %s %x\n", classes, mode, sha256.Sum256([]byte(render(g))))
		}
	}
	checkGolden(t, "generated.sha256", b.String())
}

// scaledSpec is a generated program of the given class count in the
// scaled benchmark series' shape, under a fixed seed.
func scaledSpec(classes int) bench.Spec {
	return bench.Spec{
		Name: fmt.Sprintf("scaled%d", classes), Description: "generated program",
		Classes: classes, UsedClasses: classes * 3 / 4, Members: classes * 4,
		DeadPercent: 10, Allocations: 10, RetainMod: 1, DeadHeavyClasses: 3,
		Seed: 1,
	}
}
