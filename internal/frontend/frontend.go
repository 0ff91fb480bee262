// Package frontend is the MC++ frontend: source text in, typed program
// out. Parse lexes and parses a program's files in order; it is the one
// lex/parse stage, shared by Compile here and by the engine's
// Compilation. Compile adds semantic analysis.
package frontend

import (
	"context"

	"deadmembers/internal/ast"
	"deadmembers/internal/failure"
	"deadmembers/internal/hierarchy"
	"deadmembers/internal/lexer"
	"deadmembers/internal/parser"
	"deadmembers/internal/sema"
	"deadmembers/internal/source"
	"deadmembers/internal/types"
)

// Source is one named MC++ source file.
type Source struct {
	Name string
	Text string
}

// Result is the output of a frontend run.
type Result struct {
	Program *types.Program
	Graph   *hierarchy.Graph
	FileSet *source.FileSet
	Diags   *source.DiagnosticList
}

// Err returns an error if any phase reported errors.
func (r *Result) Err() error { return r.Diags.Err() }

// Compile runs the full frontend over the given sources. The result always
// carries a (possibly partial) program; check Err before trusting it.
// Compile serves tests and benchmarks, which a parser bug should fail,
// so a panic that Parse contained is raised again here.
func Compile(sources ...Source) *Result {
	fset := source.NewFileSet()
	diags := source.NewDiagnosticList(fset)
	files, fails, _ := Parse(context.Background(), fset, diags, sources, nil)
	if len(fails) > 0 {
		panic(fails[0])
	}
	prog, graph := sema.Check(fset, files, diags)
	return &Result{Program: prog, Graph: graph, FileSet: fset, Diags: diags}
}

// MustCompile is Compile but panics on errors; intended for tests and
// embedded corpus programs that are known to be valid.
func MustCompile(sources ...Source) *Result {
	r := Compile(sources...)
	if err := r.Err(); err != nil {
		panic("frontend.MustCompile: " + err.Error())
	}
	return r
}

// Parse adds each source to fset and parses it into its own ast.File,
// one file after another. Every file is lexed once, before any is
// parsed, so a class declared in one file is a type name in all of them.
// Diagnostics go to diags in a fixed order: size errors first, then each
// file's lex diagnostics followed by its parse diagnostics. An oversized
// file parses as empty, and each file's tokens are released once it is
// parsed.
//
// A panic while parsing a file is contained: the file parses as empty,
// the diagnostics its parse reported before the panic stay (its lex
// diagnostics are reported only once its parse starts), and the fault is
// returned as a Failure, in file order. fault, when non-nil, runs inside
// that boundary just before a file is parsed; tests inject panics
// through it.
//
// ctx is checked before each file is lexed or parsed and once at the
// end. If it is cancelled, Parse returns its error; the files are then
// incomplete.
func Parse(ctx context.Context, fset *source.FileSet, diags *source.DiagnosticList, sources []Source, fault func(name string)) ([]*ast.File, []*failure.Failure, error) {
	srcFiles := make([]*source.File, len(sources)) // nil: oversized
	for i, s := range sources {
		f := fset.AddFile(s.Name, s.Text)
		if err := f.CheckSize(); err != nil {
			diags.Errorf(f.Pos(0), "%v", err)
			continue
		}
		srcFiles[i] = f
	}

	toks := make([][]lexer.Token, len(sources))
	lexDiags := make([]*source.DiagnosticList, len(sources))
	allTypes := map[string]bool{}
	for i, f := range srcFiles {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if f == nil {
			continue
		}
		lexDiags[i] = source.NewDiagnosticList(fset)
		toks[i] = lexer.ScanAll(f, lexDiags[i])
		for name := range parser.TypeNames(f, toks[i]) {
			allTypes[name] = true
		}
	}

	files := make([]*ast.File, len(sources))
	var fails []*failure.Failure
	for i, f := range srcFiles {
		if err := ctx.Err(); err != nil {
			return files, fails, err
		}
		name := sources[i].Name
		if f != nil {
			if pf := failure.Catch("parse", name, func() {
				if fault != nil {
					fault(name)
				}
				diags.Extend(lexDiags[i])
				files[i] = parser.ParseTokens(f, toks[i], diags, allTypes)
			}); pf != nil {
				fails = append(fails, pf)
			}
			toks[i] = nil // the AST keeps what it needs
		}
		if files[i] == nil {
			files[i] = &ast.File{Name: name}
		}
	}
	return files, fails, ctx.Err()
}
