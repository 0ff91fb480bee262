// Package frontend bundles lexing, parsing, and semantic analysis into a
// single entry point: MC++ source text in, typed program out.
package frontend

import (
	"deadmembers/internal/ast"
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
func Compile(sources ...Source) *Result {
	fset := source.NewFileSet()
	diags := source.NewDiagnosticList(fset)

	// Lex every file once and collect its type names, so class names
	// declared in one file are known as type names while parsing the
	// others. Each file's lex diagnostics are reported just before its
	// parse diagnostics.
	srcFiles := make([]*source.File, len(sources))
	toks := make([][]lexer.Token, len(sources))
	lexDiags := make([]*source.DiagnosticList, len(sources))
	allTypes := map[string]bool{}
	for i, s := range sources {
		f := fset.AddFile(s.Name, s.Text)
		srcFiles[i] = f
		if err := f.CheckSize(); err != nil {
			diags.Errorf(f.Pos(0), "%v", err)
			continue
		}
		lexDiags[i] = source.NewDiagnosticList(fset)
		toks[i] = lexer.ScanAll(f, lexDiags[i])
		for name := range parser.TypeNames(f, toks[i]) {
			allTypes[name] = true
		}
	}
	var files []*ast.File
	for i, f := range srcFiles {
		if toks[i] == nil { // oversized, reported above
			files = append(files, &ast.File{Name: f.Name()})
			continue
		}
		diags.Extend(lexDiags[i])
		files = append(files, parser.ParseTokens(f, toks[i], diags, allTypes))
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
