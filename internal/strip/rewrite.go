package strip

import (
	"deadmembers/internal/ast"
	"deadmembers/internal/types"
)

// rewrite returns the program's files without the stripped members, the
// removed functions and the droppable statements of stripped members. It
// writes nothing of the program: each declaration, statement and list
// that changes is a copy, and everything else is shared.
func (s *stripper) rewrite() []*ast.File {
	// edits maps each declaration that changes to its replacement; a nil
	// replacement removes it.
	edits := map[ast.Node]ast.Node{}
	for f, ok := range s.strippable {
		if ok && f.Decl != nil {
			edits[f.Decl] = nil
		}
	}
	for _, fn := range s.res.Program.AllFuncs() {
		switch {
		case s.removedFuncs[fn]:
			edits[fn.Decl] = nil
		case fn.Body != nil:
			if d := s.rewriteFunc(fn); d != nil {
				edits[fn.Decl] = d
			}
		}
	}

	files := make([]*ast.File, len(s.res.Program.Files))
	for i, file := range s.res.Program.Files {
		files[i] = file
		decls, changed := rewriteList(file.Decls, func(d ast.Decl) ast.Decl {
			if cd, ok := d.(*ast.ClassDecl); ok {
				return rewriteClass(cd, edits)
			}
			return replace(d, edits)
		})
		if changed {
			nf := *file
			nf.Decls = decls
			files[i] = &nf
		}
	}
	return files
}

// rewriteClass returns cd without its edited fields and methods, or cd
// itself when none is edited.
func rewriteClass(cd *ast.ClassDecl, edits map[ast.Node]ast.Node) *ast.ClassDecl {
	fields, fc := rewriteList(cd.Fields, func(f *ast.FieldDecl) *ast.FieldDecl { return replace(f, edits) })
	methods, mc := rewriteList(cd.Methods, func(m *ast.MethodDecl) *ast.MethodDecl { return replace(m, edits) })
	if !fc && !mc {
		return cd
	}
	nc := *cd
	nc.Fields, nc.Methods = fields, methods
	return &nc
}

// replace returns n's replacement in edits: n itself when it has no
// entry, and nil when its entry removes it.
func replace[T ast.Node](n T, edits map[ast.Node]ast.Node) T {
	r, ok := edits[n]
	if !ok {
		return n
	}
	t, _ := r.(T)
	return t
}

// rewriteList maps list through f, dropping the elements f maps to nil.
// It reports whether any element changed, and copies list only then.
func rewriteList[T comparable](list []T, f func(T) T) ([]T, bool) {
	var zero T
	var out []T
	for i, x := range list {
		y := f(x)
		if out == nil {
			if y == x {
				continue
			}
			out = make([]T, i, len(list))
			copy(out, list)
		}
		if y != zero {
			out = append(out, y)
		}
	}
	if out == nil {
		return list, false
	}
	return out, true
}

// rewriteFunc returns a copy of fn's declaration with its body rewritten
// and, for a constructor, the initializer entries of stripped members
// dropped and their effectful arguments hoisted to the front of the body,
// where they are rewritten with it. It returns nil when nothing changes.
func (s *stripper) rewriteFunc(fn *types.Func) ast.Node {
	switch d := fn.Decl.(type) {
	case *ast.FuncDecl:
		if body := s.rewriteBlock(d.Body); body != d.Body {
			nd := *d
			nd.Body = body
			return &nd
		}
	case *ast.MethodDecl:
		inits, hoisted := s.rewriteInits(d.Inits)
		body := d.Body
		if len(hoisted) > 0 {
			nb := *body
			nb.Stmts = append(hoisted, body.Stmts...)
			body = &nb
		}
		// Entries are only ever dropped, so a change shortens the list.
		if body = s.rewriteBlock(body); body != d.Body || len(inits) != len(d.Inits) {
			nd := *d
			nd.Inits, nd.Body = inits, body
			return &nd
		}
	}
	return nil
}

// rewriteInits returns inits without the entries of stripped members
// (inits itself when it keeps them all), and the effectful arguments of
// the dropped entries as statements.
func (s *stripper) rewriteInits(inits []ast.CtorInit) ([]ast.CtorInit, []ast.Stmt) {
	var kept []ast.CtorInit
	var hoisted []ast.Stmt
	for i := range inits {
		init := &inits[i]
		if f := s.info.CtorInitFields[init]; f == nil || !s.strippable[f] {
			if kept != nil {
				kept = append(kept, *init)
			}
			continue
		}
		if kept == nil {
			kept = append(make([]ast.CtorInit, 0, len(inits)), inits[:i]...)
		}
		for _, a := range init.Args {
			if !effectFree(a) {
				es := &ast.ExprStmt{X: a}
				es.SetPos(a.Pos())
				hoisted = append(hoisted, es)
			}
		}
	}
	if kept == nil {
		return inits, nil
	}
	return kept, hoisted
}

// rewriteBlock returns b with its statements rewritten, or b itself when
// none changes.
func (s *stripper) rewriteBlock(b *ast.BlockStmt) *ast.BlockStmt {
	stmts, changed := rewriteList(b.Stmts, s.rewriteStmt)
	if !changed {
		return b
	}
	nb := *b
	nb.Stmts = stmts
	return &nb
}

// rewriteStmt returns st with the droppable statements of stripped
// members taken out: st itself when nothing in it changes, a copy of
// each node on the path to a change otherwise, and nil when st itself
// goes. A nil single-statement body prints as an empty block.
func (s *stripper) rewriteStmt(st ast.Stmt) ast.Stmt {
	switch x := st.(type) {
	case *ast.BlockStmt:
		return s.rewriteBlock(x)
	case *ast.ExprStmt:
		f, _, assign := s.droppable(x.X)
		if f == nil || !s.strippable[f] {
			return st
		}
		// `x.dead = e;` keeps `e;` unless e is effect-free.
		if assign == nil || effectFree(assign.RHS) {
			return nil
		}
		nx := *x
		nx.X = assign.RHS
		return &nx
	case *ast.IfStmt:
		then, els := s.rewriteStmt(x.Then), x.Else
		if els != nil {
			els = s.rewriteStmt(els)
		}
		if then != x.Then || els != x.Else {
			nx := *x
			nx.Then, nx.Else = then, els
			return &nx
		}
	case *ast.WhileStmt:
		if body := s.rewriteStmt(x.Body); body != x.Body {
			nx := *x
			nx.Body = body
			return &nx
		}
	case *ast.DoWhileStmt:
		if body := s.rewriteStmt(x.Body); body != x.Body {
			nx := *x
			nx.Body = body
			return &nx
		}
	case *ast.ForStmt:
		init := x.Init
		if init != nil {
			init = s.rewriteStmt(init)
		}
		if body := s.rewriteStmt(x.Body); init != x.Init || body != x.Body {
			nx := *x
			nx.Init, nx.Body = init, body
			return &nx
		}
	case *ast.SwitchStmt:
		var cases []ast.SwitchCase
		for i := range x.Cases {
			body, changed := rewriteList(x.Cases[i].Body, s.rewriteStmt)
			if !changed {
				continue
			}
			if cases == nil {
				cases = append([]ast.SwitchCase(nil), x.Cases...)
			}
			cases[i].Body = body
		}
		if cases != nil {
			nx := *x
			nx.Cases = cases
			return &nx
		}
	}
	return st
}
