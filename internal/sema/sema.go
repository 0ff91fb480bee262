// Package sema implements semantic analysis for MC++: symbol collection,
// class-hierarchy resolution, and type checking of all function bodies.
//
// Check produces a types.Program whose Info side tables bind every AST
// expression to its type and every member access to the data member or
// method selected by C++ member lookup — exactly the information the
// dead-data-member algorithm of the paper consumes.
package sema

import (
	"deadmembers/internal/ast"
	"deadmembers/internal/hierarchy"
	"deadmembers/internal/source"
	"deadmembers/internal/types"
)

// Checker holds the state of one semantic-analysis run.
type Checker struct {
	prog      *types.Program
	info      *types.Info
	graph     *hierarchy.Graph
	diags     *source.DiagnosticList
	scopes    []map[string]*types.Var
	cur       *types.Func // function currently being checked
	loops     int         // loops enclosing the statement being checked
	switches  int         // switches enclosing the statement being checked
	exprDepth int         // current checkExpr recursion depth
	tooDeep   bool        // depth-limit diagnostic already reported
}

// MaxExprDepth caps expression recursion in the checker. It sits above the
// parser's nesting limit, so it only trips for ASTs built directly rather
// than parsed — a second line of defense against stack overflow.
const MaxExprDepth = 2000

// Check runs semantic analysis over the parsed files. It always returns a
// program (possibly partial if diags records errors) and the hierarchy
// graph built from its classes.
func Check(fset *source.FileSet, files []*ast.File, diags *source.DiagnosticList) (*types.Program, *hierarchy.Graph) {
	nodes := 0
	for _, f := range files {
		nodes += f.Nodes
	}
	c := &Checker{
		prog: &types.Program{
			FileSet:     fset,
			Files:       files,
			ClassByName: map[string]*types.Class{},
			FuncByName:  map[string]*types.Func{},
			Info:        types.NewInfo(nodes),
		},
		diags: diags,
	}
	c.info = c.prog.Info
	c.declareBuiltins()
	c.collect()
	c.resolveClasses()
	c.graph = hierarchy.New(c.prog.Classes)
	c.resolveSignatures()
	c.checkBodies()
	return c.prog, c.graph
}

// Builtin runtime functions. Their argument checking is special-cased in
// checkCall; Params here document the canonical shape.
var builtinSpecs = []struct {
	name   string
	ret    types.Type
	params []types.Type
}{
	{"print", types.VoidType, nil},
	{"println", types.VoidType, nil},
	{"malloc", &types.Pointer{Elem: types.VoidType}, []types.Type{types.IntType}},
	{"free", types.VoidType, []types.Type{&types.Pointer{Elem: types.VoidType}}},
	{"rand_seed", types.VoidType, []types.Type{types.IntType}},
	{"rand_next", types.IntType, []types.Type{types.IntType}},
	{"clock", types.IntType, nil},
	{"abort", types.VoidType, nil},
}

func (c *Checker) declareBuiltins() {
	for _, spec := range builtinSpecs {
		f := &types.Func{Name: spec.name, Return: spec.ret, Builtin: true}
		for _, pt := range spec.params {
			f.Params = append(f.Params, &types.Var{Name: "", Type: pt})
		}
		c.prog.Builtins = append(c.prog.Builtins, f)
		c.prog.FuncByName[spec.name] = f
	}
}

// collect registers every top-level name: classes (merging forward
// declarations), free functions, and globals.
func (c *Checker) collect() {
	for _, f := range c.prog.Files {
		for _, d := range f.Decls {
			switch decl := d.(type) {
			case *ast.ClassDecl:
				c.collectClass(decl)
			case *ast.FuncDecl:
				c.collectFunc(decl)
			case *ast.VarDecl:
				c.collectGlobal(decl)
			}
		}
	}
	if f, ok := c.prog.FuncByName["main"]; ok && !f.Builtin {
		c.prog.Main = f
	}
}

func (c *Checker) collectClass(decl *ast.ClassDecl) {
	existing := c.prog.ClassByName[decl.Name]
	if existing == nil {
		cls := &types.Class{
			Name: decl.Name,
			Kind: types.ClassKind(decl.Kind),
			Pos:  decl.Pos(),
		}
		c.prog.ClassByName[decl.Name] = cls
		c.prog.Classes = append(c.prog.Classes, cls)
		existing = cls
	}
	if !decl.Defined {
		return
	}
	if existing.Complete {
		c.diags.Errorf(decl.Pos(), "class %s redefined", decl.Name)
		return
	}
	existing.Complete = true
	existing.Decl = decl
	existing.Kind = types.ClassKind(decl.Kind)
}

func (c *Checker) collectFunc(decl *ast.FuncDecl) {
	if prev, ok := c.prog.FuncByName[decl.Name]; ok {
		if prev.Builtin {
			c.diags.Errorf(decl.Pos(), "function %s conflicts with builtin", decl.Name)
			return
		}
		if prev.Body == nil && decl.Body != nil {
			prev.Body = decl.Body
			prev.Decl = decl
			// Rebind parameter names from the defining declaration.
			prev.Params = nil
			for _, p := range decl.Params {
				prev.Params = append(prev.Params, &types.Var{Name: p.Name, Pos: p.Pos()})
			}
			return
		}
		if decl.Body != nil && prev.Body != nil {
			c.diags.Errorf(decl.Pos(), "function %s redefined", decl.Name)
		}
		return
	}
	f := &types.Func{Name: decl.Name, Pos: decl.Pos(), Body: decl.Body, Decl: decl}
	for _, p := range decl.Params {
		f.Params = append(f.Params, &types.Var{Name: p.Name, Pos: p.Pos()})
	}
	c.prog.FuncByName[decl.Name] = f
	c.prog.Functions = append(c.prog.Functions, f)
}

func (c *Checker) collectGlobal(decl *ast.VarDecl) {
	v := &types.Var{Name: decl.Name, Global: true, Pos: decl.Pos(), Decl: decl}
	c.prog.Globals = append(c.prog.Globals, v)
	c.info.VarObjects[decl] = v
}

// resolveClasses resolves base-class lists, detects inheritance cycles,
// enforces union restrictions, and populates fields and method shells.
func (c *Checker) resolveClasses() {
	for _, cls := range c.prog.Classes {
		if !cls.Complete {
			c.diags.Errorf(cls.Pos, "class %s declared but never defined", cls.Name)
			continue
		}
		decl := cls.Decl
		for i := range decl.Bases {
			bs := &decl.Bases[i]
			base := c.prog.ClassByName[bs.Name]
			if base == nil {
				c.diags.Errorf(bs.Pos(), "unknown base class %s", bs.Name)
				continue
			}
			if base == cls {
				c.diags.Errorf(bs.Pos(), "class %s cannot derive from itself", cls.Name)
				continue
			}
			if base.IsUnion() || cls.IsUnion() {
				c.diags.Errorf(bs.Pos(), "unions cannot participate in inheritance")
				continue
			}
			cls.Bases = append(cls.Bases, types.Base{Class: base, Virtual: bs.Virtual})
		}
	}
	c.breakInheritanceCycles()

	fieldID := 0
	for _, cls := range c.prog.Classes {
		if !cls.Complete {
			continue
		}
		decl := cls.Decl
		for i, fd := range decl.Fields {
			ft := c.resolveType(fd.Type)
			if fc := types.IsClass(ft); fc != nil && !fc.Complete {
				c.diags.Errorf(fd.Pos(), "field %s has incomplete type %s", fd.Name, fc.Name)
			}
			if cls.FieldByName(fd.Name) != nil {
				c.diags.Errorf(fd.Pos(), "duplicate member %s in class %s", fd.Name, cls.Name)
				continue
			}
			fld := &types.Field{
				Name: fd.Name, Type: ft, Volatile: fd.Volatile,
				Owner: cls, Index: i, Pos: fd.Pos(), Decl: fd,
			}
			fld.Index = len(cls.Fields)
			fld.ID = fieldID
			fieldID++
			cls.Fields = append(cls.Fields, fld)
		}
		for _, md := range decl.Methods {
			if md.IsDtor && cls.Dtor() != nil {
				c.diags.Errorf(md.Pos(), "class %s has multiple destructors", cls.Name)
				continue
			}
			if !md.IsCtor && !md.IsDtor && cls.MethodByName(md.Name) != nil {
				c.diags.Errorf(md.Pos(), "duplicate method %s in class %s (MC++ has no overloading)", md.Name, cls.Name)
				continue
			}
			if md.IsCtor && cls.CtorByArity(len(md.Params)) != nil {
				c.diags.Errorf(md.Pos(), "class %s has duplicate %d-argument constructor", cls.Name, len(md.Params))
				continue
			}
			if md.Virtual && cls.IsUnion() {
				c.diags.Errorf(md.Pos(), "union member function cannot be virtual")
			}
			m := &types.Func{
				Name: md.Name, Owner: cls, Virtual: md.Virtual, Pure: md.Pure,
				IsCtor: md.IsCtor, IsDtor: md.IsDtor, Pos: md.Pos(),
				Body: md.Body, Inits: md.Inits, Decl: md,
			}
			for _, p := range md.Params {
				m.Params = append(m.Params, &types.Var{Name: p.Name, Pos: p.Pos()})
			}
			cls.Methods = append(cls.Methods, m)
		}
	}

	// Check that field types do not embed a class inside itself (directly
	// or transitively), which would make layout infinite.
	c.checkEmbeddingCycles()
}

// breakInheritanceCycles detects cycles in the base-class graph and cuts
// them, reporting an error for each cut edge.
func (c *Checker) breakInheritanceCycles() {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[*types.Class]int{}
	var visit func(*types.Class)
	visit = func(cls *types.Class) {
		color[cls] = grey
		kept := cls.Bases[:0]
		for _, b := range cls.Bases {
			switch color[b.Class] {
			case grey:
				c.diags.Errorf(cls.Pos, "inheritance cycle: %s derives from %s", cls.Name, b.Class.Name)
				continue // drop the edge
			case white:
				visit(b.Class)
			}
			kept = append(kept, b)
		}
		cls.Bases = kept
		color[cls] = black
	}
	for _, cls := range c.prog.Classes {
		if color[cls] == white {
			visit(cls)
		}
	}
}

// checkEmbeddingCycles rejects class-typed members that embed the class in
// itself.
func (c *Checker) checkEmbeddingCycles() {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[*types.Class]int{}
	var visit func(*types.Class) bool
	visit = func(cls *types.Class) bool {
		color[cls] = grey
		ok := true
		check := func(t types.Type, pos source.Pos, what string) {
			// Only direct embedding (class or array-of-class) recurses;
			// pointers break cycles.
			for {
				if a, isArr := t.(*types.Array); isArr {
					t = a.Elem
					continue
				}
				break
			}
			if ec := types.IsClass(t); ec != nil {
				switch color[ec] {
				case grey:
					c.diags.Errorf(pos, "%s embeds class %s inside itself", what, ec.Name)
					ok = false
				case white:
					visit(ec)
				}
			}
		}
		for _, f := range cls.Fields {
			check(f.Type, f.Pos, "field "+f.QualifiedName())
		}
		for _, b := range cls.Bases {
			if color[b.Class] == white {
				visit(b.Class)
			}
		}
		color[cls] = black
		return ok
	}
	for _, cls := range c.prog.Classes {
		if color[cls] == white {
			visit(cls)
		}
	}
}

// resolveSignatures resolves parameter/return/global/field types that
// could not be resolved before all classes existed.
func (c *Checker) resolveSignatures() {
	for _, f := range c.prog.Functions {
		c.resolveFuncSignature(f)
	}
	for _, cls := range c.prog.Classes {
		for _, m := range cls.Methods {
			c.resolveFuncSignature(m)
		}
	}
	for _, g := range c.prog.Globals {
		t := c.resolveType(g.Decl.Type)
		g.Type = t
		c.info.VarTypes[g.Decl] = t
	}
}

func (c *Checker) resolveFuncSignature(f *types.Func) {
	var declParams []ast.Param
	var declRet ast.TypeExpr
	switch d := f.Decl.(type) {
	case *ast.FuncDecl:
		declParams, declRet = d.Params, d.Return
	case *ast.MethodDecl:
		declParams, declRet = d.Params, d.Return
	}
	for i, p := range declParams {
		if i < len(f.Params) {
			f.Params[i].Type = c.resolveType(p.Type)
		}
	}
	if declRet != nil {
		f.Return = c.resolveType(declRet)
	} else if !f.IsCtor && !f.IsDtor {
		f.Return = types.VoidType
	}
}

// resolveType converts a syntactic type to a semantic one, recording it in
// Info (see Info.TypeExprOf). Errors yield IntType to keep checking going.
func (c *Checker) resolveType(te ast.TypeExpr) types.Type {
	t := c.resolveType1(te)
	c.info.SetTypeExpr(te, t)
	return t
}

func (c *Checker) resolveType1(te ast.TypeExpr) types.Type {
	switch x := te.(type) {
	case *ast.NamedType:
		switch x.Name {
		case "void":
			return types.VoidType
		case "bool":
			return types.BoolType
		case "char":
			return types.CharType
		case "int":
			return types.IntType
		case "double":
			return types.DoubleType
		}
		if cls, ok := c.prog.ClassByName[x.Name]; ok {
			return cls
		}
		c.diags.Errorf(x.Pos(), "unknown type %s", x.Name)
		return types.IntType
	case *ast.PointerType:
		return &types.Pointer{Elem: c.resolveType(x.Elem)}
	case *ast.ArrayType:
		n := c.constIntValue(x.Len)
		if n <= 0 {
			c.diags.Errorf(x.Pos(), "array length must be a positive integer constant")
			n = 1
		}
		return &types.Array{Elem: c.resolveType(x.Elem), Len: n}
	case *ast.MemberPointerType:
		cls, ok := c.prog.ClassByName[x.Class]
		if !ok {
			c.diags.Errorf(x.Pos(), "unknown class %s in member-pointer type", x.Class)
			return types.IntType
		}
		return &types.MemberPointer{Class: cls, Elem: c.resolveType(x.Elem)}
	case *ast.QualType:
		// cv-qualifiers do not change the semantic type in MC++;
		// volatility of fields is tracked on the Field object.
		return c.resolveType(x.Base)
	}
	c.diags.Errorf(te.Pos(), "unsupported type expression")
	return types.IntType
}

// constIntValue evaluates a constant integer expression (literals and
// basic arithmetic), returning -1 if not constant.
func (c *Checker) constIntValue(e ast.Expr) int {
	switch x := ast.Unparen(e).(type) {
	case *ast.IntLit:
		return int(x.Value)
	case *ast.CharLit:
		return int(x.Value)
	case *ast.Binary:
		l := c.constIntValue(x.X)
		r := c.constIntValue(x.Y)
		if l < 0 || r < 0 {
			return -1
		}
		switch x.Op.String() {
		case "+":
			return l + r
		case "-":
			return l - r
		case "*":
			return l * r
		case "/":
			if r != 0 {
				return l / r
			}
		}
	}
	return -1
}

// ---------------------------------------------------------------------------
// Scopes

func (c *Checker) pushScope() { c.scopes = append(c.scopes, map[string]*types.Var{}) }
func (c *Checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *Checker) declare(v *types.Var) {
	if len(c.scopes) == 0 {
		return
	}
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[v.Name]; dup {
		c.diags.Errorf(v.Pos, "redeclaration of %s in the same scope", v.Name)
	}
	top[v.Name] = v
}

func (c *Checker) lookupVar(name string) *types.Var {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if v, ok := c.scopes[i][name]; ok {
			return v
		}
	}
	for _, g := range c.prog.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}
