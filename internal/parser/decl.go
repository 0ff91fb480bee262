package parser

import (
	"deadmembers/internal/ast"
	"deadmembers/internal/printer"
	"deadmembers/internal/token"
)

// parseFile parses the whole token stream into an ast.File.
func (p *Parser) parseFile() *ast.File {
	f := &ast.File{Name: p.file.Name()}
	setPos(f, p.file.Pos(0))
	for !p.at(token.EOF) {
		before := p.pos
		d := p.parseTopLevel(f)
		if d != nil {
			f.Decls = append(f.Decls, d)
		}
		if p.pos == before { // no progress: skip a token to guarantee termination
			p.next()
			p.panick = false
		}
	}
	f.Nodes = p.nodes
	return f
}

// parseTopLevel parses one top-level declaration. Out-of-line method
// definitions (`int C::f() {...}`, `C::C() {...}`, `C::~C() {...}`) are
// attached to the class declared earlier in the same file and nil is
// returned for them.
func (p *Parser) parseTopLevel(f *ast.File) ast.Decl {
	p.panick = false // each top-level declaration may report fresh errors
	switch p.kind() {
	case token.KwClass, token.KwStruct, token.KwUnion:
		return p.parseClass()
	case token.Semicolon:
		p.next()
		return nil
	}

	// Out-of-line constructor or destructor: C::C(... / C::~C(...
	if p.at(token.Ident) && p.peek(1).Kind == token.Scope &&
		(p.peek(2).Kind == token.Tilde || (p.peek(2).Kind == token.Ident && p.peek(2).Text(p.file) == p.cur().Text(p.file))) {
		p.parseOutOfLineSpecial(f)
		return nil
	}

	if !p.startsType() {
		p.errorf("expected declaration, found %s", p.found())
		p.sync()
		return nil
	}
	typ := p.parseType()

	// Out-of-line method: Type C::name(...) { ... }
	if p.at(token.Ident) && p.peek(1).Kind == token.Scope {
		p.parseOutOfLineMethod(f, typ)
		return nil
	}

	name := p.expect(token.Ident)
	if p.at(token.LParen) && p.parenStartsParams() {
		// Free function definition or declaration.
		fn := &ast.FuncDecl{Name: name.Text(p.file), Return: typ}
		setPos(fn, name.Pos)
		fn.Params = p.parseParams()
		if p.accept(token.Semicolon) {
			return fn // body-less prototype
		}
		fn.Body = p.parseBlock()
		return fn
	}
	// Global variable (possibly with constructor arguments).
	return p.finishVar(name.Text(p.file), typ)
}

// parenStartsParams disambiguates `T name(...)` at the top level: a
// parameter list starts with a type (or is empty), while constructor
// arguments of a global variable start with an expression — C++'s "most
// vexing parse", resolved the useful way.
func (p *Parser) parenStartsParams() bool {
	next := p.peek(1)
	switch next.Kind {
	case token.RParen, token.KwVoid, token.KwBool, token.KwChar, token.KwInt,
		token.KwDouble, token.KwConst, token.KwVolatile:
		return true
	case token.Ident:
		return p.types[next.Text(p.file)]
	}
	return false
}

// finishVar parses the remainder of a variable declaration after the type
// and name: optional array suffix, optional initializer, terminating
// semicolon.
func (p *Parser) finishVar(name string, typ ast.TypeExpr) *ast.VarDecl {
	v := &ast.VarDecl{Name: name, Type: typ}
	setPos(v, p.cur().Pos)
	// Array suffixes: T x[3]; T x[3][4] is not supported (single dimension).
	if p.at(token.LBracket) {
		lb := p.next()
		length := p.parseExpr()
		p.expect(token.RBracket)
		at := &ast.ArrayType{Elem: v.Type, Len: length}
		p.exprPos(at, lb.Pos)
		v.Type = at
	}
	switch {
	case p.accept(token.Assign):
		v.Init = p.parseAssignExpr()
	case p.at(token.LParen):
		p.next()
		v.HasCtor = true
		if !p.at(token.RParen) {
			v.CtorArgs = append(v.CtorArgs, p.parseAssignExpr())
			for p.accept(token.Comma) {
				v.CtorArgs = append(v.CtorArgs, p.parseAssignExpr())
			}
		}
		p.expect(token.RParen)
	}
	p.expect(token.Semicolon)
	return v
}

// parseParams parses `( T a, U* b, ... )`.
func (p *Parser) parseParams() []ast.Param {
	p.expect(token.LParen)
	var params []ast.Param
	if p.accept(token.RParen) {
		return params
	}
	// Accept C-style `(void)` empty parameter list.
	if p.at(token.KwVoid) && p.peek(1).Kind == token.RParen {
		p.next()
		p.next()
		return params
	}
	for {
		start := p.cur().Pos
		typ := p.parseType()
		var name string
		if p.at(token.Ident) {
			name = p.next().Text(p.file)
		}
		if p.at(token.LBracket) { // array parameter decays to pointer
			lb := p.next()
			if !p.at(token.RBracket) {
				p.parseExpr() // size is parsed and ignored
			}
			p.expect(token.RBracket)
			pt := &ast.PointerType{Elem: typ}
			p.exprPos(pt, lb.Pos)
			typ = pt
		}
		prm := ast.Param{Name: name, Type: typ}
		setPos(&prm, start)
		params = append(params, prm)
		if !p.accept(token.Comma) {
			break
		}
	}
	p.expect(token.RParen)
	return params
}

// parseClass parses a class/struct/union declaration (or forward
// declaration, which yields a body-less ClassDecl).
func (p *Parser) parseClass() ast.Decl {
	kw := p.next()
	var kind ast.ClassKind
	switch kw.Kind {
	case token.KwStruct:
		kind = ast.ClassStruct
	case token.KwUnion:
		kind = ast.ClassUnion
	default:
		kind = ast.ClassClass
	}
	name := p.expect(token.Ident)
	cd := &ast.ClassDecl{Kind: kind, Name: name.Text(p.file)}
	setPos(cd, kw.Pos)

	if p.accept(token.Semicolon) {
		return cd // forward declaration
	}

	if p.accept(token.Colon) {
		for {
			start := p.cur().Pos
			virt := false
			for {
				if p.accept(token.KwVirtual) {
					virt = true
					continue
				}
				if p.at(token.KwPublic) || p.at(token.KwPrivate) || p.at(token.KwProtected) {
					p.next() // access specifiers parsed, not enforced
					continue
				}
				break
			}
			base := p.expect(token.Ident)
			bs := ast.BaseSpec{Virtual: virt, Name: base.Text(p.file)}
			setPos(&bs, start)
			cd.Bases = append(cd.Bases, bs)
			if !p.accept(token.Comma) {
				break
			}
		}
	}

	p.expect(token.LBrace)
	cd.Defined = true
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		before := p.pos
		p.parseMember(cd)
		if p.pos == before {
			p.next()
			p.panick = false
		}
	}
	p.expect(token.RBrace)
	p.expect(token.Semicolon)
	return cd
}

// parseMember parses one member of a class body and appends it to cd.
func (p *Parser) parseMember(cd *ast.ClassDecl) {
	p.panick = false // each member may report fresh errors
	// Access specifier labels.
	if p.at(token.KwPublic) || p.at(token.KwPrivate) || p.at(token.KwProtected) {
		p.next()
		p.expect(token.Colon)
		return
	}
	if p.accept(token.Semicolon) {
		return
	}

	// Destructor: ~C() { ... }
	if p.at(token.Tilde) {
		tl := p.next()
		name := p.expect(token.Ident)
		if name.Text(p.file) != cd.Name {
			p.errorf("destructor name ~%s does not match class %s", name.Text(p.file), cd.Name)
		}
		m := &ast.MethodDecl{Name: "~" + cd.Name, IsDtor: true}
		setPos(m, tl.Pos)
		m.Params = p.parseParams()
		p.finishMethodBody(m)
		cd.Methods = append(cd.Methods, m)
		return
	}

	virt := false
	for p.accept(token.KwVirtual) {
		virt = true
	}

	// Constructor: C(...) : inits { ... }
	if p.at(token.Ident) && p.cur().Text(p.file) == cd.Name && p.peek(1).Kind == token.LParen {
		name := p.next()
		m := &ast.MethodDecl{Name: cd.Name, IsCtor: true, Virtual: virt}
		setPos(m, name.Pos)
		m.Params = p.parseParams()
		if p.accept(token.Colon) {
			m.Inits = p.parseCtorInits()
		}
		p.finishMethodBody(m)
		cd.Methods = append(cd.Methods, m)
		return
	}

	// virtual destructor: virtual ~C() {...}
	if virt && p.at(token.Tilde) {
		tl := p.next()
		name := p.expect(token.Ident)
		if name.Text(p.file) != cd.Name {
			p.errorf("destructor name ~%s does not match class %s", name.Text(p.file), cd.Name)
		}
		m := &ast.MethodDecl{Name: "~" + cd.Name, IsDtor: true, Virtual: true}
		setPos(m, tl.Pos)
		m.Params = p.parseParams()
		p.finishMethodBody(m)
		cd.Methods = append(cd.Methods, m)
		return
	}

	// Field or method: starts with a type.
	isVolatileField := false
	start := p.cur().Pos
	if !p.startsType() {
		p.errorf("expected member declaration, found %s", p.found())
		p.sync(token.RBrace)
		return
	}
	typ := p.parseType()
	if q, ok := typ.(*ast.QualType); ok && q.Volatile {
		isVolatileField = true
	}
	name := p.expect(token.Ident)

	if p.at(token.LParen) {
		m := &ast.MethodDecl{Name: name.Text(p.file), Virtual: virt, Return: typ}
		setPos(m, start)
		m.Params = p.parseParams()
		// Pure virtual: `= 0;`
		if p.at(token.Assign) && p.peek(1).Kind == token.IntLit && p.peek(1).Text(p.file) == "0" {
			p.next()
			p.next()
			m.Pure = true
			p.expect(token.Semicolon)
		} else {
			p.finishMethodBody(m)
		}
		cd.Methods = append(cd.Methods, m)
		return
	}

	// Data member, possibly with array suffix; comma-separated declarators
	// share the base type.
	for {
		fieldType := typ
		if p.at(token.LBracket) {
			lb := p.next()
			length := p.parseExpr()
			p.expect(token.RBracket)
			at := &ast.ArrayType{Elem: fieldType, Len: length}
			p.exprPos(at, lb.Pos)
			fieldType = at
		}
		fd := &ast.FieldDecl{Name: name.Text(p.file), Type: fieldType, Volatile: isVolatileField}
		setPos(fd, start)
		cd.Fields = append(cd.Fields, fd)
		if !p.accept(token.Comma) {
			break
		}
		name = p.expect(token.Ident)
	}
	p.expect(token.Semicolon)
	if virt {
		p.errorf("data member cannot be virtual")
	}
}

// finishMethodBody parses either a body or a terminating semicolon
// (declaration without body).
func (p *Parser) finishMethodBody(m *ast.MethodDecl) {
	if p.accept(token.Semicolon) {
		return
	}
	m.Body = p.parseBlock()
}

// parseCtorInits parses a constructor's member-initializer list.
func (p *Parser) parseCtorInits() []ast.CtorInit {
	var inits []ast.CtorInit
	for {
		name := p.expect(token.Ident)
		ci := ast.CtorInit{Name: name.Text(p.file)}
		setPos(&ci, name.Pos)
		p.expect(token.LParen)
		if !p.at(token.RParen) {
			ci.Args = append(ci.Args, p.parseAssignExpr())
			for p.accept(token.Comma) {
				ci.Args = append(ci.Args, p.parseAssignExpr())
			}
		}
		p.expect(token.RParen)
		inits = append(inits, ci)
		if !p.accept(token.Comma) {
			return inits
		}
	}
}

// parseOutOfLineSpecial parses `C::C(...) {...}` and `C::~C() {...}` and
// attaches the definition to class C declared earlier in the file.
func (p *Parser) parseOutOfLineSpecial(f *ast.File) {
	cls := p.next() // class name
	p.next()        // ::
	isDtor := p.accept(token.Tilde)
	name := p.expect(token.Ident)
	if name.Text(p.file) != cls.Text(p.file) {
		p.errorf("qualified special member %s::%s has mismatched name", cls.Text(p.file), name.Text(p.file))
	}
	m := &ast.MethodDecl{Name: cls.Text(p.file), IsCtor: !isDtor, IsDtor: isDtor}
	if isDtor {
		m.Name = "~" + cls.Text(p.file)
	}
	setPos(m, cls.Pos)
	m.Params = p.parseParams()
	if !isDtor && p.accept(token.Colon) {
		m.Inits = p.parseCtorInits()
	}
	p.finishMethodBody(m)
	p.attachToClass(f, cls.Text(p.file), m)
}

// parseOutOfLineMethod parses `Type C::name(...) {...}`.
func (p *Parser) parseOutOfLineMethod(f *ast.File, ret ast.TypeExpr) {
	cls := p.next() // class name
	p.next()        // ::
	name := p.expect(token.Ident)
	m := &ast.MethodDecl{Name: name.Text(p.file), Return: ret}
	setPos(m, cls.Pos)
	m.Params = p.parseParams()
	p.finishMethodBody(m)
	p.attachToClass(f, cls.Text(p.file), m)
}

// attachToClass merges an out-of-line definition into its class. If the
// class has an in-class declaration of the same member without a body, the
// definition fills it in (preserving `virtual`); otherwise it is appended.
// A definition whose return type differs from the declaration's is
// reported at the definition, naming both types; the definition's type
// wins, since its body was written against it.
func (p *Parser) attachToClass(f *ast.File, clsName string, m *ast.MethodDecl) {
	// Prefer the defining declaration over forward declarations.
	var target *ast.ClassDecl
	for _, d := range f.Decls {
		if cd, ok := d.(*ast.ClassDecl); ok && cd.Name == clsName {
			if target == nil || cd.Defined {
				target = cd
			}
			if cd.Defined {
				break
			}
		}
	}
	if cd := target; cd != nil {
		for _, existing := range cd.Methods {
			if existing.Name == m.Name && existing.Body == nil && !existing.Pure &&
				len(existing.Params) == len(m.Params) {
				if existing.Return != nil && m.Return != nil && !sameType(existing.Return, m.Return) {
					p.diags.Errorf(m.Pos(), "conflicting return type for %s::%s: defined as %s, declared as %s",
						clsName, m.Name, printer.PrintType(m.Return), printer.PrintType(existing.Return))
					existing.Return = m.Return
				}
				existing.Body = m.Body
				existing.Inits = m.Inits
				// Parameter names may differ between declaration and
				// definition; the definition's names bind in the body.
				existing.Params = m.Params
				return
			}
		}
		cd.Methods = append(cd.Methods, m)
		return
	}
	p.diags.Errorf(m.Pos(), "out-of-line member of undeclared class %s", clsName)
}

// sameType reports whether two syntactic types are written alike.
func sameType(a, b ast.TypeExpr) bool {
	switch x := a.(type) {
	case *ast.NamedType:
		y, ok := b.(*ast.NamedType)
		return ok && x.Name == y.Name
	case *ast.PointerType:
		y, ok := b.(*ast.PointerType)
		return ok && sameType(x.Elem, y.Elem)
	case *ast.MemberPointerType:
		y, ok := b.(*ast.MemberPointerType)
		return ok && x.Class == y.Class && sameType(x.Elem, y.Elem)
	case *ast.QualType:
		y, ok := b.(*ast.QualType)
		return ok && x.Const == y.Const && x.Volatile == y.Volatile && sameType(x.Base, y.Base)
	}
	return false
}
