package parser

import (
	"deadmembers/internal/ast"
	"deadmembers/internal/token"
)

// parseBlock parses `{ stmt* }`.
func (p *Parser) parseBlock() *ast.BlockStmt {
	lb := p.expect(token.LBrace)
	b := &ast.BlockStmt{}
	setPos(b, lb.Pos)
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		before := p.pos
		s := p.parseStmt()
		if s != nil {
			b.Stmts = append(b.Stmts, s)
		}
		if p.pos == before {
			p.next()
			p.panick = false
		}
	}
	p.expect(token.RBrace)
	return b
}

// parseStmt parses one statement.
func (p *Parser) parseStmt() ast.Stmt {
	defer p.exitDepth()
	if !p.enterDepth() {
		return p.depthLimitedStmt()
	}
	p.panick = false // each statement may report fresh errors
	start := p.cur().Pos
	switch p.kind() {
	case token.LBrace:
		return p.parseBlock()
	case token.Semicolon:
		p.next()
		b := &ast.BlockStmt{} // empty statement normalizes to empty block
		setPos(b, start)
		return b
	case token.KwIf:
		return p.parseIf()
	case token.KwWhile:
		return p.parseWhile()
	case token.KwDo:
		return p.parseDoWhile()
	case token.KwFor:
		return p.parseFor()
	case token.KwSwitch:
		return p.parseSwitch()
	case token.KwReturn:
		p.next()
		r := &ast.ReturnStmt{}
		setPos(r, start)
		if !p.at(token.Semicolon) {
			r.X = p.parseExpr()
		}
		p.expect(token.Semicolon)
		return r
	case token.KwBreak:
		p.next()
		p.expect(token.Semicolon)
		b := &ast.BreakStmt{}
		setPos(b, start)
		return b
	case token.KwContinue:
		p.next()
		p.expect(token.Semicolon)
		c := &ast.ContinueStmt{}
		setPos(c, start)
		return c
	}

	if p.startsDecl() {
		return p.parseDeclStmt()
	}

	// Expression statement.
	e := p.parseExpr()
	p.expect(token.Semicolon)
	es := &ast.ExprStmt{X: e}
	setPos(es, start)
	return es
}

// depthLimitedStmt stands in for a statement abandoned at the nesting
// limit, consuming one token to guarantee progress.
func (p *Parser) depthLimitedStmt() ast.Stmt {
	b := &ast.BlockStmt{}
	setPos(b, p.cur().Pos)
	if !p.at(token.EOF) {
		p.next()
	}
	return b
}

// startsDecl reports whether the statement at the cursor is a local
// variable declaration rather than an expression. A type-name start is a
// declaration unless it is immediately used as an expression (e.g. a
// function-style cast, which MC++ does not have, so type start suffices),
// except that a bare class name followed by `::` is an expression
// (`C::m` qualified reference).
func (p *Parser) startsDecl() bool {
	if !p.startsType() {
		return false
	}
	if p.at(token.Ident) && p.peek(1).Kind == token.Scope {
		// `C::*` is a member-pointer declarator only when preceded by a
		// base type, not at statement start; `C::m` at statement start is
		// an expression.
		return false
	}
	return true
}

// parseDeclStmt parses a local declaration statement.
func (p *Parser) parseDeclStmt() ast.Stmt {
	start := p.cur().Pos
	typ := p.parseType()
	name := p.expect(token.Ident)
	v := p.finishVar(name.Text(p.file), typ)
	setPos(v, start)
	ds := &ast.DeclStmt{Var: v}
	setPos(ds, start)
	return ds
}

func (p *Parser) parseIf() ast.Stmt {
	kw := p.next()
	p.expect(token.LParen)
	cond := p.parseExpr()
	p.expect(token.RParen)
	s := &ast.IfStmt{Cond: cond}
	setPos(s, kw.Pos)
	s.Then = p.parseStmt()
	if p.accept(token.KwElse) {
		s.Else = p.parseStmt()
	}
	return s
}

func (p *Parser) parseWhile() ast.Stmt {
	kw := p.next()
	p.expect(token.LParen)
	cond := p.parseExpr()
	p.expect(token.RParen)
	s := &ast.WhileStmt{Cond: cond}
	setPos(s, kw.Pos)
	s.Body = p.parseStmt()
	return s
}

func (p *Parser) parseDoWhile() ast.Stmt {
	kw := p.next()
	s := &ast.DoWhileStmt{}
	setPos(s, kw.Pos)
	s.Body = p.parseStmt()
	p.expect(token.KwWhile)
	p.expect(token.LParen)
	s.Cond = p.parseExpr()
	p.expect(token.RParen)
	p.expect(token.Semicolon)
	return s
}

func (p *Parser) parseFor() ast.Stmt {
	kw := p.next()
	p.expect(token.LParen)
	s := &ast.ForStmt{}
	setPos(s, kw.Pos)
	if !p.at(token.Semicolon) {
		if p.startsDecl() {
			start := p.cur().Pos
			typ := p.parseType()
			name := p.expect(token.Ident)
			v := p.finishVar(name.Text(p.file), typ) // consumes the ';'
			setPos(v, start)
			ds := &ast.DeclStmt{Var: v}
			setPos(ds, start)
			s.Init = ds
		} else {
			e := p.parseExpr()
			es := &ast.ExprStmt{X: e}
			setPos(es, e.Pos())
			s.Init = es
			p.expect(token.Semicolon)
		}
	} else {
		p.next()
	}
	if !p.at(token.Semicolon) {
		s.Cond = p.parseExpr()
	}
	p.expect(token.Semicolon)
	if !p.at(token.RParen) {
		s.Post = p.parseExpr()
	}
	p.expect(token.RParen)
	s.Body = p.parseStmt()
	return s
}

func (p *Parser) parseSwitch() ast.Stmt {
	kw := p.next()
	p.expect(token.LParen)
	x := p.parseExpr()
	p.expect(token.RParen)
	s := &ast.SwitchStmt{X: x}
	setPos(s, kw.Pos)
	p.expect(token.LBrace)
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		var c ast.SwitchCase
		setPos(&c, p.cur().Pos)
		switch {
		case p.accept(token.KwCase):
			c.Values = append(c.Values, p.parseExpr())
			p.expect(token.Colon)
			// Adjacent `case a: case b:` labels share one body.
			for p.at(token.KwCase) {
				p.next()
				c.Values = append(c.Values, p.parseExpr())
				p.expect(token.Colon)
			}
		case p.accept(token.KwDefault):
			p.expect(token.Colon)
		default:
			p.errorf("expected case or default in switch, found %s", p.found())
			p.sync(token.RBrace)
			continue
		}
		for !p.at(token.KwCase) && !p.at(token.KwDefault) && !p.at(token.RBrace) && !p.at(token.EOF) {
			before := p.pos
			st := p.parseStmt()
			if st != nil {
				c.Body = append(c.Body, st)
			}
			if p.pos == before {
				p.next()
				p.panick = false
			}
		}
		s.Cases = append(s.Cases, c)
	}
	p.expect(token.RBrace)
	return s
}
