package parser

import (
	"strconv"

	"deadmembers/internal/ast"
	"deadmembers/internal/lexer"
	"deadmembers/internal/token"
)

// parseExpr parses a full expression (lowest precedence: assignment).
// MC++ has no comma operator; commas separate arguments only.
func (p *Parser) parseExpr() ast.Expr { return p.parseAssignExpr() }

// parseAssignExpr parses assignment (right-associative) and below. It
// carries a depth guard of its own because assignment and ternary chains
// recurse through here while no parseUnaryExpr frame is live.
func (p *Parser) parseAssignExpr() ast.Expr {
	defer p.exitDepth()
	if !p.enterDepth() {
		return p.depthLimitedExpr()
	}
	lhs := p.parseCondExpr()
	if p.kind().IsAssignOp() {
		op := p.next()
		rhs := p.parseAssignExpr()
		a := &ast.Assign{Op: op.Kind, LHS: lhs, RHS: rhs}
		p.exprPos(a, lhs.Pos())
		return a
	}
	return lhs
}

// parseCondExpr parses the ternary conditional and below.
func (p *Parser) parseCondExpr() ast.Expr {
	cond := p.parseBinaryExpr(1)
	if !p.at(token.Question) {
		return cond
	}
	p.next()
	then := p.parseAssignExpr()
	p.expect(token.Colon)
	els := p.parseAssignExpr()
	c := &ast.Cond{C: cond, Then: then, Else: els}
	p.exprPos(c, cond.Pos())
	return c
}

// parseBinaryExpr implements precedence climbing for binary operators.
func (p *Parser) parseBinaryExpr(minPrec int) ast.Expr {
	lhs := p.parseUnaryExpr()
	for {
		prec := p.kind().Precedence()
		if prec < minPrec || prec == 0 {
			return lhs
		}
		op := p.next()
		rhs := p.parseBinaryExpr(prec + 1)
		b := &ast.Binary{Op: op.Kind, X: lhs, Y: rhs}
		p.exprPos(b, lhs.Pos())
		lhs = b
	}
}

// parseUnaryExpr parses prefix operators, casts, new/delete, and sizeof.
// Every expression derivation passes through here before reaching a
// primary, so this is where the nesting-depth guard lives.
func (p *Parser) parseUnaryExpr() ast.Expr {
	defer p.exitDepth()
	if !p.enterDepth() {
		return p.depthLimitedExpr()
	}
	start := p.cur().Pos
	switch p.kind() {
	case token.Minus, token.Not, token.Tilde, token.Star, token.Inc, token.Dec:
		op := p.next()
		x := p.parseUnaryExpr()
		u := &ast.Unary{Op: op.Kind, X: x}
		p.exprPos(u, start)
		return u
	case token.Amp:
		p.next()
		// `&C::m` forms a pointer-to-member constant.
		if p.at(token.Ident) && p.peek(1).Kind == token.Scope && p.peek(2).Kind == token.Ident {
			cls := p.next()
			p.next()
			name := p.next()
			qi := &ast.QualifiedIdent{Class: cls.Text(p.file), Name: name.Text(p.file)}
			p.exprPos(qi, cls.Pos)
			u := &ast.Unary{Op: token.Amp, X: qi}
			p.exprPos(u, start)
			return u
		}
		x := p.parseUnaryExpr()
		u := &ast.Unary{Op: token.Amp, X: x}
		p.exprPos(u, start)
		return u
	case token.KwNew:
		return p.parseNew()
	case token.KwDelete:
		p.next()
		d := &ast.Delete{}
		p.exprPos(d, start)
		if p.accept(token.LBracket) {
			p.expect(token.RBracket)
			d.Array = true
		}
		d.X = p.parseUnaryExpr()
		return d
	case token.KwSizeof:
		return p.parseSizeof()
	case token.LParen:
		// Cast `(T)e` vs parenthesized expression.
		if p.isCastStart() {
			lp := p.next()
			typ := p.parseType()
			p.expect(token.RParen)
			x := p.parseUnaryExpr()
			c := &ast.Cast{Type: typ, X: x}
			p.exprPos(c, lp.Pos)
			return c
		}
	}
	return p.parsePostfixExpr()
}

// depthLimitedExpr stands in for an expression abandoned at the nesting
// limit. One token is consumed so the surrounding recovery loops are
// guaranteed to make progress while the stack unwinds.
func (p *Parser) depthLimitedExpr() ast.Expr {
	e := &ast.IntLit{}
	p.exprPos(e, p.cur().Pos)
	if !p.at(token.EOF) {
		p.next()
	}
	return e
}

// isCastStart reports whether the cursor sits at `(` beginning a C-style
// cast rather than a parenthesized expression. The content must start a
// type and the matching `)` must be followed by a cast operand.
func (p *Parser) isCastStart() bool {
	if !p.at(token.LParen) {
		return false
	}
	save := p.pos
	defer func() { p.pos = save }()
	p.next()
	if !p.startsType() {
		return false
	}
	// A class name followed by `::` that is not a member-pointer declarator
	// is an expression like (C::m).
	p.parseTypeSilently()
	return p.at(token.RParen)
}

// parseTypeSilently advances over a type without emitting diagnostics.
// The nodes it builds are discarded, so they are not counted either.
func (p *Parser) parseTypeSilently() {
	saved, nodes := p.panick, p.nodes
	p.panick = true // suppress diagnostics during speculation
	p.parseType()
	p.panick, p.nodes = saved, nodes
}

// parseNew parses `new T(args)`, `new T[len]`.
func (p *Parser) parseNew() ast.Expr {
	kw := p.next()
	n := &ast.New{}
	p.exprPos(n, kw.Pos)
	n.Type = p.parseType()
	if p.accept(token.LBracket) {
		n.Len = p.parseExpr()
		p.expect(token.RBracket)
		return n
	}
	if p.accept(token.LParen) {
		if !p.at(token.RParen) {
			n.Args = append(n.Args, p.parseAssignExpr())
			for p.accept(token.Comma) {
				n.Args = append(n.Args, p.parseAssignExpr())
			}
		}
		p.expect(token.RParen)
	}
	return n
}

// parseSizeof parses `sizeof(T)`, `sizeof(expr)`, or `sizeof expr`.
func (p *Parser) parseSizeof() ast.Expr {
	kw := p.next()
	s := &ast.Sizeof{}
	p.exprPos(s, kw.Pos)
	if p.at(token.LParen) {
		save := p.pos
		p.next()
		if p.startsType() {
			p.parseTypeSilently()
			if p.at(token.RParen) {
				p.pos = save
				p.next()
				s.Type = p.parseType()
				p.expect(token.RParen)
				return s
			}
		}
		p.pos = save
	}
	s.X = p.parseUnaryExpr()
	return s
}

// parsePostfixExpr parses a primary expression followed by postfix
// operators: member access, calls, indexing, ++/--, .* and ->*.
func (p *Parser) parsePostfixExpr() ast.Expr {
	x := p.parsePrimaryExpr()
	for {
		start := p.cur().Pos
		switch p.kind() {
		case token.Dot, token.Arrow:
			op := p.next()
			m := &ast.Member{X: x, Arrow: op.Kind == token.Arrow}
			p.exprPos(m, start)
			name := p.expect(token.Ident)
			if p.at(token.Scope) {
				p.next()
				m.Qual = name.Text(p.file)
				name = p.expect(token.Ident)
			}
			m.Name = name.Text(p.file)
			x = m
		case token.DotStar, token.ArrowStar:
			op := p.next()
			ptr := p.parseUnaryExpr()
			d := &ast.MemberPtrDeref{X: x, Arrow: op.Kind == token.ArrowStar, Ptr: ptr}
			p.exprPos(d, start)
			x = d
		case token.LBracket:
			p.next()
			idx := p.parseExpr()
			p.expect(token.RBracket)
			ix := &ast.Index{X: x, I: idx}
			p.exprPos(ix, start)
			x = ix
		case token.LParen:
			p.next()
			c := &ast.Call{Fun: x}
			p.exprPos(c, x.Pos())
			if !p.at(token.RParen) {
				c.Args = append(c.Args, p.parseAssignExpr())
				for p.accept(token.Comma) {
					c.Args = append(c.Args, p.parseAssignExpr())
				}
			}
			p.expect(token.RParen)
			x = c
		case token.Inc, token.Dec:
			op := p.next()
			pf := &ast.Postfix{Op: op.Kind, X: x}
			p.exprPos(pf, start)
			x = pf
		default:
			return x
		}
	}
}

// parsePrimaryExpr parses literals, names, `this`, and parenthesized
// expressions.
func (p *Parser) parsePrimaryExpr() ast.Expr {
	start := p.cur().Pos
	switch p.kind() {
	case token.IntLit:
		t := p.next()
		v, err := strconv.ParseInt(t.Text(p.file), 0, 64)
		if err != nil {
			p.errorf("invalid integer literal %s", t.Text(p.file))
		}
		e := &ast.IntLit{Value: v}
		p.exprPos(e, start)
		return e
	case token.FloatLit:
		t := p.next()
		v, err := strconv.ParseFloat(t.Text(p.file), 64)
		if err != nil {
			p.errorf("invalid floating literal %s", t.Text(p.file))
		}
		e := &ast.FloatLit{Value: v}
		p.exprPos(e, start)
		return e
	case token.CharLit:
		t := p.next()
		e := &ast.CharLit{Value: lexer.UnquoteChar(t.Text(p.file))}
		p.exprPos(e, start)
		return e
	case token.StringLit:
		t := p.next()
		e := &ast.StringLit{Value: lexer.UnquoteString(t.Text(p.file))}
		p.exprPos(e, start)
		return e
	case token.KwTrue, token.KwFalse:
		t := p.next()
		e := &ast.BoolLit{Value: t.Kind == token.KwTrue}
		p.exprPos(e, start)
		return e
	case token.KwNullptr:
		p.next()
		e := &ast.NullLit{}
		p.exprPos(e, start)
		return e
	case token.KwThis:
		p.next()
		e := &ast.ThisExpr{}
		p.exprPos(e, start)
		return e
	case token.Ident:
		t := p.next()
		if p.at(token.Scope) && p.peek(1).Kind == token.Ident {
			p.next()
			name := p.next()
			qi := &ast.QualifiedIdent{Class: t.Text(p.file), Name: name.Text(p.file)}
			p.exprPos(qi, start)
			return qi
		}
		e := &ast.Ident{Name: t.Text(p.file)}
		p.exprPos(e, start)
		return e
	case token.LParen:
		p.next()
		inner := p.parseExpr()
		p.expect(token.RParen)
		e := &ast.Paren{X: inner}
		p.exprPos(e, start)
		return e
	}
	p.errorf("expected expression, found %s", p.found())
	e := &ast.IntLit{Value: 0}
	p.exprPos(e, start)
	if !p.at(token.EOF) && !p.at(token.Semicolon) && !p.at(token.RBrace) && !p.at(token.RParen) {
		p.next() // consume the offending token to guarantee progress
	}
	return e
}
