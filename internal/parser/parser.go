// Package parser implements a recursive-descent parser for MC++.
//
// The parser performs a cheap pre-scan of the token stream to collect class
// names (every `class/struct/union NAME`), which resolves the classic
// declaration-vs-expression ambiguity (`Foo * p;`) without feedback from
// semantic analysis. Errors are reported to a diagnostic list and the
// parser recovers at statement/declaration boundaries, so a single file
// yields as many diagnostics as possible in one run.
package parser

import (
	"deadmembers/internal/ast"
	"deadmembers/internal/lexer"
	"deadmembers/internal/source"
	"deadmembers/internal/token"
)

// Parser parses a single file's token stream.
type Parser struct {
	file    *source.File
	toks    []lexer.Token
	pos     int
	diags   *source.DiagnosticList
	types   map[string]bool // class/struct/union names seen in pre-scan
	panick  bool            // in error-recovery mode
	depth   int             // current recursive-descent depth
	tooDeep bool            // nesting-limit diagnostic already reported
}

// MaxNestingDepth bounds recursive-descent depth across expressions and
// statements, so pathologically nested input yields a diagnostic instead
// of overflowing the goroutine stack.
const MaxNestingDepth = 1000

// enterDepth counts one level of recursion and reports false once the
// nesting limit is exceeded. Callers must register `defer p.exitDepth()`
// before calling so the count stays balanced on every return path.
func (p *Parser) enterDepth() bool {
	p.depth++
	if p.depth <= MaxNestingDepth {
		return true
	}
	if !p.tooDeep {
		p.tooDeep = true
		// Report straight to the list: this must surface even in panick mode.
		p.diags.Errorf(p.cur().Pos, "nesting too deep (limit %d)", MaxNestingDepth)
	}
	return false
}

func (p *Parser) exitDepth() { p.depth-- }

// ParseFile parses the given source file, reporting problems to diags.
// A (possibly partial) File is always returned.
func ParseFile(file *source.File, diags *source.DiagnosticList) *ast.File {
	return ParseFileWithTypes(file, diags, nil)
}

// ParseFileWithTypes parses file with additional class names known from
// other files of the same program (multi-file programs need the full set
// to resolve the declaration-vs-expression ambiguity).
func ParseFileWithTypes(file *source.File, diags *source.DiagnosticList, extraTypes map[string]bool) *ast.File {
	return ParseTokens(file, lexer.ScanAll(file, diags), diags, extraTypes)
}

// ParseTokens is ParseFileWithTypes over toks, the complete token stream
// of file as lexer.ScanAll returns it, so a caller that has already
// lexed the file (to collect its type names) need not lex it again.
// Only parse diagnostics are reported to diags.
func ParseTokens(file *source.File, toks []lexer.Token, diags *source.DiagnosticList, extraTypes map[string]bool) *ast.File {
	p := &Parser{file: file, toks: toks, diags: diags, types: map[string]bool{}}
	for name := range extraTypes {
		p.types[name] = true
	}
	addTypeNames(p.types, toks)
	return p.parseFile()
}

// CollectTypeNames pre-scans a file for declared class/struct/union names
// without parsing it. Scanning diagnostics are suppressed (the real parse
// reports them).
func CollectTypeNames(file *source.File) map[string]bool {
	return TypeNames(lexer.ScanAll(file, source.NewDiagnosticList(nil)))
}

// TypeNames returns the class/struct/union names declared in toks.
func TypeNames(toks []lexer.Token) map[string]bool {
	out := map[string]bool{}
	addTypeNames(out, toks)
	return out
}

// addTypeNames records every identifier following class/struct/union so
// the parser can distinguish type names from expression identifiers.
func addTypeNames(into map[string]bool, toks []lexer.Token) {
	for i := 0; i+1 < len(toks); i++ {
		switch toks[i].Kind {
		case token.KwClass, token.KwStruct, token.KwUnion:
			if toks[i+1].Kind == token.Ident {
				into[toks[i+1].Text] = true
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Token stream helpers

func (p *Parser) cur() lexer.Token     { return p.toks[p.pos] }
func (p *Parser) kind() token.Kind     { return p.toks[p.pos].Kind }
func (p *Parser) at(k token.Kind) bool { return p.kind() == k }

func (p *Parser) peek(n int) lexer.Token {
	if p.pos+n < len(p.toks) {
		return p.toks[p.pos+n]
	}
	return p.toks[len(p.toks)-1] // EOF
}

func (p *Parser) next() lexer.Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) lexer.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf("expected %s, found %s", k, p.cur())
	return lexer.Token{Kind: k, Pos: p.cur().Pos, End: p.cur().Pos}
}

func (p *Parser) errorf(format string, args ...interface{}) {
	if p.panick {
		return // suppress cascading errors until we re-synchronize
	}
	p.panick = true
	p.diags.Errorf(p.cur().Pos, format, args...)
}

// sync skips tokens until a likely declaration/statement boundary.
func (p *Parser) sync(stop ...token.Kind) {
	p.panick = false
	depth := 0
	for !p.at(token.EOF) {
		k := p.kind()
		if depth == 0 {
			for _, s := range stop {
				if k == s {
					return
				}
			}
			if k == token.Semicolon {
				p.next()
				return
			}
		}
		switch k {
		case token.LBrace:
			depth++
		case token.RBrace:
			if depth == 0 {
				return
			}
			depth--
		}
		p.next()
	}
}

// ---------------------------------------------------------------------------
// Type parsing

// startsType reports whether the current token can begin a type.
func (p *Parser) startsType() bool {
	switch p.kind() {
	case token.KwVoid, token.KwBool, token.KwChar, token.KwInt, token.KwDouble,
		token.KwConst, token.KwVolatile:
		return true
	case token.Ident:
		return p.types[p.cur().Text]
	}
	return false
}

// parseType parses cv-qualifiers, a base type name, pointer suffixes, and
// member-pointer declarators (`Elem C::*`). Array suffixes attach to
// declarators, not to the type itself, and are handled by callers.
func (p *Parser) parseType() ast.TypeExpr {
	start := p.cur().Pos
	isConst, isVolatile := false, false
	for {
		if p.accept(token.KwConst) {
			isConst = true
			continue
		}
		if p.accept(token.KwVolatile) {
			isVolatile = true
			continue
		}
		break
	}
	var base ast.TypeExpr
	switch p.kind() {
	case token.KwVoid, token.KwBool, token.KwChar, token.KwInt, token.KwDouble:
		t := p.next()
		nt := &ast.NamedType{Name: t.Text}
		setPos(nt, t.Pos)
		base = nt
	case token.Ident:
		t := p.next()
		nt := &ast.NamedType{Name: t.Text}
		setPos(nt, t.Pos)
		base = nt
	default:
		p.errorf("expected type, found %s", p.cur())
		nt := &ast.NamedType{Name: "int"}
		setPos(nt, start)
		base = nt
	}
	if isConst || isVolatile {
		q := &ast.QualType{Const: isConst, Volatile: isVolatile, Base: base}
		setPos(q, start)
		base = q
	}
	return p.parseTypeSuffix(base)
}

// parseTypeSuffix parses `*` pointer layers and `C::*` member-pointer
// layers following a base type.
func (p *Parser) parseTypeSuffix(base ast.TypeExpr) ast.TypeExpr {
	for {
		switch {
		case p.at(token.Star):
			t := p.next()
			pt := &ast.PointerType{Elem: base}
			setPos(pt, t.Pos)
			base = pt
		case p.at(token.KwConst) || p.at(token.KwVolatile):
			// Trailing cv-qualifiers on pointers (int * const); fold into QualType.
			start := p.cur().Pos
			isConst, isVolatile := false, false
			for p.at(token.KwConst) || p.at(token.KwVolatile) {
				if p.next().Kind == token.KwConst {
					isConst = true
				} else {
					isVolatile = true
				}
			}
			q := &ast.QualType{Const: isConst, Volatile: isVolatile, Base: base}
			setPos(q, start)
			base = q
		case p.at(token.Ident) && p.peek(1).Kind == token.Scope && p.peek(2).Kind == token.Star:
			cls := p.next() // class name
			p.next()        // ::
			p.next()        // *
			mp := &ast.MemberPointerType{Class: cls.Text, Elem: base}
			setPos(mp, cls.Pos)
			base = mp
		default:
			return base
		}
	}
}

// setPos stamps a node's position via the exported constructor helper.
func setPos(n interface{}, pos source.Pos) {
	type positioned interface{ SetPos(source.Pos) }
	if pn, ok := n.(positioned); ok {
		pn.SetPos(pos)
	}
}
