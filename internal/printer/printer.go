// Package printer renders MC++ ASTs back to source text.
//
// It is the output stage of the dead-member elimination transform
// (internal/strip) and is also useful for debugging the frontend. The
// output is canonical MC++: it re-parses to an equivalent tree (verified
// by round-trip tests), though comments and original layout are not
// preserved.
package printer

import (
	"fmt"
	"strconv"
	"strings"

	"deadmembers/internal/ast"
)

// Fprint renders a file to a string.
func Print(file *ast.File) string {
	p := &printer{}
	p.file(file)
	return p.b.String()
}

// PrintExpr renders a single expression (exported for diagnostics).
func PrintExpr(e ast.Expr) string {
	p := &printer{}
	p.expr(e)
	return p.b.String()
}

// PrintType renders a syntactic type as written (exported for
// diagnostics).
func PrintType(t ast.TypeExpr) string {
	p := &printer{}
	p.typeExpr(t)
	return p.b.String()
}

type printer struct {
	b      strings.Builder
	indent int
}

func (p *printer) nl() {
	p.b.WriteByte('\n')
	for i := 0; i < p.indent; i++ {
		p.b.WriteByte('\t')
	}
}

func (p *printer) ws(s string) { p.b.WriteString(s) }

func (p *printer) file(f *ast.File) {
	for i, d := range f.Decls {
		if i > 0 {
			p.nl()
		}
		p.decl(d)
		p.nl()
	}
}

func (p *printer) decl(d ast.Decl) {
	switch x := d.(type) {
	case *ast.ClassDecl:
		p.classDecl(x)
	case *ast.FuncDecl:
		p.typeExpr(x.Return)
		p.ws(" ")
		p.ws(x.Name)
		p.params(x.Params)
		if x.Body == nil {
			p.ws(";")
			return
		}
		p.ws(" ")
		p.block(x.Body)
	case *ast.VarDecl:
		p.varDecl(x)
		p.ws(";")
	}
}

func (p *printer) classDecl(c *ast.ClassDecl) {
	p.ws(c.Kind.String())
	p.ws(" ")
	p.ws(c.Name)
	if !c.Defined {
		p.ws(";")
		return
	}
	for i, b := range c.Bases {
		if i == 0 {
			p.ws(" : ")
		} else {
			p.ws(", ")
		}
		if b.Virtual {
			p.ws("virtual ")
		}
		p.ws("public ")
		p.ws(b.Name)
	}
	p.ws(" {")
	p.indent++
	if len(c.Fields) > 0 || len(c.Methods) > 0 {
		p.nl()
		p.ws("public:")
	}
	for _, f := range c.Fields {
		p.nl()
		if f.Volatile {
			p.ws("volatile ")
		}
		p.fieldType(f)
		p.ws(";")
	}
	for _, m := range c.Methods {
		p.nl()
		p.method(c, m)
	}
	p.indent--
	p.nl()
	p.ws("};")
}

// fieldType prints `T name` or `T name[n]` for array fields.
func (p *printer) fieldType(f *ast.FieldDecl) {
	t := f.Type
	var arr *ast.ArrayType
	if a, ok := t.(*ast.ArrayType); ok {
		arr = a
		t = a.Elem
	}
	p.typeExpr(t)
	p.ws(" ")
	p.ws(f.Name)
	if arr != nil {
		p.ws("[")
		p.expr(arr.Len)
		p.ws("]")
	}
}

func (p *printer) method(c *ast.ClassDecl, m *ast.MethodDecl) {
	if m.Virtual {
		p.ws("virtual ")
	}
	switch {
	case m.IsCtor:
		p.ws(c.Name)
	case m.IsDtor:
		p.ws("~")
		p.ws(c.Name)
	default:
		p.typeExpr(m.Return)
		p.ws(" ")
		p.ws(m.Name)
	}
	p.params(m.Params)
	if len(m.Inits) > 0 {
		p.ws(" : ")
		for i := range m.Inits {
			if i > 0 {
				p.ws(", ")
			}
			init := &m.Inits[i]
			p.ws(init.Name)
			p.ws("(")
			p.exprList(init.Args)
			p.ws(")")
		}
	}
	switch {
	case m.Pure:
		p.ws(" = 0;")
	case m.Body == nil:
		p.ws(";")
	default:
		p.ws(" ")
		p.block(m.Body)
	}
}

func (p *printer) params(params []ast.Param) {
	p.ws("(")
	for i := range params {
		if i > 0 {
			p.ws(", ")
		}
		p.typeExpr(params[i].Type)
		if params[i].Name != "" {
			p.ws(" ")
			p.ws(params[i].Name)
		}
	}
	p.ws(")")
}

func (p *printer) varDecl(v *ast.VarDecl) {
	t := v.Type
	var arr *ast.ArrayType
	if a, ok := t.(*ast.ArrayType); ok {
		arr = a
		t = a.Elem
	}
	p.typeExpr(t)
	p.ws(" ")
	p.ws(v.Name)
	if arr != nil {
		p.ws("[")
		p.expr(arr.Len)
		p.ws("]")
	}
	switch {
	case v.Init != nil:
		p.ws(" = ")
		p.expr(v.Init)
	case v.HasCtor:
		p.ws("(")
		p.exprList(v.CtorArgs)
		p.ws(")")
	}
}

// ---------------------------------------------------------------------------
// Types

func (p *printer) typeExpr(t ast.TypeExpr) {
	switch x := t.(type) {
	case nil:
		p.ws("void")
	case *ast.NamedType:
		p.ws(x.Name)
	case *ast.PointerType:
		p.typeExpr(x.Elem)
		p.ws("*")
	case *ast.ArrayType:
		// Only valid in declarator position; handled by callers. As a
		// bare type (casts), render the element type.
		p.typeExpr(x.Elem)
	case *ast.MemberPointerType:
		p.typeExpr(x.Elem)
		p.ws(" ")
		p.ws(x.Class)
		p.ws("::*")
	case *ast.QualType:
		// A qualifier on a pointer or member pointer qualifies the
		// pointer itself, so it follows the `*` (int* const); before the
		// type it would qualify the pointee instead.
		switch x.Base.(type) {
		case *ast.PointerType, *ast.MemberPointerType:
			p.typeExpr(x.Base)
			p.qualifiers(x, " ", "")
		default:
			p.qualifiers(x, "", " ")
			p.typeExpr(x.Base)
		}
	}
}

// qualifiers prints q's cv-qualifiers, each between before and after.
func (p *printer) qualifiers(q *ast.QualType, before, after string) {
	if q.Const {
		p.ws(before + "const" + after)
	}
	if q.Volatile {
		p.ws(before + "volatile" + after)
	}
}

// ---------------------------------------------------------------------------
// Statements

func (p *printer) block(b *ast.BlockStmt) {
	p.ws("{")
	p.indent++
	for _, s := range b.Stmts {
		p.nl()
		p.stmt(s)
	}
	p.indent--
	p.nl()
	p.ws("}")
}

func (p *printer) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		p.block(x)
	case *ast.DeclStmt:
		p.varDecl(x.Var)
		p.ws(";")
	case *ast.ExprStmt:
		p.expr(x.X)
		p.ws(";")
	case *ast.IfStmt:
		p.ws("if (")
		p.expr(x.Cond)
		p.ws(") ")
		p.stmtAsBlock(x.Then)
		if x.Else != nil {
			p.ws(" else ")
			p.stmtAsBlock(x.Else)
		}
	case *ast.WhileStmt:
		p.ws("while (")
		p.expr(x.Cond)
		p.ws(") ")
		p.stmtAsBlock(x.Body)
	case *ast.DoWhileStmt:
		p.ws("do ")
		p.stmtAsBlock(x.Body)
		p.ws(" while (")
		p.expr(x.Cond)
		p.ws(");")
	case *ast.ForStmt:
		p.ws("for (")
		switch init := x.Init.(type) {
		case nil:
			p.ws(";")
		case *ast.DeclStmt:
			p.varDecl(init.Var)
			p.ws(";")
		case *ast.ExprStmt:
			p.expr(init.X)
			p.ws(";")
		}
		if x.Cond != nil {
			p.ws(" ")
			p.expr(x.Cond)
		}
		p.ws(";")
		if x.Post != nil {
			p.ws(" ")
			p.expr(x.Post)
		}
		p.ws(") ")
		p.stmtAsBlock(x.Body)
	case *ast.SwitchStmt:
		p.ws("switch (")
		p.expr(x.X)
		p.ws(") {")
		for i := range x.Cases {
			cs := &x.Cases[i]
			p.nl()
			if cs.Values == nil {
				p.ws("default:")
			} else {
				for j, v := range cs.Values {
					if j > 0 {
						p.nl()
					}
					p.ws("case ")
					p.expr(v)
					p.ws(":")
				}
			}
			p.indent++
			for _, st := range cs.Body {
				p.nl()
				p.stmt(st)
			}
			p.indent--
		}
		p.nl()
		p.ws("}")
	case *ast.ReturnStmt:
		p.ws("return")
		if x.X != nil {
			p.ws(" ")
			p.expr(x.X)
		}
		p.ws(";")
	case *ast.BreakStmt:
		p.ws("break;")
	case *ast.ContinueStmt:
		p.ws("continue;")
	}
}

// stmtAsBlock prints control-flow bodies as braced blocks so that the
// output never depends on dangling-else disambiguation.
func (p *printer) stmtAsBlock(s ast.Stmt) {
	if b, ok := s.(*ast.BlockStmt); ok {
		p.block(b)
		return
	}
	p.ws("{")
	p.indent++
	p.nl()
	p.stmt(s)
	p.indent--
	p.nl()
	p.ws("}")
}

// ---------------------------------------------------------------------------
// Expressions

func (p *printer) exprList(list []ast.Expr) {
	for i, e := range list {
		if i > 0 {
			p.ws(", ")
		}
		p.expr(e)
	}
}

func (p *printer) expr(e ast.Expr) {
	switch x := e.(type) {
	case *ast.IntLit:
		p.ws(strconv.FormatInt(x.Value, 10))
	case *ast.FloatLit:
		s := strconv.FormatFloat(x.Value, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0" // keep it a floating literal on re-parse
		}
		p.ws(s)
	case *ast.CharLit:
		p.ws(quoteChar(x.Value))
	case *ast.BoolLit:
		if x.Value {
			p.ws("true")
		} else {
			p.ws("false")
		}
	case *ast.StringLit:
		p.ws(quoteString(x.Value))
	case *ast.NullLit:
		p.ws("nullptr")
	case *ast.Ident:
		p.ws(x.Name)
	case *ast.ThisExpr:
		p.ws("this")
	case *ast.QualifiedIdent:
		p.ws(x.Class)
		p.ws("::")
		p.ws(x.Name)
	case *ast.Unary:
		p.ws(x.Op.String())
		p.exprPrec(x.X)
	case *ast.Postfix:
		p.exprPrec(x.X)
		p.ws(x.Op.String())
	case *ast.Binary:
		p.exprPrec(x.X)
		p.ws(" ")
		p.ws(x.Op.String())
		p.ws(" ")
		p.exprPrec(x.Y)
	case *ast.Assign:
		p.expr(x.LHS)
		p.ws(" ")
		p.ws(x.Op.String())
		p.ws(" ")
		p.expr(x.RHS)
	case *ast.Cond:
		p.exprPrec(x.C)
		p.ws(" ? ")
		p.expr(x.Then)
		p.ws(" : ")
		p.expr(x.Else)
	case *ast.Member:
		p.exprPrec(x.X)
		if x.Arrow {
			p.ws("->")
		} else {
			p.ws(".")
		}
		if x.Qual != "" {
			p.ws(x.Qual)
			p.ws("::")
		}
		p.ws(x.Name)
	case *ast.MemberPtrDeref:
		p.exprPrec(x.X)
		if x.Arrow {
			p.ws("->*")
		} else {
			p.ws(".*")
		}
		p.exprPrec(x.Ptr)
	case *ast.Index:
		p.exprPrec(x.X)
		p.ws("[")
		p.expr(x.I)
		p.ws("]")
	case *ast.Call:
		p.exprPrec(x.Fun)
		p.ws("(")
		p.exprList(x.Args)
		p.ws(")")
	case *ast.Cast:
		p.ws("(")
		p.typeExpr(x.Type)
		p.ws(")")
		p.exprPrec(x.X)
	case *ast.New:
		p.ws("new ")
		p.typeExpr(x.Type)
		if x.Len != nil {
			p.ws("[")
			p.expr(x.Len)
			p.ws("]")
		} else if len(x.Args) > 0 {
			p.ws("(")
			p.exprList(x.Args)
			p.ws(")")
		} else {
			p.ws("()")
		}
	case *ast.Delete:
		p.ws("delete")
		if x.Array {
			p.ws("[]")
		}
		p.ws(" ")
		p.exprPrec(x.X)
	case *ast.Sizeof:
		p.ws("sizeof(")
		if x.Type != nil {
			p.typeExpr(x.Type)
		} else {
			p.expr(x.X)
		}
		p.ws(")")
	case *ast.Paren:
		p.ws("(")
		p.expr(x.X)
		p.ws(")")
	default:
		p.ws(fmt.Sprintf("/*?%T*/", e))
	}
}

// exprPrec prints a subexpression, parenthesizing anything that is not an
// atomic/postfix form. This over-parenthesizes relative to the original
// source but guarantees the re-parse associates identically.
func (p *printer) exprPrec(e ast.Expr) {
	switch e.(type) {
	case *ast.IntLit, *ast.FloatLit, *ast.CharLit, *ast.BoolLit,
		*ast.StringLit, *ast.NullLit, *ast.Ident, *ast.ThisExpr,
		*ast.Member, *ast.Index, *ast.Call, *ast.Paren, *ast.QualifiedIdent,
		*ast.Sizeof:
		p.expr(e)
	default:
		p.ws("(")
		p.expr(e)
		p.ws(")")
	}
}

func quoteChar(c byte) string {
	switch c {
	case '\n':
		return `'\n'`
	case '\t':
		return `'\t'`
	case '\r':
		return `'\r'`
	case 0:
		return `'\0'`
	case '\'':
		return `'\''`
	case '\\':
		return `'\\'`
	}
	return "'" + string(c) + "'"
}

func quoteString(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		case 0:
			b.WriteString(`\0`)
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}
