// Package ast defines the abstract syntax tree for MC++, the C++ subset
// analyzed by this repository.
//
// The tree is deliberately close to C++ surface syntax: member accesses
// retain their `.` vs `->` form and optional `B::` qualifiers, because the
// dead-data-member algorithm of Sweeney & Tip is specified directly over
// these syntactic categories (read access, qualified access,
// pointer-to-member formation, casts, and so on).
//
// Type information is NOT stored in the tree; the sema package attaches it
// via side tables, mirroring the go/ast + go/types split. What the tree
// does carry is a number: sema stamps each expression and syntactic type
// it records with a dense per-compilation ID (see Node.ID), so the
// tables of types.Info that hold one entry per such node are slices
// indexed by it rather than maps keyed by the node.
package ast

import (
	"deadmembers/internal/source"
	"deadmembers/internal/token"
)

// Node is implemented by all AST nodes.
type Node interface {
	Pos() source.Pos

	// ID is the node's number within its compilation: 1, 2, ... in the
	// order sema first records the node. It is 0 for a node sema never
	// records: every statement and declaration, and any expression or
	// syntactic type built after compilation (strip's rewrites) or by
	// hand.
	ID() int
}

// Numbered is a node sema numbers when it records it: an expression or
// a syntactic type. Only types.Info's setters call SetID, once per node.
type Numbered interface {
	Node
	SetID(id int)
}

// node provides the position shared by all nodes. Statements and
// declarations embed it directly and are never numbered.
type node struct {
	P source.Pos
}

func (n node) Pos() source.Pos { return n.P }
func (node) ID() int           { return 0 }

// numbered is the base of expressions and syntactic types: a position
// plus the number sema stamps.
type numbered struct {
	node
	id int32
}

func (n numbered) ID() int       { return int(n.id) }
func (n *numbered) SetID(id int) { n.id = int32(id) }

// SetPos stamps the node's source position; it is promoted to every node
// type so the parser can set positions from outside this package.
func (n *node) SetPos(p source.Pos) { n.P = p }

// ---------------------------------------------------------------------------
// Types (syntactic)

// TypeExpr is a syntactic type as written in source.
type TypeExpr interface {
	Numbered
	typeExpr()
}

// NamedType is a builtin type name (`int`, `char`, ...) or a class name.
type NamedType struct {
	numbered
	Name string
}

// PointerType is `Elem *`.
type PointerType struct {
	numbered
	Elem TypeExpr
}

// ArrayType is `Elem [Len]`. Len is a constant expression.
type ArrayType struct {
	numbered
	Elem TypeExpr
	Len  Expr
}

// MemberPointerType is `Elem Class::*`.
type MemberPointerType struct {
	numbered
	Class string
	Elem  TypeExpr
}

// QualType wraps a type with const/volatile qualifiers.
type QualType struct {
	numbered
	Const    bool
	Volatile bool
	Base     TypeExpr
}

func (*NamedType) typeExpr()         {}
func (*PointerType) typeExpr()       {}
func (*ArrayType) typeExpr()         {}
func (*MemberPointerType) typeExpr() {}
func (*QualType) typeExpr()          {}

// ---------------------------------------------------------------------------
// Declarations

// Decl is a top-level declaration.
type Decl interface {
	Node
	decl()
}

// File is a parsed source file.
type File struct {
	node
	Name  string
	Decls []Decl

	// Nodes counts the expressions and syntactic types the parser built
	// for this file: an upper bound on the nodes sema numbers in it, so
	// sema can size its node-indexed tables once. Zero for a hand-built
	// file, whose tables grow as sema records.
	Nodes int
}

// ClassKind distinguishes class/struct/union declarations.
type ClassKind int

// Class declaration kinds.
const (
	ClassClass ClassKind = iota
	ClassStruct
	ClassUnion
)

// String returns the keyword for the class kind.
func (k ClassKind) String() string {
	switch k {
	case ClassStruct:
		return "struct"
	case ClassUnion:
		return "union"
	default:
		return "class"
	}
}

// BaseSpec is one entry of a class's base list.
type BaseSpec struct {
	node
	Virtual bool
	Name    string
}

// ClassDecl declares a class, struct, or union. Defined is false for a
// forward declaration (`class C;`).
type ClassDecl struct {
	node
	Kind    ClassKind
	Name    string
	Defined bool
	Bases   []BaseSpec
	Fields  []*FieldDecl
	Methods []*MethodDecl
}

// FieldDecl is a non-static data member.
type FieldDecl struct {
	node
	Name     string
	Type     TypeExpr
	Volatile bool
}

// Param is one function parameter.
type Param struct {
	node
	Name string
	Type TypeExpr
}

// CtorInit is one entry of a constructor's member-initializer list; it
// names either a data member or a base class.
type CtorInit struct {
	node
	Name string
	Args []Expr
}

// MethodDecl is a member function, constructor (Name == class name,
// Return == nil, IsCtor), or destructor (IsDtor).
type MethodDecl struct {
	node
	Name    string
	Virtual bool
	Pure    bool
	IsCtor  bool
	IsDtor  bool
	Params  []Param
	Return  TypeExpr // nil for ctors/dtors
	Inits   []CtorInit
	Body    *BlockStmt // nil for pure-virtual or body-less declarations
}

// FuncDecl is a free (non-member) function.
type FuncDecl struct {
	node
	Name   string
	Params []Param
	Return TypeExpr
	Body   *BlockStmt
}

// VarDecl declares a global or local variable. Exactly one of Init
// (assignment form `T x = e;`) or CtorArgs (direct form `T x(a, b);`) may
// be set; both nil means default initialization.
type VarDecl struct {
	node
	Name     string
	Type     TypeExpr
	Init     Expr
	CtorArgs []Expr
	HasCtor  bool // distinguishes `T x();`-style from plain `T x;`
}

func (*ClassDecl) decl() {}
func (*FuncDecl) decl()  {}
func (*VarDecl) decl()   {}

// ---------------------------------------------------------------------------
// Statements

// Stmt is a statement.
type Stmt interface {
	Node
	stmt()
}

// BlockStmt is `{ ... }`.
type BlockStmt struct {
	node
	Stmts []Stmt
}

// DeclStmt wraps a local VarDecl.
type DeclStmt struct {
	node
	Var *VarDecl
}

// ExprStmt evaluates an expression for effect.
type ExprStmt struct {
	node
	X Expr
}

// IfStmt is `if (Cond) Then else Else`.
type IfStmt struct {
	node
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// WhileStmt is `while (Cond) Body`.
type WhileStmt struct {
	node
	Cond Expr
	Body Stmt
}

// DoWhileStmt is `do Body while (Cond);`.
type DoWhileStmt struct {
	node
	Body Stmt
	Cond Expr
}

// ForStmt is `for (Init; Cond; Post) Body`; any part may be nil.
type ForStmt struct {
	node
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
}

// SwitchCase is one `case v1: case v2: stmts` group; Values nil = default.
type SwitchCase struct {
	node
	Values []Expr
	Body   []Stmt
}

// SwitchStmt is a C-style switch. Cases do not fall through in MC++; each
// case group executes and exits the switch unless it ends in break (break
// is accepted and is a no-op at case end, for C++ compatibility).
type SwitchStmt struct {
	node
	X     Expr
	Cases []SwitchCase
}

// ReturnStmt is `return X;` (X may be nil).
type ReturnStmt struct {
	node
	X Expr
}

// BreakStmt is `break;`.
type BreakStmt struct{ node }

// ContinueStmt is `continue;`.
type ContinueStmt struct{ node }

func (*BlockStmt) stmt()    {}
func (*DeclStmt) stmt()     {}
func (*ExprStmt) stmt()     {}
func (*IfStmt) stmt()       {}
func (*WhileStmt) stmt()    {}
func (*DoWhileStmt) stmt()  {}
func (*ForStmt) stmt()      {}
func (*SwitchStmt) stmt()   {}
func (*ReturnStmt) stmt()   {}
func (*BreakStmt) stmt()    {}
func (*ContinueStmt) stmt() {}

// ---------------------------------------------------------------------------
// Expressions

// Expr is an expression.
type Expr interface {
	Numbered
	expr()
}

// IntLit is an integer literal.
type IntLit struct {
	numbered
	Value int64
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	numbered
	Value float64
}

// CharLit is a character literal (value is the byte).
type CharLit struct {
	numbered
	Value byte
}

// BoolLit is `true` or `false`.
type BoolLit struct {
	numbered
	Value bool
}

// StringLit is a string literal (decoded value).
type StringLit struct {
	numbered
	Value string
}

// NullLit is `nullptr` (or literal 0 in pointer context, normalized by sema).
type NullLit struct{ numbered }

// Ident is an unqualified name use.
type Ident struct {
	numbered
	Name string
}

// ThisExpr is `this`.
type ThisExpr struct{ numbered }

// QualifiedIdent is `Class::Name` used as an expression; with a leading
// `&` it forms a pointer-to-member constant.
type QualifiedIdent struct {
	numbered
	Class string
	Name  string
}

// Unary is a prefix operator application: - ! ~ & * ++ --.
type Unary struct {
	numbered
	Op token.Kind
	X  Expr
}

// Postfix is `X++` or `X--`.
type Postfix struct {
	numbered
	Op token.Kind
	X  Expr
}

// Binary is a binary operator application.
type Binary struct {
	numbered
	Op   token.Kind
	X, Y Expr
}

// Assign is `LHS op RHS` where op is `=` or a compound assignment.
type Assign struct {
	numbered
	Op       token.Kind
	LHS, RHS Expr
}

// Cond is the ternary `Cond ? Then : Else`.
type Cond struct {
	numbered
	C, Then, Else Expr
}

// Member is `X.Name`, `X->Name`, `X.Qual::Name`, or `X->Qual::Name`.
// It covers both data-member accesses and method-call callees.
type Member struct {
	numbered
	X     Expr
	Arrow bool
	Qual  string // optional explicit class qualifier ("" if absent)
	Name  string
}

// MemberPtrDeref is `X.*Ptr` or `X->*Ptr`.
type MemberPtrDeref struct {
	numbered
	X     Expr
	Arrow bool
	Ptr   Expr
}

// Index is `X[I]`.
type Index struct {
	numbered
	X, I Expr
}

// Call is a function or method invocation. Fun is an Ident for free
// functions and builtins, a Member for method calls, or an arbitrary
// expression of pointer-to-function type (not supported in MC++; rejected
// by sema).
type Call struct {
	numbered
	Fun  Expr
	Args []Expr
}

// Cast is a C-style cast `(Type)X`.
type Cast struct {
	numbered
	Type TypeExpr
	X    Expr
}

// New is `new Type(Args)` or `new Type[Len]`.
type New struct {
	numbered
	Type TypeExpr
	Len  Expr // non-nil for array form
	Args []Expr
}

// Delete is `delete X` or `delete[] X`.
type Delete struct {
	numbered
	Array bool
	X     Expr
}

// Sizeof is `sizeof(Type)` or `sizeof expr`; exactly one of Type/X is set.
type Sizeof struct {
	numbered
	Type TypeExpr
	X    Expr
}

// Paren is a parenthesized expression, retained so that positions and
// pretty-printing are faithful.
type Paren struct {
	numbered
	X Expr
}

func (*IntLit) expr()         {}
func (*FloatLit) expr()       {}
func (*CharLit) expr()        {}
func (*BoolLit) expr()        {}
func (*StringLit) expr()      {}
func (*NullLit) expr()        {}
func (*Ident) expr()          {}
func (*ThisExpr) expr()       {}
func (*QualifiedIdent) expr() {}
func (*Unary) expr()          {}
func (*Postfix) expr()        {}
func (*Binary) expr()         {}
func (*Assign) expr()         {}
func (*Cond) expr()           {}
func (*Member) expr()         {}
func (*MemberPtrDeref) expr() {}
func (*Index) expr()          {}
func (*Call) expr()           {}
func (*Cast) expr()           {}
func (*New) expr()            {}
func (*Delete) expr()         {}
func (*Sizeof) expr()         {}
func (*Paren) expr()          {}

// Unparen strips any Paren wrappers from e.
func Unparen(e Expr) Expr {
	for {
		p, ok := e.(*Paren)
		if !ok {
			return e
		}
		e = p.X
	}
}
