package types

import (
	"deadmembers/internal/ast"
	"deadmembers/internal/source"
)

// Program is a fully type-checked MC++ program: the class hierarchy, all
// functions, globals, and the side tables binding AST nodes to semantic
// objects.
type Program struct {
	FileSet *source.FileSet
	Files   []*ast.File

	Classes   []*Class // declaration order
	Functions []*Func  // free functions, declaration order (excluding builtins)
	Builtins  []*Func  // predeclared runtime functions
	Globals   []*Var   // global variables, declaration order

	ClassByName map[string]*Class
	FuncByName  map[string]*Func // free functions and builtins

	// Main is the program entry point (free function "main"), or nil.
	Main *Func

	Info *Info
}

// Info holds the AST-to-semantics side tables produced by type checking,
// in the style of go/types.Info.
//
// The four tables that hold one entry per expression, syntactic type or
// identifier are slices indexed by the node's number (ast.Node.ID),
// read through TypeOf, TypeExprOf, VarOf and FieldOf. Only sema writes
// them, through the Set methods, which number a node the first time
// they record it. The other tables stay maps: together they hold a few
// entries per class, call site or declaration, and a slice as long as
// the node count for each would cost more than the map.
//
// An Info answers only for its own compilation's nodes. A node sema
// never numbered (ID 0: a statement, or a node built after compilation,
// as strip does while rewriting) reads nil from every accessor, as a
// map miss would; a node numbered by another compilation reads whatever
// this one recorded under the same number.
type Info struct {
	// types holds, by node ID, the type of every expression (expressions
	// of void type, such as calls to void functions, hold VoidType) and
	// of every syntactic type. An expression and a syntactic type never
	// share a node, so one slice serves TypeOf and TypeExprOf.
	types []Type

	// vars holds, by node ID, the variable (local, parameter, or global)
	// an identifier use denotes.
	vars []*Var

	// fields holds, by node ID, the data member of the enclosing class an
	// identifier inside a method body denotes (an implicit this-> access).
	fields []*Field

	// nodes is the last node number handed out.
	nodes int

	// FieldRefs maps member-access expressions that denote data members
	// (after member lookup, including accesses inherited from base
	// classes) to the resolved field.
	FieldRefs map[*ast.Member]*Field

	// MethodRefs maps member-access expressions used as call callees to
	// the statically resolved method (the lookup result; dynamic dispatch
	// may select an override at run time).
	MethodRefs map[*ast.Member]*Func

	// QualFieldRefs maps `C::m` qualified-identifier expressions (used in
	// pointer-to-member constants `&C::m`) to the resolved field.
	QualFieldRefs map[*ast.QualifiedIdent]*Field

	// IdentFuncs maps identifier call callees to free functions/builtins.
	IdentFuncs map[*ast.Ident]*Func

	// IdentMethods maps identifier call callees inside method bodies that
	// resolve to methods of the enclosing class (implicit `this->` calls).
	IdentMethods map[*ast.Ident]*Func

	// VarTypes maps every variable declaration (global and local) to its
	// resolved type.
	VarTypes map[*ast.VarDecl]Type

	// VarObjects maps variable declarations to their semantic object.
	VarObjects map[*ast.VarDecl]*Var

	// CtorInitFields resolves constructor-initializer entries naming data
	// members; CtorInitBases resolves entries naming base classes.
	CtorInitFields map[*ast.CtorInit]*Field
	CtorInitBases  map[*ast.CtorInit]*Class

	// NewCtors maps `new C(...)` expressions to the constructor they
	// invoke (nil when the class has no user-declared constructor).
	NewCtors map[*ast.New]*Func

	// VarCtors maps class-typed variable declarations to the constructor
	// used to initialize them (nil for default zero-init of ctor-less
	// classes).
	VarCtors map[*ast.VarDecl]*Func

	// UnsafeCasts records cast expressions classified as unsafe
	// (downcasts or pointer reinterpretation between unrelated types);
	// the value is the static class whose members the paper's algorithm
	// must conservatively mark fully live (the source type S of `(T)e`).
	UnsafeCasts map[*ast.Cast]*Class

	// EnclosingFunc maps each function body to its Func object, and
	// records for every Call expression the Func in which it occurs.
	CallSites map[*ast.Call]*Func
}

// NewInfo returns an Info with all maps allocated and room in the
// node-indexed tables for the given number of nodes. The parser's count
// of expressions and syntactic types (ast.File.Nodes) bounds what sema
// numbers, so the tables are allocated once; with 0 (a hand-built tree)
// they grow as sema records.
func NewInfo(nodes int) *Info {
	return &Info{
		types:          make([]Type, 1, nodes+1),
		vars:           make([]*Var, 1, nodes+1),
		fields:         make([]*Field, 1, nodes+1),
		FieldRefs:      map[*ast.Member]*Field{},
		MethodRefs:     map[*ast.Member]*Func{},
		QualFieldRefs:  map[*ast.QualifiedIdent]*Field{},
		IdentFuncs:     map[*ast.Ident]*Func{},
		IdentMethods:   map[*ast.Ident]*Func{},
		VarTypes:       map[*ast.VarDecl]Type{},
		VarObjects:     map[*ast.VarDecl]*Var{},
		CtorInitFields: map[*ast.CtorInit]*Field{},
		CtorInitBases:  map[*ast.CtorInit]*Class{},
		NewCtors:       map[*ast.New]*Func{},
		VarCtors:       map[*ast.VarDecl]*Func{},
		UnsafeCasts:    map[*ast.Cast]*Class{},
		CallSites:      map[*ast.Call]*Func{},
	}
}

// Nodes returns how many nodes this Info numbered.
func (i *Info) Nodes() int { return i.nodes }

// TypeOf returns the recorded type of e, or nil.
func (i *Info) TypeOf(e ast.Expr) Type { return at(i.types, e.ID()) }

// TypeExprOf returns the semantic type of the syntactic type te, or nil.
func (i *Info) TypeExprOf(te ast.TypeExpr) Type { return at(i.types, te.ID()) }

// VarOf returns the variable the identifier x denotes, or nil.
func (i *Info) VarOf(x *ast.Ident) *Var { return at(i.vars, x.ID()) }

// FieldOf returns the data member of the enclosing class the identifier
// x denotes (an implicit this-> access), or nil.
func (i *Info) FieldOf(x *ast.Ident) *Field { return at(i.fields, x.ID()) }

// SetType records t as the type of expression e.
func (i *Info) SetType(e ast.Expr, t Type) { i.types = put(i.types, i.number(e), t) }

// SetTypeExpr records t as the semantic type of the syntactic type te.
func (i *Info) SetTypeExpr(te ast.TypeExpr, t Type) { i.types = put(i.types, i.number(te), t) }

// SetVar records that the identifier x denotes the variable v.
func (i *Info) SetVar(x *ast.Ident, v *Var) { i.vars = put(i.vars, i.number(x), v) }

// SetField records that the identifier x denotes the data member f.
func (i *Info) SetField(x *ast.Ident, f *Field) { i.fields = put(i.fields, i.number(x), f) }

// number returns n's ID, numbering n the first time it is recorded.
func (i *Info) number(n ast.Numbered) int {
	id := n.ID()
	if id == 0 {
		i.nodes++
		id = i.nodes
		n.SetID(id)
	}
	return id
}

// at returns s[id], or the zero value when id is past the table.
func at[T any](s []T, id int) T {
	if id < len(s) {
		return s[id]
	}
	var zero T
	return zero
}

// put stores v at s[id], extending s to reach id first: within its
// capacity when NewInfo was given a count, by growing it otherwise.
func put[T any](s []T, id int, v T) []T {
	if id >= len(s) {
		s = append(s, make([]T, id+1-len(s))...)
	}
	s[id] = v
	return s
}

// AllFuncs returns every function with a body: free functions followed by
// all methods of all classes, in declaration order.
func (p *Program) AllFuncs() []*Func {
	var out []*Func
	out = append(out, p.Functions...)
	for _, c := range p.Classes {
		out = append(out, c.Methods...)
	}
	return out
}

// TotalDataMembers counts data members across the given classes.
func TotalDataMembers(classes []*Class) int {
	n := 0
	for _, c := range classes {
		n += len(c.Fields)
	}
	return n
}
