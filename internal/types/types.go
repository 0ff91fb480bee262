// Package types defines the semantic type representations and the typed
// program model for MC++.
//
// It is the shared vocabulary of the toolchain: the sema package constructs
// Class/Field/Func objects and attaches them to AST nodes through the Info
// side tables; the hierarchy, callgraph, deadmember, and interp packages
// consume them.
package types

import (
	"fmt"
	"strings"

	"deadmembers/internal/ast"
	"deadmembers/internal/source"
)

// Type is the interface implemented by all MC++ types.
type Type interface {
	String() string
	isType()
}

// BasicKind enumerates the builtin scalar types.
type BasicKind int

// Builtin scalar kinds.
const (
	Void BasicKind = iota
	Bool
	Char
	Int
	Double
)

// Basic is a builtin scalar type. Use the package-level singletons.
type Basic struct {
	Kind BasicKind
	name string
}

// Singleton basic types; pointer identity comparisons are valid.
var (
	VoidType   = &Basic{Void, "void"}
	BoolType   = &Basic{Bool, "bool"}
	CharType   = &Basic{Char, "char"}
	IntType    = &Basic{Int, "int"}
	DoubleType = &Basic{Double, "double"}
)

func (b *Basic) String() string { return b.name }
func (*Basic) isType()          {}

// Pointer is `Elem*`. The null pointer constant has type Pointer{VoidType}.
type Pointer struct {
	Elem Type
}

func (p *Pointer) String() string { return p.Elem.String() + "*" }
func (*Pointer) isType()          {}

// Array is a fixed-size array `Elem[Len]`.
type Array struct {
	Elem Type
	Len  int
}

func (a *Array) String() string { return fmt.Sprintf("%s[%d]", a.Elem, a.Len) }
func (*Array) isType()          {}

// MemberPointer is a pointer-to-data-member type `Elem Class::*`.
type MemberPointer struct {
	Class *Class
	Elem  Type
}

func (m *MemberPointer) String() string {
	return fmt.Sprintf("%s %s::*", m.Elem, m.Class.Name)
}
func (*MemberPointer) isType() {}

// ClassKind mirrors ast.ClassKind at the semantic level.
type ClassKind int

// Semantic class kinds.
const (
	ClassClass ClassKind = iota
	ClassStruct
	ClassUnion
)

// String returns the declaring keyword.
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

// Base is one base-class edge of a class.
type Base struct {
	Class   *Class
	Virtual bool
}

// Class is a class, struct, or union type.
type Class struct {
	Name    string
	Kind    ClassKind
	Bases   []Base
	Fields  []*Field
	Methods []*Func
	Pos     source.Pos

	// Library marks classes designated by the user as belonging to a
	// library whose full source is unavailable; the analysis treats their
	// members conservatively (Section 3.3 of the paper).
	Library bool

	// Complete is false for forward declarations never given a body.
	Complete bool

	// Decl is the defining AST node, if any.
	Decl *ast.ClassDecl
}

func (c *Class) String() string { return c.Name }
func (*Class) isType()          {}

// IsUnion reports whether the class was declared with `union`.
func (c *Class) IsUnion() bool { return c.Kind == ClassUnion }

// FieldByName returns the field declared directly in c (not in bases)
// with the given name, or nil.
func (c *Class) FieldByName(name string) *Field {
	for _, f := range c.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// MethodByName returns the method declared directly in c with the given
// name, or nil.
func (c *Class) MethodByName(name string) *Func {
	for _, m := range c.Methods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Ctors returns the constructors declared in c.
func (c *Class) Ctors() []*Func {
	var out []*Func
	for _, m := range c.Methods {
		if m.IsCtor {
			out = append(out, m)
		}
	}
	return out
}

// CtorByArity returns the constructor of c taking n parameters, or nil.
// MC++ permits constructor overloading by parameter count only.
func (c *Class) CtorByArity(n int) *Func {
	for _, m := range c.Methods {
		if m.IsCtor && len(m.Params) == n {
			return m
		}
	}
	return nil
}

// Dtor returns the destructor of c, or nil.
func (c *Class) Dtor() *Func {
	for _, m := range c.Methods {
		if m.IsDtor {
			return m
		}
	}
	return nil
}

// HasVirtualMethods reports whether c declares any virtual method
// (directly; inherited virtuality is computed by the hierarchy package).
func (c *Class) HasVirtualMethods() bool {
	for _, m := range c.Methods {
		if m.Virtual {
			return true
		}
	}
	return false
}

// Field is a non-static data member.
type Field struct {
	Name     string
	Type     Type
	Volatile bool
	Owner    *Class
	Index    int // position within Owner.Fields
	ID       int // position among all fields of the program, in declaration order
	Pos      source.Pos
	Decl     *ast.FieldDecl
}

// QualifiedName returns "Owner::Name".
func (f *Field) QualifiedName() string { return f.Owner.Name + "::" + f.Name }

// String returns the qualified name.
func (f *Field) String() string { return f.QualifiedName() }

// Var is a local variable, parameter, or global variable.
type Var struct {
	Name   string
	Type   Type
	Global bool

	// AddrTaken reports that the program takes the variable's address:
	// some & has, through parentheses, an identifier naming it as its
	// operand. MC++ has no references and no conditional or assignment
	// lvalues, so that is the only way to reach the variable's cell, and
	// a local or parameter without it cannot outlive its activation (the
	// runtime reuses its cell). &p[i] and *p take the pointee's address,
	// not p's. A global's cell lives for the whole run whatever this says.
	AddrTaken bool

	Pos  source.Pos
	Decl *ast.VarDecl // nil for parameters
}

func (v *Var) String() string { return v.Name }

// Func is a free function or a method.
type Func struct {
	Name    string
	Owner   *Class // nil for free functions
	Params  []*Var
	Return  Type // nil means void (and for ctors/dtors)
	Virtual bool
	Pure    bool
	IsCtor  bool
	IsDtor  bool
	Builtin bool // predeclared runtime function (print, malloc, ...)
	Pos     source.Pos
	Body    *ast.BlockStmt
	Inits   []ast.CtorInit // constructor member-initializer list
	Decl    ast.Node       // *ast.FuncDecl or *ast.MethodDecl

	// NodeLo and NodeHi bound the node numbers (ast.Node.ID) sema gave
	// while checking the function's initializers and body: every
	// expression and syntactic type in them is numbered in NodeLo..NodeHi,
	// one contiguous run. NodeLo > NodeHi when sema numbered none, and
	// both are 0 for a function without a body.
	NodeLo, NodeHi int
}

// QualifiedName returns "Class::name" for methods and "name" otherwise.
func (f *Func) QualifiedName() string {
	if f.Owner != nil {
		return f.Owner.Name + "::" + f.Name
	}
	return f.Name
}

// String returns the qualified name plus a parameter-count signature.
func (f *Func) String() string {
	var b strings.Builder
	b.WriteString(f.QualifiedName())
	b.WriteString("(")
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		if p.Type == nil {
			b.WriteString("?") // signature not yet resolved
		} else {
			b.WriteString(p.Type.String())
		}
	}
	b.WriteString(")")
	return b.String()
}

// Identical reports structural type equality. Classes compare by pointer
// identity (one Class object per declaration).
func Identical(a, b Type) bool {
	if a == b {
		return true
	}
	switch x := a.(type) {
	case *Basic:
		y, ok := b.(*Basic)
		return ok && x.Kind == y.Kind
	case *Pointer:
		y, ok := b.(*Pointer)
		return ok && Identical(x.Elem, y.Elem)
	case *Array:
		y, ok := b.(*Array)
		return ok && x.Len == y.Len && Identical(x.Elem, y.Elem)
	case *MemberPointer:
		y, ok := b.(*MemberPointer)
		return ok && x.Class == y.Class && Identical(x.Elem, y.Elem)
	}
	return false
}

// IsPointer reports whether t is a pointer type.
func IsPointer(t Type) bool {
	_, ok := t.(*Pointer)
	return ok
}

// IsClass returns the class if t is a class type, else nil.
func IsClass(t Type) *Class {
	c, _ := t.(*Class)
	return c
}

// ArrayElem returns t with every array layer stripped: T for T[n][m],
// and t itself when t is no array.
func ArrayElem(t Type) Type {
	for {
		a, ok := t.(*Array)
		if !ok {
			return t
		}
		t = a.Elem
	}
}

// Contained calls yield on c and on every class a value of class c
// contains by value — the classes of its bases and of its members,
// through arrays — transitively, each once. A class in seen is skipped,
// with every class reached only through it, and each class yielded is
// added to seen, so calls sharing one seen map visit each class once in
// all. A nil c yields nothing.
func Contained(c *Class, seen map[*Class]bool, yield func(*Class)) {
	if c == nil || seen[c] {
		return
	}
	seen[c] = true
	yield(c)
	for _, f := range c.Fields {
		Contained(IsClass(ArrayElem(f.Type)), seen, yield)
	}
	for _, b := range c.Bases {
		Contained(b.Class, seen, yield)
	}
}

// RunsUserDtor reports whether destroying a value of class c runs a
// user-declared destructor: its own, a base's, or a member's, through
// arrays. It is false for a nil c.
func RunsUserDtor(c *Class) bool {
	runs := false
	if c != nil {
		Contained(c, map[*Class]bool{}, func(k *Class) { runs = runs || k.Dtor() != nil })
	}
	return runs
}

// PointeeClass returns the class C if t is C* (possibly through arrays of
// C), else nil.
func PointeeClass(t Type) *Class {
	if p, ok := t.(*Pointer); ok {
		return IsClass(p.Elem)
	}
	return nil
}

// Deref returns Elem for pointer and array types, else nil.
func Deref(t Type) Type {
	switch x := t.(type) {
	case *Pointer:
		return x.Elem
	case *Array:
		return x.Elem
	}
	return nil
}

// IsVoid reports whether t is void (or nil, which stands for void returns).
func IsVoid(t Type) bool {
	if t == nil {
		return true
	}
	b, ok := t.(*Basic)
	return ok && b.Kind == Void
}
