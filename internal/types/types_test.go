package types

import (
	"strings"
	"testing"
)

func TestIdentical(t *testing.T) {
	c1 := &Class{Name: "C", Complete: true}
	c2 := &Class{Name: "C", Complete: true} // same name, different declaration
	cases := []struct {
		a, b Type
		want bool
	}{
		{IntType, IntType, true},
		{IntType, CharType, false},
		{&Pointer{Elem: IntType}, &Pointer{Elem: IntType}, true},
		{&Pointer{Elem: IntType}, &Pointer{Elem: CharType}, false},
		{&Array{Elem: IntType, Len: 3}, &Array{Elem: IntType, Len: 3}, true},
		{&Array{Elem: IntType, Len: 3}, &Array{Elem: IntType, Len: 4}, false},
		{c1, c1, true},
		{c1, c2, false}, // classes compare by identity
		{&MemberPointer{Class: c1, Elem: IntType}, &MemberPointer{Class: c1, Elem: IntType}, true},
		{&MemberPointer{Class: c1, Elem: IntType}, &MemberPointer{Class: c2, Elem: IntType}, false},
	}
	for _, tc := range cases {
		if got := Identical(tc.a, tc.b); got != tc.want {
			t.Errorf("Identical(%s, %s) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestTypePredicates(t *testing.T) {
	c := &Class{Name: "C"}
	if !IsPointer(&Pointer{Elem: c}) || IsPointer(c) {
		t.Error("IsPointer wrong")
	}
	if IsClass(c) != c || IsClass(IntType) != nil {
		t.Error("IsClass wrong")
	}
	if PointeeClass(&Pointer{Elem: c}) != c || PointeeClass(c) != nil {
		t.Error("PointeeClass wrong")
	}
	if Deref(&Pointer{Elem: IntType}) != IntType {
		t.Error("Deref pointer wrong")
	}
	if Deref(&Array{Elem: CharType, Len: 2}) != CharType {
		t.Error("Deref array wrong")
	}
	if Deref(IntType) != nil {
		t.Error("Deref scalar should be nil")
	}
	if !IsVoid(VoidType) || !IsVoid(nil) || IsVoid(IntType) {
		t.Error("IsVoid wrong")
	}
}

func TestTypeStrings(t *testing.T) {
	c := &Class{Name: "Widget"}
	cases := map[Type]string{
		IntType:                                 "int",
		&Pointer{Elem: c}:                       "Widget*",
		&Array{Elem: IntType, Len: 8}:           "int[8]",
		&MemberPointer{Class: c, Elem: IntType}: "int Widget::*",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%T renders %q, want %q", typ, got, want)
		}
	}
}

func TestClassAccessors(t *testing.T) {
	c := &Class{Name: "C", Complete: true}
	f := &Field{Name: "x", Type: IntType, Owner: c}
	c.Fields = append(c.Fields, f)
	ctor0 := &Func{Name: "C", Owner: c, IsCtor: true}
	ctor2 := &Func{Name: "C", Owner: c, IsCtor: true, Params: []*Var{{Type: IntType}, {Type: CharType}}}
	dtor := &Func{Name: "~C", Owner: c, IsDtor: true}
	m := &Func{Name: "go", Owner: c, Virtual: true}
	c.Methods = []*Func{ctor0, ctor2, dtor, m}

	if c.FieldByName("x") != f || c.FieldByName("y") != nil {
		t.Error("FieldByName wrong")
	}
	if c.MethodByName("go") != m {
		t.Error("MethodByName wrong")
	}
	if len(c.Ctors()) != 2 {
		t.Error("Ctors wrong")
	}
	if c.CtorByArity(0) != ctor0 || c.CtorByArity(2) != ctor2 || c.CtorByArity(1) != nil {
		t.Error("CtorByArity wrong")
	}
	if c.Dtor() != dtor {
		t.Error("Dtor wrong")
	}
	if !c.HasVirtualMethods() {
		t.Error("HasVirtualMethods wrong")
	}
	if f.QualifiedName() != "C::x" {
		t.Error("QualifiedName wrong")
	}
	if m.QualifiedName() != "C::go" {
		t.Error("method QualifiedName wrong")
	}
	if s := ctor2.String(); s != "C::C(int, char)" {
		t.Errorf("Func.String = %q", s)
	}
}

func TestClassKindString(t *testing.T) {
	if ClassClass.String() != "class" || ClassStruct.String() != "struct" || ClassUnion.String() != "union" {
		t.Error("class kind names wrong")
	}
}

func TestTotalDataMembers(t *testing.T) {
	a := &Class{Name: "A", Fields: []*Field{{}, {}}}
	b := &Class{Name: "B", Fields: []*Field{{}}}
	if got := TotalDataMembers([]*Class{a, b}); got != 3 {
		t.Errorf("TotalDataMembers = %d, want 3", got)
	}
}

// TestContained: a class contains its bases' classes and its members'
// classes through arrays, not the classes its pointers reach, and a
// shared seen set visits each class once across calls.
func TestContained(t *testing.T) {
	dtor := &Func{Name: "~Leaf", IsDtor: true}
	leaf := &Class{Name: "Leaf", Methods: []*Func{dtor}}
	base := &Class{Name: "Base"}
	far := &Class{Name: "Far"}
	top := &Class{Name: "Top", Bases: []Base{{Class: base}}, Fields: []*Field{
		{Name: "grid", Type: &Array{Elem: &Array{Elem: leaf, Len: 2}, Len: 3}},
		{Name: "ptr", Type: &Pointer{Elem: far}},
	}}
	if got := ArrayElem(top.Fields[0].Type); got != leaf {
		t.Errorf("ArrayElem(Leaf[3][2]) = %v, want Leaf", got)
	}
	if got := ArrayElem(IntType); got != IntType {
		t.Errorf("ArrayElem(int) = %v, want int", got)
	}

	var names []string
	seen := map[*Class]bool{}
	collect := func(c *Class) { names = append(names, c.Name) }
	Contained(top, seen, collect)
	if got := strings.Join(names, " "); got != "Top Leaf Base" {
		t.Errorf("Contained(Top) yielded %q, want \"Top Leaf Base\"", got)
	}
	names = nil
	Contained(base, seen, collect)
	Contained(nil, seen, collect)
	if len(names) != 0 {
		t.Errorf("a shared seen set yielded %q again", names)
	}
	if !RunsUserDtor(top) || RunsUserDtor(base) || RunsUserDtor(nil) {
		t.Error("RunsUserDtor: only Top, through its Leaf array, runs a user destructor")
	}
	if RunsUserDtor(&Class{Name: "Holder", Fields: []*Field{{Name: "p", Type: &Pointer{Elem: leaf}}}}) {
		t.Error("RunsUserDtor: destroying a pointer member runs no destructor")
	}
}
