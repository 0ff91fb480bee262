package interp

import (
	"math"
	"reflect"
	"testing"

	"deadmembers/internal/types"
)

// TestValueSize: a Value holds a kind, one scalar word and one reference
// word, so every cell, stack slot and object slab carries one pointer
// word per value.
func TestValueSize(t *testing.T) {
	if n := reflect.TypeOf(Value{}).Size(); n > 24 {
		t.Errorf("interp.Value is %d bytes, want at most 24", n)
	}
}

// TestAccessorsPerKind: each accessor returns its kind's payload, and
// for every other kind the zero payload, as the per-kind fields of the
// old layout did (Int of a KDouble is 0, Obj of a KPtr is nil). A scalar
// holds nothing in the reference word.
func TestAccessorsPerKind(t *testing.T) {
	obj := &Object{}
	fld := &types.Field{Name: "f"}
	cells := cellSlab(2)
	ptr := ObjectPointer(obj)
	type payload struct {
		i     int64
		f     float64
		p     *Pointer
		mp    *types.Field
		o     *Object
		cells []*Cell
	}
	for _, tc := range []struct {
		name string
		v    Value
		want payload
	}{
		{"void", Value{}, payload{}},
		{"int", IntValue(-7), payload{i: -7}},
		{"char", CharValue('a'), payload{i: 'a'}},
		{"bool", BoolValue(true), payload{i: 1}},
		{"double", DoubleValue(2.5), payload{f: 2.5}},
		{"null", NullValue(), payload{p: nullPtr}},
		{"ptr", ptr, payload{p: ptr.Ptr()}},
		{"null member ptr", Value{K: KMemberPtr}, payload{}},
		{"member ptr", MemberPtrValue(fld), payload{mp: fld}},
		{"obj", ObjValue(obj), payload{o: obj}},
		{"arr", arrV(cells), payload{cells: cells}},
	} {
		got := payload{tc.v.Int(), tc.v.Float(), tc.v.Ptr(), tc.v.MemberPtr(), tc.v.Obj(), tc.v.Cells()}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: accessors read %+v, want %+v", tc.name, got, tc.want)
		}
		if tc.v.K <= KDouble && tc.v.ref != nil {
			t.Errorf("%s: a scalar holds a reference", tc.name)
		}
	}
	if ptr.Ptr().Obj != obj {
		t.Errorf("ObjectPointer does not point at its object")
	}
}

// TestStoreScalar: a scalar stored over a scalar writes the kind and the
// scalar word, and anything else is a full copy that clears or sets the
// reference word.
func TestStoreScalar(t *testing.T) {
	v := IntValue(3)
	StoreScalar(&v, DoubleValue(-1.5))
	if v.K != KDouble || v.Float() != -1.5 || v.Int() != 0 {
		t.Errorf("double over int: %v (Int %d)", v, v.Int())
	}
	StoreScalar(&v, NullValue())
	if v.Ptr() != nullPtr || v.Float() != 0 {
		t.Errorf("pointer over double: %v", v)
	}
	StoreScalar(&v, CharValue('x'))
	if v.K != KChar || v.ref != nil || v.Int() != 'x' {
		t.Errorf("char over pointer kept its reference: %v", v)
	}
}

// TestNegativeZero: the double's bits tell -0.0 from 0.0, but Values
// compare and convert through their numbers, so -0.0 is false and 0.
func TestNegativeZero(t *testing.T) {
	v := DoubleValue(math.Copysign(0, -1))
	if v.IsTruthy() || v.AsInt() != 0 || v.AsFloat() != 0 {
		t.Errorf("-0.0: truthy %v, AsInt %d, AsFloat %v", v.IsTruthy(), v.AsInt(), v.AsFloat())
	}
}
