package lint

import (
	"slices"
	"strings"

	"deadmembers/internal/ast"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/types"
)

// The heap tier's candidates: stores through a chain of member
// references (o.in.val, p->next->val), which the flow tier's
// length-one paths cannot see. Liveness at each program point is a set
// of access paths of 2..maxDepth fields rooted at locals, parameters,
// globals or the implicit this — the per-root access graph of Khedker,
// Sanyal and Karkare flattened into the finite universe of the
// function's candidate store paths. Aliasing is covered without an
// alias analysis: a read gens every tracked path that ends in its
// field, whatever the root, and a store to a field at a non-final
// position re-points (gens, never kills) the paths through it.

// chainStore recognizes the heap tier's candidate stores: a direct
// store through a member chain of 2..maxDepth fields.
func (s *storePass) chainStore(n ast.Node) (path, bool) {
	m, ok := n.(*ast.Member)
	if !ok || s.cl.at(m).acc != deadmember.AccWrite {
		return path{}, false
	}
	p, ok := s.pathOf(m)
	if !ok || p.n < 2 {
		return path{}, false
	}
	return p, s.trackable(p)
}

// pathOf spells the access path of a member expression: the receiver
// chain must bottom out at a plain variable, this, or an implicit-this
// member, every step a resolved field, within maxDepth fields.
func (s *storePass) pathOf(m *ast.Member) (path, bool) {
	var p path
	push := func(f *types.Field) bool {
		if f == nil || p.n == maxDepth {
			return false
		}
		p.fields[p.n] = f
		p.n++
		return true
	}
	var node ast.Expr = m
	for {
		mm, ok := ast.Unparen(node).(*ast.Member)
		if !ok {
			break
		}
		if !push(s.info().FieldRefs[mm]) {
			return path{}, false
		}
		node = mm.X
	}
	switch base := ast.Unparen(node).(type) {
	case *ast.ThisExpr:
	case *ast.Ident:
		if fld := s.info().FieldOf(base); fld != nil {
			if !push(fld) { // implicit this->fld
				return path{}, false
			}
		} else if p.root = s.info().VarOf(base); p.root == nil {
			return path{}, false
		}
	default:
		return path{}, false
	}
	slices.Reverse(p.fields[:p.n])
	return p, true
}

// String renders the path the way source would spell it, with -> after
// this and after pointer-typed steps.
func (p path) String() string {
	var b strings.Builder
	var prev types.Type
	if p.root == nil {
		b.WriteString("this")
	} else {
		b.WriteString(p.root.Name)
		prev = p.root.Type
	}
	for i, f := range p.fields[:p.n] {
		if (p.root == nil && i == 0) || types.IsPointer(prev) {
			b.WriteString("->")
		} else {
			b.WriteString(".")
		}
		b.WriteString(f.Name)
		prev = f.Type
	}
	return b.String()
}
