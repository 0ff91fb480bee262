package lint

import (
	"context"
	"fmt"

	"deadmembers/internal/ast"
	"deadmembers/internal/cfg"
	"deadmembers/internal/dataflow"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/heaplive"
	"deadmembers/internal/source"
	"deadmembers/internal/token"
	"deadmembers/internal/types"
)

// The dead-store check: backward may-liveness of member-access
// *locations* over the function's CFG. A location is a length-one
// access path (base, field) — base is a local, parameter, or global
// variable, or nil for the implicit this — and only syntactically
// direct stores (`v.m = e`, `p->m = e`, `m = e` inside a method, and
// constructor initializers) create trackable locations. Everything the
// tracker cannot see (aliases, whole-object copies, calls, mutation of
// the base) conservatively *generates* liveness, so a store reported
// dead really is overwritten-or-discarded on every path: findings are
// may-liveness-sound, false negatives are the accepted cost.

// loc is one tracked member-access location.
type loc struct {
	base  *types.Var // nil = the implicit this
	field *types.Field
}

// funcState carries one function's dead-store pass.
type funcState struct {
	ar   *deadmember.Result
	info *types.Info
	f    *types.Func
	cl   *classification
	sup  map[*types.Field]bool
	call *fieldSet // what a call out of f may read (callee union)

	g *cfg.Graph

	locs    []loc
	bit     map[loc]int
	byField map[*types.Field][]int
	byBase  map[*types.Var][]int // nil key = this
	all     dataflow.BitSet      // every bit
}

// deadStores runs the dead-store check on one reachable function whose
// CFG the caller already built (it is shared with the heap-tier pass).
// The returned error is a dataflow budget overrun or a context
// cancellation; findings are nil in that case.
func deadStores(ar *deadmember.Result, f *types.Func, g *cfg.Graph, cl *classification, sup map[*types.Field]bool, call *fieldSet, opts Options, ctx context.Context) ([]Finding, error) {
	fs := &funcState{
		ar: ar, info: ar.Program.Info, f: f, cl: cl, sup: sup, call: call, g: g,
		bit: map[loc]int{}, byField: map[*types.Field][]int{}, byBase: map[*types.Var][]int{},
	}
	fs.collectLocations()
	if len(fs.locs) == 0 {
		return nil, nil
	}
	fs.all = dataflow.NewBitSet(len(fs.locs))
	fs.all.SetAll(len(fs.locs))

	n := len(g.Blocks)
	p := dataflow.Problem{
		NumBlocks: n,
		Succs:     make([][]int, n),
		Bits:      len(fs.locs),
		Gen:       make([]dataflow.BitSet, n),
		Kill:      make([]dataflow.BitSet, n),
		Boundary:  fs.exitLive(),
		Budget:    opts.Budget,
		Ctx:       ctx,
		Unit:      f.QualifiedName(),
		Dir:       dataflow.Backward,
	}
	for i, b := range g.Blocks {
		p.Succs[i] = make([]int, len(b.Succs))
		for j, s := range b.Succs {
			p.Succs[i][j] = s.ID
		}
		p.Gen[i], p.Kill[i] = fs.blockTransfer(b)
	}

	sol, err := dataflow.Solve(p)
	if err != nil {
		return nil, err
	}

	// Flag walk: replay each reachable block backward from its Out set;
	// a candidate store whose location is not live at the store is dead.
	var out []Finding
	gen := dataflow.NewBitSet(len(fs.locs))
	kill := dataflow.NewBitSet(len(fs.locs))
	for i, b := range g.Blocks {
		if !b.Reachable {
			continue
		}
		live := sol.Out[i].Clone()
		for j := len(b.Nodes) - 1; j >= 0; j-- {
			node := b.Nodes[j]
			if l, at, ok := fs.storeAt(node); ok {
				if bit, tracked := fs.bit[l]; tracked && !live.Has(bit) {
					out = append(out, fs.finding(node, l, at))
				}
			}
			gen.Reset()
			kill.Reset()
			fs.atomEffect(node, gen, kill)
			live.AndNot(kill)
			live.Union(gen)
		}
	}
	return out, nil
}

// collectLocations builds the bit universe: one bit per distinct
// eligible candidate-store location, numbered in block/atom order so
// the vectors — and therefore Steps and findings — are deterministic.
func (fs *funcState) collectLocations() {
	for _, b := range fs.g.Blocks {
		for _, n := range b.Nodes {
			l, _, ok := fs.storeAt(n)
			if !ok {
				continue
			}
			if _, dup := fs.bit[l]; dup {
				continue
			}
			id := len(fs.locs)
			fs.bit[l] = id
			fs.locs = append(fs.locs, l)
			fs.byField[l.field] = append(fs.byField[l.field], id)
			fs.byBase[l.base] = append(fs.byBase[l.base], id)
		}
	}
}

// storeAt recognizes candidate-store atoms and returns the stored
// location. Ineligible stores (suppressed field, escaped base) are not
// candidates: their locations never enter the universe.
func (fs *funcState) storeAt(n ast.Node) (loc, source.Pos, bool) {
	var l loc
	var at source.Pos
	switch x := n.(type) {
	case *ast.CtorInit:
		fld := fs.info.CtorInitFields[x]
		if fld == nil {
			return l, at, false
		}
		l = loc{base: nil, field: fld}
		at = x.Pos()
	case *ast.Member:
		if fs.cl.acc[x] != accWrite {
			return l, at, false
		}
		fld := fs.info.FieldRefs[x]
		if fld == nil {
			return l, at, false
		}
		switch recv := ast.Unparen(x.X).(type) {
		case *ast.ThisExpr:
			l = loc{base: nil, field: fld}
		case *ast.Ident:
			v := fs.info.VarOf(recv)
			if v == nil {
				return l, at, false
			}
			l = loc{base: v, field: fld}
		default:
			return l, at, false
		}
		at = x.Pos()
	case *ast.Ident:
		if fs.cl.acc[x] != accWrite {
			return l, at, false
		}
		fld := fs.info.FieldOf(x)
		if fld == nil {
			return l, at, false
		}
		l = loc{base: nil, field: fld}
		at = x.Pos()
	default:
		return l, at, false
	}
	if fs.sup[l.field] || (l.base != nil && fs.cl.escaped[l.base]) {
		return l, at, false
	}
	return l, at, true
}

// exitLive is the boundary vector — locations observable after the
// function returns: members of this (the object outlives the call),
// members reached through globals or pointers, and members of value
// locals whose class runs a user destructor at scope exit.
func (fs *funcState) exitLive() dataflow.BitSet {
	out := dataflow.NewBitSet(len(fs.locs))
	for i, l := range fs.locs {
		switch {
		case l.base == nil, l.base.Global:
			out.Set(i)
		case types.IsPointer(l.base.Type):
			out.Set(i)
		case heaplive.HasUserDtor(types.IsClass(l.base.Type)):
			out.Set(i)
		}
	}
	return out
}

// blockTransfer composes the block's atoms into one gen/kill pair.
// Walking atoms last-to-first with the new atom as the outer transfer:
// G' = g ∪ (G − k), K' = K ∪ k.
func (fs *funcState) blockTransfer(b *cfg.Block) (gen, kill dataflow.BitSet) {
	gen = dataflow.NewBitSet(len(fs.locs))
	kill = dataflow.NewBitSet(len(fs.locs))
	g := dataflow.NewBitSet(len(fs.locs))
	k := dataflow.NewBitSet(len(fs.locs))
	for j := len(b.Nodes) - 1; j >= 0; j-- {
		g.Reset()
		k.Reset()
		fs.atomEffect(b.Nodes[j], g, k)
		gen.AndNot(k)
		gen.Union(g)
		kill.Union(k)
	}
	return gen, kill
}

// genField adds liveness for every tracked location of fld, and — when
// the field holds a class value — of every field contained in it
// (copying the member copies its contents).
func (fs *funcState) genField(fld *types.Field, gen dataflow.BitSet) {
	for _, id := range fs.byField[fld] {
		gen.Set(id)
	}
	t := fld.Type
	for {
		if arr, ok := t.(*types.Array); ok {
			t = arr.Elem
			continue
		}
		break
	}
	if c := types.IsClass(t); c != nil {
		fs.genClass(c, gen, map[*types.Class]bool{})
	}
}

// genClass adds liveness for every tracked location whose field is
// contained in c (transitively).
func (fs *funcState) genClass(c *types.Class, gen dataflow.BitSet, seen map[*types.Class]bool) {
	if c == nil || seen[c] {
		return
	}
	seen[c] = true
	for _, f := range c.Fields {
		for _, id := range fs.byField[f] {
			gen.Set(id)
		}
		t := f.Type
		for {
			if arr, ok := t.(*types.Array); ok {
				t = arr.Elem
				continue
			}
			break
		}
		fs.genClass(types.IsClass(t), gen, seen)
	}
	for _, b := range c.Bases {
		fs.genClass(b.Class, gen, seen)
	}
}

// genCall adds the callee read summary: everything a call out of this
// function may read.
func (fs *funcState) genCall(gen dataflow.BitSet) {
	if fs.call == nil {
		gen.Union(fs.all)
		return
	}
	if fs.call.universal {
		gen.Union(fs.all)
		return
	}
	for fld := range fs.call.m {
		fs.genField(fld, gen)
	}
}

// atomEffect computes one atom's gen/kill contribution.
func (fs *funcState) atomEffect(n ast.Node, gen, kill dataflow.BitSet) {
	// A candidate store kills its own location.
	if l, _, ok := fs.storeAt(n); ok {
		if id, tracked := fs.bit[l]; tracked {
			kill.Set(id)
		}
	}

	switch x := n.(type) {
	case *ast.Member:
		if fld := fs.info.FieldRefs[x]; fld != nil && fs.cl.acc[x] == accRead {
			fs.genField(fld, gen)
		}
	case *ast.Ident:
		if fld := fs.info.FieldOf(x); fld != nil {
			if fs.cl.acc[x] == accRead {
				fs.genField(fld, gen)
			}
			return
		}
		if v := fs.info.VarOf(x); v != nil && fs.cl.varAcc[x] == accRead {
			// Copying a class-typed variable reads its members.
			if types.IsClass(v.Type) != nil {
				for _, id := range fs.byBase[v] {
					gen.Set(id)
				}
			}
		}
	case *ast.QualifiedIdent:
		// &C::m — the field is suppressed program-wide; no local effect.
	case *ast.Unary:
		switch x.Op {
		case token.Star:
			// Dereferencing into a class value may read any aliased
			// object's members.
			if types.IsClass(fs.info.TypeOf(x)) != nil {
				gen.Union(fs.all)
			}
		case token.Inc, token.Dec:
			if v := fs.cl.mut[x]; v != nil {
				for _, id := range fs.byBase[v] {
					gen.Set(id)
				}
			}
		}
	case *ast.Postfix:
		if v := fs.cl.mut[x]; v != nil {
			for _, id := range fs.byBase[v] {
				gen.Set(id)
			}
		}
	case *ast.Index:
		if types.IsClass(fs.info.TypeOf(x)) != nil {
			gen.Union(fs.all)
		}
	case *ast.Assign:
		// Mutating a base variable detaches its tracked locations; the
		// values stored before may still be observable through the old
		// object, so they become (conservatively) live.
		if v := fs.cl.mut[x]; v != nil {
			for _, id := range fs.byBase[v] {
				gen.Set(id)
			}
		}
	case *ast.MemberPtrDeref:
		// o.*p reads a statically unknown member.
		gen.Union(fs.all)
	case *ast.Call:
		fs.genCall(gen)
	case *ast.New:
		// Runs a constructor.
		fs.genCall(gen)
	case *ast.Delete:
		// Runs a destructor; the pointee's members are consumed.
		fs.genCall(gen)
		gen.Union(fs.all)
	case *ast.VarDecl:
		if fs.info.VarCtors[x] != nil {
			fs.genCall(gen)
		}
	}
}

// finding builds the dead-store diagnostic for one store site.
func (fs *funcState) finding(n ast.Node, l loc, at source.Pos) Finding {
	pos := fs.ar.Program.FileSet.Position(at)
	what := "store"
	if _, isInit := n.(*ast.CtorInit); isInit {
		what = "initializer"
	}
	obj := "this"
	if l.base != nil {
		obj = l.base.Name
	}
	return Finding{
		Check:  CheckDeadStore,
		File:   pos.File,
		Line:   pos.Line,
		Col:    pos.Column,
		Member: l.field.QualifiedName(),
		Func:   fs.f.QualifiedName(),
		Message: fmt.Sprintf("dead %s to %s.%s: no path reads %s before it is overwritten or discarded",
			what, obj, l.field.Name, l.field.Name),
	}
}
