package lint

import (
	"context"
	"fmt"

	"deadmembers/internal/ast"
	"deadmembers/internal/cfg"
	"deadmembers/internal/dataflow"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/token"
	"deadmembers/internal/types"
)

// The dead-store check, at the flow and the heap tier alike, is one
// backward may-liveness problem over the function's CFG. Its facts are
// the tier's candidate stores, each a bounded access path
// root.f1...fk: root is a local, parameter, or global variable, or nil
// for the implicit this. The flow tier's candidates have one field
// (`v.m = e`, `p->m = e`, `m = e` inside a method, and constructor
// initializers); the heap tier's are chains of 2..maxDepth fields
// (`o.in.val = e`, `p->in.val = e`, heap.go). A length-one path is the
// k = 1 case of the bounded access paths of Khedker, Sanyal and
// Karkare's access graphs, so both tiers share the core below and
// differ only in their candidates, in a few atom rules, and in their
// finding text.
//
// A candidate store kills exactly its own path. Everything the tracker
// cannot see (aliases, whole-object copies, calls, mutation of the
// root) conservatively *generates* liveness, so a store reported dead
// really is overwritten-or-discarded on every path: findings are
// may-liveness-sound, false negatives are the accepted cost.

// maxDepth bounds the fields of a tracked path. Deeper chains, in
// particular cycles through recursive types (list->next->next->...),
// form the untracked remainder: their reads generate liveness through
// their final fields, but their stores are never reported.
const maxDepth = 4

// path is one tracked access path root.f1...fn; a nil root is the
// implicit this. Fields past the n-th are nil, so == compares paths.
type path struct {
	root   *types.Var
	n      int
	fields [maxDepth]*types.Field
}

// final is the stored cell.
func (p *path) final() *types.Field { return p.fields[p.n-1] }

// funcPass holds what both tiers' passes over one function share.
type funcPass struct {
	ar     *deadmember.Result
	f      *types.Func
	g      *cfg.Graph
	cl     *classification
	sup    map[*types.Field]bool
	reads  *fieldSet // what a call out of f may read (callee union)
	budget int
	ctx    context.Context
}

// storePass is one function's dead-store problem at one tier.
type storePass struct {
	*funcPass
	heap bool // the heap tier's candidates and rules

	paths      []path  // candidate store paths, numbered in block/atom order
	at         []int32 // per atom in block/atom order: the number of its store, or -1
	byFinal    map[*types.Field][]int
	byNonFinal map[*types.Field][]int
	byRoot     map[*types.Var][]int
	writes     *fieldSet       // heap tier: what a call out of f may store to
	all        dataflow.BitSet // every bit
}

// deadStores runs one tier's pass over the function: the flow tier when
// writes is nil, else the heap tier. writes supplies what a call out of
// the function may store to; it is asked for only when the function has
// a candidate store, so a caller can build the write summaries lazily.
// The returned error is a dataflow budget overrun or a context
// cancellation; findings are nil in that case.
func (fp *funcPass) deadStores(writes func() *fieldSet) ([]Finding, error) {
	s := &storePass{funcPass: fp, heap: writes != nil}
	// Most functions store through no chain: the heap pass returns here,
	// before it builds any map or asks for the write summaries.
	if !s.number() {
		return nil, nil
	}
	if s.heap {
		s.writes = writes()
	}
	return s.solve()
}

// number recognizes the tier's candidate stores and numbers their paths
// in block/atom order, so the vectors — and therefore Steps and
// findings — are deterministic. It allocates nothing for a function
// without a candidate, and reports whether there was one.
func (s *storePass) number() bool {
	off := 0
	for _, b := range s.g.Blocks {
		for j, n := range b.Nodes {
			var p path
			var ok bool
			if s.heap {
				p, ok = s.chainStore(n)
			} else {
				p, ok = s.flowStore(n)
			}
			if !ok {
				continue
			}
			if s.at == nil {
				s.start()
			}
			s.at[off+j] = int32(s.add(p))
		}
		off += len(b.Nodes)
	}
	return s.at != nil
}

// start allocates the numbering at the first candidate store.
func (s *storePass) start() {
	atoms := 0
	for _, b := range s.g.Blocks {
		atoms += len(b.Nodes)
	}
	s.at = make([]int32, atoms)
	for i := range s.at {
		s.at[i] = -1
	}
	s.byFinal = map[*types.Field][]int{}
	s.byRoot = map[*types.Var][]int{}
	if s.heap {
		s.byNonFinal = map[*types.Field][]int{}
	}
}

// add returns p's number, numbering it if it is new.
func (s *storePass) add(p path) int {
	fin := p.final()
	for _, id := range s.byFinal[fin] {
		if s.paths[id] == p {
			return id
		}
	}
	id := len(s.paths)
	s.paths = append(s.paths, p)
	s.byFinal[fin] = append(s.byFinal[fin], id)
	for _, f := range p.fields[:p.n-1] {
		s.byNonFinal[f] = append(s.byNonFinal[f], id)
	}
	s.byRoot[p.root] = append(s.byRoot[p.root], id)
	return id
}

// flowStore recognizes the flow tier's candidate stores: direct stores
// of one field.
func (s *storePass) flowStore(n ast.Node) (path, bool) {
	p := path{n: 1}
	switch x := n.(type) {
	case *ast.CtorInit:
		p.fields[0] = s.info().CtorInitFields[x]
	case *ast.Member:
		if s.cl.acc[x] != deadmember.AccWrite {
			return p, false
		}
		switch recv := ast.Unparen(x.X).(type) {
		case *ast.ThisExpr:
		case *ast.Ident:
			if p.root = s.info().VarOf(recv); p.root == nil {
				return p, false
			}
		default:
			return p, false
		}
		p.fields[0] = s.info().FieldRefs[x]
	case *ast.Ident:
		if s.cl.acc[x] != deadmember.AccWrite {
			return p, false
		}
		p.fields[0] = s.info().FieldOf(x)
	default:
		return p, false
	}
	return p, s.trackable(p)
}

// trackable reports whether a store to p is a candidate: every field
// resolved and unsuppressed, and the root's address never taken in the
// function. Other stores' paths never enter the universe.
func (s *storePass) trackable(p path) bool {
	for _, f := range p.fields[:p.n] {
		if f == nil || s.sup[f] {
			return false
		}
	}
	return p.root == nil || !s.cl.escaped[p.root]
}

func (s *storePass) info() *types.Info { return s.ar.Program.Info }

// solve builds and solves the backward problem, then replays each
// reachable block backward from its Out set: a candidate store whose
// path is not live at the store is dead.
func (s *storePass) solve() ([]Finding, error) {
	bits := len(s.paths)
	s.all = dataflow.NewBitSet(bits)
	s.all.SetAll(bits)

	n := len(s.g.Blocks)
	p := dataflow.Problem{
		NumBlocks: n,
		Succs:     make([][]int, n),
		Bits:      bits,
		Gen:       make([]dataflow.BitSet, n),
		Kill:      make([]dataflow.BitSet, n),
		Boundary:  s.exitLive(),
		Budget:    s.budget,
		Ctx:       s.ctx,
		Unit:      s.f.QualifiedName(),
	}
	off := 0
	for i, b := range s.g.Blocks {
		p.Succs[i] = make([]int, len(b.Succs))
		for j, succ := range b.Succs {
			p.Succs[i][j] = succ.ID
		}
		p.Gen[i], p.Kill[i] = s.blockTransfer(b.Nodes, s.at[off:])
		off += len(b.Nodes)
	}
	sol, err := dataflow.Solve(p)
	if err != nil {
		return nil, err
	}

	var out []Finding
	gen := dataflow.NewBitSet(bits)
	kill := dataflow.NewBitSet(bits)
	off = 0
	for i, b := range s.g.Blocks {
		at := s.at[off:]
		off += len(b.Nodes)
		if !b.Reachable {
			continue
		}
		live := sol.Out[i].Clone()
		for j := len(b.Nodes) - 1; j >= 0; j-- {
			if id := at[j]; id >= 0 && !live.Has(int(id)) {
				out = append(out, s.finding(b.Nodes[j], s.paths[id]))
			}
			gen.Reset()
			kill.Reset()
			s.atomEffect(b.Nodes[j], at[j], gen, kill)
			live.AndNot(kill)
			live.Union(gen)
		}
	}
	return out, nil
}

// exitLive is the boundary vector — paths observable after the function
// returns: under this (the object outlives the call), a global or a
// pointer (the pointee may outlive the frame), a local whose class runs
// a user destructor at scope exit, or a chain that crosses a pointer
// field into the heap. Only a pure value chain under a local dies
// silently.
func (s *storePass) exitLive() dataflow.BitSet {
	out := dataflow.NewBitSet(len(s.paths))
	for i, p := range s.paths {
		switch {
		case p.root == nil, p.root.Global:
			out.Set(i)
		case types.IsPointer(p.root.Type):
			out.Set(i)
		case types.RunsUserDtor(types.IsClass(p.root.Type)):
			out.Set(i)
		default:
			for _, f := range p.fields[:p.n-1] {
				if types.IsPointer(f.Type) {
					out.Set(i)
					break
				}
			}
		}
	}
	return out
}

// blockTransfer composes a block's atoms, whose store numbers start at
// at, into one gen/kill pair. Walking atoms last-to-first with the new
// atom as the outer transfer: G' = g ∪ (G − k), K' = K ∪ k.
func (s *storePass) blockTransfer(nodes []ast.Node, at []int32) (gen, kill dataflow.BitSet) {
	gen = dataflow.NewBitSet(len(s.paths))
	kill = dataflow.NewBitSet(len(s.paths))
	g := dataflow.NewBitSet(len(s.paths))
	k := dataflow.NewBitSet(len(s.paths))
	for j := len(nodes) - 1; j >= 0; j-- {
		g.Reset()
		k.Reset()
		s.atomEffect(nodes[j], at[j], g, k)
		gen.AndNot(k)
		gen.Union(g)
		kill.Union(k)
	}
	return gen, kill
}

// genField adds liveness for every tracked path whose final field is
// fld or is contained by value in fld's type: reading the cell (or
// copying the subobject under it) may observe any such path's stored
// value through an alias, whatever its root.
func (s *storePass) genField(fld *types.Field, gen dataflow.BitSet) {
	s.genFinal(fld, gen)
	if c := types.IsClass(types.ArrayElem(fld.Type)); c != nil {
		types.Contained(c, map[*types.Class]bool{}, func(k *types.Class) {
			for _, f := range k.Fields {
				s.genFinal(f, gen)
			}
		})
	}
}

// genFinal adds liveness for every tracked path whose final field is
// fld.
func (s *storePass) genFinal(fld *types.Field, gen dataflow.BitSet) {
	for _, id := range s.byFinal[fld] {
		gen.Set(id)
	}
}

// genDetach adds liveness for every tracked path that a store to fld
// could re-point: paths with fld at a non-final position lose their old
// subtree, whose stored values may still be observable through
// aliases. Flow-tier paths have no non-final field.
func (s *storePass) genDetach(fld *types.Field, gen dataflow.BitSet) {
	for _, id := range s.byNonFinal[fld] {
		gen.Set(id)
	}
}

// genRoot adds liveness for every tracked path under variable v.
func (s *storePass) genRoot(v *types.Var, gen dataflow.BitSet) {
	for _, id := range s.byRoot[v] {
		gen.Set(id)
	}
}

// genCall applies the callee summaries: everything a call out of this
// function may read, and at the heap tier every path a callee's store
// may re-point. The write summary is universal exactly when the read
// summary is: both are seeded from the same flag and closed over the
// same edges.
func (s *storePass) genCall(gen dataflow.BitSet) {
	if s.reads.universal {
		gen.Union(s.all)
		return
	}
	for fld := range s.reads.m {
		s.genField(fld, gen)
	}
	if s.writes != nil {
		for fld := range s.writes.m {
			s.genDetach(fld, gen)
		}
	}
}

// atomEffect computes one atom's gen/kill contribution; id numbers the
// store it makes, or is -1. The tiers differ on constructor
// initializers and address-taking (see the cases); a detaching store
// gens nothing at the flow tier, which has no non-final fields. Both
// tiers read a receiver (the o and the o.in of o.in.val) as a chain
// step, not a copy.
func (s *storePass) atomEffect(n ast.Node, id int32, gen, kill dataflow.BitSet) {
	if id >= 0 {
		kill.Set(int(id))
	}
	info := s.info()
	switch x := n.(type) {
	case *ast.CtorInit:
		// Heap tier: initializing a member re-points its subtree, and a
		// class-typed member's initialization may run a constructor.
		if s.heap {
			if fld := info.CtorInitFields[x]; fld != nil {
				s.genDetach(fld, gen)
			}
			s.genCall(gen)
		}
	case *ast.Member:
		if fld := info.FieldRefs[x]; fld != nil {
			s.fieldAccess(x, fld, gen)
		}
	case *ast.Ident:
		if fld := info.FieldOf(x); fld != nil {
			s.fieldAccess(x, fld, gen)
			return
		}
		if v := info.VarOf(x); v != nil && s.cl.varAcc[x] == deadmember.AccRead && !s.cl.recv[x] && types.IsClass(v.Type) != nil {
			// Copying a class-typed variable reads everything under it;
			// a chain's receiver variable copies nothing.
			s.genRoot(v, gen)
		}
	case *ast.QualifiedIdent:
		// &C::m — the field is suppressed program-wide; no local effect.
	case *ast.Unary:
		switch x.Op {
		case token.Star:
			// Dereferencing into a class value may read any aliased
			// object's members.
			if types.IsClass(info.TypeOf(x)) != nil {
				gen.Union(s.all)
			}
		case token.Inc, token.Dec:
			if v := s.cl.mut[x]; v != nil {
				s.genRoot(v, gen)
			}
		}
	case *ast.Postfix:
		if v := s.cl.mut[x]; v != nil {
			s.genRoot(v, gen)
		}
	case *ast.Index:
		if types.IsClass(info.TypeOf(x)) != nil {
			gen.Union(s.all)
		}
	case *ast.Assign:
		// Mutating a root variable detaches its tracked paths; the
		// values stored before may still be observable through the old
		// object, so they become (conservatively) live.
		if v := s.cl.mut[x]; v != nil {
			s.genRoot(v, gen)
		}
	case *ast.MemberPtrDeref:
		// o.*p reads a statically unknown member.
		gen.Union(s.all)
	case *ast.Call:
		s.genCall(gen)
	case *ast.New:
		// Runs a constructor.
		s.genCall(gen)
	case *ast.Delete:
		// Runs a destructor; the pointee's members are consumed.
		s.genCall(gen)
		gen.Union(s.all)
	case *ast.VarDecl:
		if info.VarCtors[x] != nil {
			s.genCall(gen)
		}
	}
}

// fieldAccess applies a read, store or address-taking of field fld at
// member atom n.
func (s *storePass) fieldAccess(n ast.Node, fld *types.Field, gen dataflow.BitSet) {
	switch s.cl.acc[n] {
	case deadmember.AccRead:
		if s.cl.recv[n] {
			// A receiver (o.in inside o.in.val) reads the stored cell;
			// the maximal read adds the by-value closure of what it
			// reads.
			s.genFinal(fld, gen)
		} else {
			s.genField(fld, gen)
		}
	case deadmember.AccWrite:
		s.genDetach(fld, gen)
	case deadmember.AccAddr:
		// Heap tier: reads through the pointer to a member cell are
		// invisible (the field itself is suppressed program-wide).
		if s.heap {
			gen.Union(s.all)
		}
	}
}

// finding builds the dead-store diagnostic for one store site. The
// Member field carries the stored cell; the flow tier spells its path
// base.field, the heap tier the whole chain as source would.
func (s *storePass) finding(n ast.Node, p path) Finding {
	pos := s.ar.Program.FileSet.Position(n.Pos())
	fld := p.final()
	what := "store"
	if _, isInit := n.(*ast.CtorInit); isInit {
		what = "initializer"
	}
	var spelled string
	switch {
	case s.heap:
		spelled = p.String()
	case p.root == nil:
		spelled = "this." + fld.Name
	default:
		spelled = p.root.Name + "." + fld.Name
	}
	return Finding{
		Check:  CheckDeadStore,
		File:   pos.File,
		Line:   pos.Line,
		Col:    pos.Column,
		Member: fld.QualifiedName(),
		Func:   s.f.QualifiedName(),
		Message: fmt.Sprintf("dead %s to %s: no path reads %s before it is overwritten or discarded",
			what, spelled, fld.Name),
	}
}
