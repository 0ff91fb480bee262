package lint

import (
	"cmp"
	"context"
	"fmt"
	"slices"

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
	sup    dataflow.BitSet   // suppressed fields, by types.Field.ID
	reads  func() *calleeSet // what a call out of f may read, asked for at the first call atom
	budget int
	ctx    context.Context
}

// storePass is one function's dead-store problem at one tier. Its
// indexes are slices over the function's own paths, built only when the
// function has a candidate store.
type storePass struct {
	*funcPass
	heap bool // the heap tier's candidates and rules

	// paths are the distinct candidate store paths, sorted by final
	// field, so the paths of one field are one run; a path's number is
	// its index. The number only names a bit, so any deterministic
	// order serves: Steps and findings do not depend on it.
	paths []path
	at    []int32 // per atom of the graph's slab: the number of its store, or -1

	// roots are the paths' distinct roots in atom order (nil: this); the
	// numbers of roots[r]'s paths are byRoot[rootAt[r]:rootAt[r+1]].
	roots  []*types.Var
	rootAt []int32
	byRoot []int32

	// nonFinal pairs each field at a non-final position with the path
	// it is in, sorted by field (heap tier; flow paths have none).
	nonFinal []fieldPath

	writes *calleeSet            // heap tier: what a call out of f may store to
	all    dataflow.BitSet       // every bit
	call   dataflow.BitSet       // a call atom's gens, built at the first call atom
	seen   map[*types.Class]bool // genField's containment walk, reused
}

// fieldPath is one entry of the nonFinal index.
type fieldPath struct {
	field int32 // types.Field.ID
	path  int32
}

// deadStores runs one tier's pass over the function: the flow tier when
// writes is nil, else the heap tier. writes supplies what a call out of
// the function may store to; it is asked for only when the function has
// a candidate store, so a caller can build the write summaries lazily.
// The returned error is a dataflow budget overrun or a context
// cancellation; findings are nil in that case.
func (fp *funcPass) deadStores(writes func() *calleeSet) ([]Finding, error) {
	s := &storePass{funcPass: fp, heap: writes != nil}
	// Most functions store through no chain: the heap pass returns here,
	// before it allocates anything or asks for the write summaries.
	if !s.number() {
		return nil, nil
	}
	if s.heap {
		s.writes = writes()
	}
	return s.solve()
}

// candidate is one candidate store atom before numbering.
type candidate struct {
	p    path
	root int32 // the index of p.root in roots
	atom int32 // the atom's index in the graph's slab
}

// number recognizes the tier's candidate stores and numbers their
// distinct paths. It allocates nothing for a function without a
// candidate, and reports whether there was one.
func (s *storePass) number() bool {
	var cands []candidate
	for k, n := range s.g.Atoms {
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
		if cands == nil {
			// Every candidate is one of the function's write sites.
			cands = make([]candidate, 0, len(s.cl.writes))
		}
		cands = append(cands, candidate{p, s.rootOf(p.root), int32(k)})
	}
	if cands == nil {
		return false
	}
	s.index(cands)
	return true
}

// rootOf returns v's index in roots, adding it if it is new. A function
// has few distinct roots (often only this), so a scan serves.
func (s *storePass) rootOf(v *types.Var) int32 {
	for r, w := range s.roots {
		if w == v {
			return int32(r)
		}
	}
	s.roots = append(s.roots, v)
	return int32(len(s.roots) - 1)
}

// index numbers the distinct candidate paths in (final field, root,
// chain) order, records each atom's store number, and builds the root
// and non-final indexes.
func (s *storePass) index(cands []candidate) {
	slices.SortFunc(cands, compareCandidates)
	first := func(i int) bool { return i == 0 || compareCandidates(cands[i-1], cands[i]) != 0 }
	s.at = make([]int32, len(s.g.Atoms))
	for i := range s.at {
		s.at[i] = -1
	}
	s.paths = make([]path, 0, len(cands))
	nr := len(s.roots)
	buf := make([]int32, 2*nr+1+len(cands))
	s.rootAt, s.byRoot = buf[:nr+1], buf[2*nr+1:]
	nonFinal := 0
	for i := range cands {
		c := &cands[i]
		if first(i) {
			s.paths = append(s.paths, c.p)
			s.rootAt[c.root+1]++
			nonFinal += c.p.n - 1
		}
		s.at[c.atom] = int32(len(s.paths) - 1)
	}

	// byRoot: a counting sort of the path numbers by root.
	for r := range nr {
		s.rootAt[r+1] += s.rootAt[r]
	}
	fill := buf[nr+1 : 2*nr+1]
	copy(fill, s.rootAt)
	id := int32(-1)
	for i := range cands {
		if first(i) {
			id++
			r := cands[i].root
			s.byRoot[fill[r]] = id
			fill[r]++
		}
	}
	s.byRoot = s.byRoot[:len(s.paths)]

	if nonFinal > 0 {
		s.nonFinal = make([]fieldPath, 0, nonFinal)
		for id := range s.paths {
			p := &s.paths[id]
			for _, f := range p.fields[:p.n-1] {
				s.nonFinal = append(s.nonFinal, fieldPath{int32(f.ID), int32(id)})
			}
		}
		slices.SortFunc(s.nonFinal, func(a, b fieldPath) int {
			return cmp.Or(cmp.Compare(a.field, b.field), cmp.Compare(a.path, b.path))
		})
	}
}

// compareCandidates orders candidates by final field, root and chain:
// equal paths compare equal, distinct ones never do.
func compareCandidates(a, b candidate) int {
	if c := cmp.Or(
		cmp.Compare(a.p.final().ID, b.p.final().ID),
		cmp.Compare(a.root, b.root),
		cmp.Compare(a.p.n, b.p.n),
	); c != 0 {
		return c
	}
	for i := 0; i < a.p.n-1; i++ {
		if c := cmp.Compare(a.p.fields[i].ID, b.p.fields[i].ID); c != 0 {
			return c
		}
	}
	return 0
}

// flowStore recognizes the flow tier's candidate stores: direct stores
// of one field.
func (s *storePass) flowStore(n ast.Node) (path, bool) {
	p := path{n: 1}
	switch x := n.(type) {
	case *ast.CtorInit:
		p.fields[0] = s.info().CtorInitFields[x]
	case *ast.Member:
		if s.cl.at(x).acc != deadmember.AccWrite {
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
		if s.cl.at(x).acc != deadmember.AccWrite {
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
		if f == nil || s.sup.Has(f.ID) {
			return false
		}
	}
	return p.root == nil || !slices.Contains(s.cl.escaped, p.root)
}

func (s *storePass) info() *types.Info { return s.ar.Program.Info }

// solve builds and solves the backward problem, then replays each
// reachable block backward from its Out set: a candidate store whose
// path is not live at the store is dead. Every fact vector of the pass
// is a window of one slab, and the successor lists share one too.
func (s *storePass) solve() ([]Finding, error) {
	bits := len(s.paths)
	n := len(s.g.Blocks)
	vecs := dataflow.Slab(2*n+5, bits)
	s.all = vecs[2*n]
	s.all.SetAll(bits)
	g, k, live, exit := vecs[2*n+1], vecs[2*n+2], vecs[2*n+3], vecs[2*n+4]
	s.exitLive(exit)

	edges := 0
	for _, b := range s.g.Blocks {
		edges += len(b.Succs)
	}
	succs := make([]int, 0, edges)
	p := dataflow.Problem{
		NumBlocks: n,
		Succs:     make([][]int, n),
		Bits:      bits,
		Gen:       vecs[:n:n],
		Kill:      vecs[n : 2*n : 2*n],
		Boundary:  exit,
		Budget:    s.budget,
		Ctx:       s.ctx,
	}
	for i, b := range s.g.Blocks {
		from := len(succs)
		for _, succ := range b.Succs {
			succs = append(succs, succ.ID)
		}
		p.Succs[i] = succs[from:len(succs):len(succs)]
		s.blockTransfer(b, p.Gen[i], p.Kill[i], g, k)
	}
	sol, err := dataflow.Solve(p)
	if err != nil {
		return nil, err
	}

	var out []Finding
	for i, b := range s.g.Blocks {
		if !b.Reachable {
			continue
		}
		at := s.at[b.Start:]
		live.Copy(sol.Out[i])
		for j := len(b.Nodes) - 1; j >= 0; j-- {
			if id := at[j]; id >= 0 && !live.Has(int(id)) {
				out = append(out, s.finding(b.Nodes[j], s.paths[id]))
			}
			g.Reset()
			k.Reset()
			s.atomEffect(b.Nodes[j], at[j], g, k)
			live.AndNot(k)
			live.Union(g)
		}
	}
	return out, nil
}

// exitLive sets in out the boundary vector — paths observable after the
// function returns: under this (the object outlives the call), a global
// or a pointer (the pointee may outlive the frame), a local whose class
// runs a user destructor at scope exit, or a chain that crosses a
// pointer field into the heap. Only a pure value chain under a local
// dies silently.
func (s *storePass) exitLive(out dataflow.BitSet) {
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
}

// blockTransfer composes block b's atoms into one gen/kill pair, using
// g and k as scratch. Walking atoms last-to-first with the new atom as
// the outer transfer: G' = g ∪ (G − k), K' = K ∪ k.
func (s *storePass) blockTransfer(b *cfg.Block, gen, kill, g, k dataflow.BitSet) {
	at := s.at[b.Start:]
	for j := len(b.Nodes) - 1; j >= 0; j-- {
		g.Reset()
		k.Reset()
		s.atomEffect(b.Nodes[j], at[j], g, k)
		gen.AndNot(k)
		gen.Union(g)
		kill.Union(k)
	}
}

// genField adds liveness for every tracked path whose final field is
// fld or is contained by value in fld's type: reading the cell (or
// copying the subobject under it) may observe any such path's stored
// value through an alias, whatever its root.
func (s *storePass) genField(fld *types.Field, gen dataflow.BitSet) {
	s.genFinal(fld, gen)
	if c := types.IsClass(types.ArrayElem(fld.Type)); c != nil {
		if s.seen == nil {
			s.seen = map[*types.Class]bool{}
		}
		clear(s.seen)
		types.Contained(c, s.seen, func(k *types.Class) {
			for _, f := range k.Fields {
				s.genFinal(f, gen)
			}
		})
	}
}

// genFinal adds liveness for every tracked path whose final field is
// fld: one run of the sorted paths.
func (s *storePass) genFinal(fld *types.Field, gen dataflow.BitSet) {
	i, _ := slices.BinarySearchFunc(s.paths, fld.ID, func(p path, id int) int { return cmp.Compare(p.final().ID, id) })
	for ; i < len(s.paths) && s.paths[i].final() == fld; i++ {
		gen.Set(i)
	}
}

// genDetach adds liveness for every tracked path that a store to fld
// could re-point: paths with fld at a non-final position lose their old
// subtree, whose stored values may still be observable through
// aliases. Flow-tier paths have no non-final field.
func (s *storePass) genDetach(fld *types.Field, gen dataflow.BitSet) {
	id := int32(fld.ID)
	i, _ := slices.BinarySearchFunc(s.nonFinal, id, func(e fieldPath, id int32) int { return cmp.Compare(e.field, id) })
	for ; i < len(s.nonFinal) && s.nonFinal[i].field == id; i++ {
		gen.Set(int(s.nonFinal[i].path))
	}
}

// genRoot adds liveness for every tracked path under variable v.
func (s *storePass) genRoot(v *types.Var, gen dataflow.BitSet) {
	if r := slices.Index(s.roots, v); r >= 0 {
		for _, id := range s.byRoot[s.rootAt[r]:s.rootAt[r+1]] {
			gen.Set(int(id))
		}
	}
}

// genCall applies the callee summaries: everything a call out of this
// function may read, and at the heap tier every path a callee's store
// may re-point. Every call atom gens the same paths, so the first one
// works them out: a path is read when its final field is in a callee's
// read summary, which is closed over by-value containment as genField
// is, and re-pointed when a callee's write summary holds one of its
// non-final fields. The write summary is universal exactly when the
// read summary is: both are seeded from the same flag and closed over
// the same edges.
func (s *storePass) genCall(gen dataflow.BitSet) {
	if s.call == nil {
		s.call = dataflow.NewBitSet(len(s.paths))
		reads, writes := s.reads(), s.writes
		for i := range s.paths {
			p := &s.paths[i]
			if reads.has(p.final()) {
				s.call.Set(i)
				continue
			}
			if writes != nil {
				for _, f := range p.fields[:p.n-1] {
					if writes.has(f) {
						s.call.Set(i)
						break
					}
				}
			}
		}
	}
	gen.Union(s.call)
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
		if v := info.VarOf(x); v != nil && types.IsClass(v.Type) != nil {
			// Copying a class-typed variable reads everything under it;
			// a chain's receiver variable copies nothing.
			if f := s.cl.at(x); f.acc == deadmember.AccRead && !f.recv {
				s.genRoot(v, gen)
			}
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
			s.mutation(x, x.X, gen)
		}
	case *ast.Postfix:
		s.mutation(x, x.X, gen)
	case *ast.Index:
		if types.IsClass(info.TypeOf(x)) != nil {
			gen.Union(s.all)
		}
	case *ast.Assign:
		s.mutation(x, x.LHS, gen)
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

// mutation applies an assignment, ++ or -- at n: mutating a root
// variable detaches its tracked paths; the values stored before may
// still be observable through the old object, so they become
// (conservatively) live.
func (s *storePass) mutation(n ast.Node, target ast.Expr, gen dataflow.BitSet) {
	if s.cl.at(n).mut {
		s.genRoot(deadmember.MutatedVar(s.info(), target), gen)
	}
}

// fieldAccess applies a read, store or address-taking of field fld at
// member atom n.
func (s *storePass) fieldAccess(n ast.Node, fld *types.Field, gen dataflow.BitSet) {
	switch f := s.cl.at(n); f.acc {
	case deadmember.AccRead:
		if f.recv {
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
