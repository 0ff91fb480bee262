// Package heaplive implements the heap tier of the precision knob: a
// flow-sensitive, access-graph-based liveness analysis of chained member
// access paths, layered on the per-function CFGs (internal/cfg) and the
// generic backward worklist solver (internal/dataflow).
//
// The flow tier (internal/lint's dead-store pass) tracks only length-one
// access paths — base.field — so a store through a chain of member
// references (o.in.val, p->next->val) is invisible to it. This package
// makes such stores checkable the way "Heap Reference Analysis Using
// Access Graphs" (Khedker/Sanyal/Karkare) does: liveness at each program
// point is a bounded set of access paths rooted at locals, parameters,
// or the implicit this. The bound is MaxDepth: the per-root access graph
// is flattened into the finite universe of candidate store paths of
// length 2..MaxDepth, and anything deeper — in particular cycles through
// recursive types (list->next->next->...) — is summarized into the
// untracked conservative remainder, which is never reported dead.
//
// Soundness model (may-liveness; findings are dead-only, false negatives
// are the accepted cost):
//
//   - a candidate store kills exactly its own syntactic path; any write
//     that could re-point a prefix of a tracked path (a store to a field
//     occurring at a non-final position, a mutation of the root
//     variable, a callee that transitively writes such a field)
//     regenerates liveness for the paths it might detach;
//   - reads generate by final-field compatibility: a read whose final
//     field (plus the fields its class type transitively contains by
//     value) matches a tracked path's final field makes that path live,
//     regardless of the root — which is how pointer aliasing is covered
//     without an alias analysis;
//   - whole-object copies of a root variable make every path under that
//     root live; calls generate from the callee read/write summaries;
//     statically opaque accesses (pointer-to-member dereference, class
//     reads through * or [], delete) make everything live.
//
// Results are deterministic: the path universe is numbered in block/atom
// discovery order, every transfer is a bitset operation, and the solver
// is the deterministic FIFO worklist of internal/dataflow.
package heaplive

import (
	"context"
	"strings"

	"deadmembers/internal/ast"
	"deadmembers/internal/cfg"
	"deadmembers/internal/dataflow"
	"deadmembers/internal/source"
	"deadmembers/internal/token"
	"deadmembers/internal/types"
)

// Access classifies one member- or variable-access node, mirroring the
// read/write/address/path discipline of internal/lint's classifier. The
// caller supplies classifications through the Accesses interface so this
// package stays independent of the lint layer.
type Access int8

const (
	AccNone Access = iota
	AccRead
	AccWrite
	AccAddr
	AccPath // locates a subobject: neither read nor written
)

// Accesses supplies the per-node access classification of one function,
// computed by the caller (internal/lint adapts its classifier).
type Accesses interface {
	// MemberAccess classifies *ast.Member and field-resolving *ast.Ident
	// nodes.
	MemberAccess(n ast.Node) Access
	// VarAccess classifies variable-resolving *ast.Ident nodes.
	VarAccess(id *ast.Ident) Access
	// Escaped reports whether the variable's address is taken in this
	// function; paths rooted at escaped variables are never tracked.
	Escaped(v *types.Var) bool
	// MutatedVar maps Assign/Unary/Postfix nodes that modify a plain
	// variable to that variable (nil otherwise).
	MutatedVar(n ast.Node) *types.Var
}

// Summary is the transitive effect of the calls a function makes: the
// fields its callees may read, the fields they may store to, or
// everything (Universal: a pointer-to-member dereference somewhere
// below). internal/lint computes these over the call graph.
type Summary struct {
	Reads     map[*types.Field]bool
	Writes    map[*types.Field]bool
	Universal bool
}

// DefaultMaxDepth bounds tracked access-path length when Options.MaxDepth
// is zero. Chains deeper than the bound are summarized (untracked).
const DefaultMaxDepth = 4

// Options configures one function's heap-liveness pass.
type Options struct {
	// MaxDepth bounds the length of tracked access paths (0 selects
	// DefaultMaxDepth). Minimum effective depth is 2: length-one paths
	// belong to the flow tier.
	MaxDepth int

	// Budget caps dataflow solver steps (0 = automatic).
	Budget int

	// Ctx, when non-nil, is polled by the solver.
	Ctx context.Context
}

// Path is one tracked access path: root.f1.f2...fk. A nil Root is the
// implicit this.
type Path struct {
	Root   *types.Var
	Fields []*types.Field
}

// Final returns the last field of the path — the stored cell.
func (p Path) Final() *types.Field { return p.Fields[len(p.Fields)-1] }

// String renders the path the way source would spell it, with -> after
// pointer-typed steps.
func (p Path) String() string {
	var b strings.Builder
	prev := types.Type(nil)
	if p.Root == nil {
		b.WriteString("this")
		// this is always a pointer to the receiver object.
		prev = nil
	} else {
		b.WriteString(p.Root.Name)
		prev = p.Root.Type
	}
	for i, f := range p.Fields {
		if (p.Root == nil && i == 0) || types.IsPointer(prev) {
			b.WriteString("->")
		} else {
			b.WriteString(".")
		}
		b.WriteString(f.Name)
		prev = f.Type
	}
	return b.String()
}

// DeadStore is one chained store no execution path can observe.
type DeadStore struct {
	Node ast.Node
	Path Path
	Pos  source.Pos
}

// analysis carries one function's pass.
type analysis struct {
	info *types.Info
	g    *cfg.Graph
	acc  Accesses
	call Summary
	sup  map[*types.Field]bool
	max  int

	paths      []Path
	bit        map[string]int
	varID      map[*types.Var]int
	fldID      map[*types.Field]int
	byFinal    map[*types.Field][]int
	byNonFinal map[*types.Field][]int
	byRoot     map[*types.Var][]int // nil key = this-rooted
	recv       map[ast.Node]bool    // receivers of field-resolving Member atoms
	all        dataflow.BitSet
}

// Analyze runs the chained-path dead-store analysis over one function's
// CFG. sup is the program-wide suppressed-field set (volatile,
// address-taken, union, unsafe-cast, library): paths touching a
// suppressed field are never tracked. call supplies the callee effect
// summary; it is invoked only when the function has a candidate store,
// so a caller can build its write summaries lazily. The returned error
// is a dataflow budget overrun (wrapping dataflow.ErrBudget, naming the
// function) or a context cancellation.
//
// Most functions store through no chain at all. For those Analyze
// returns before it builds any map or asks for the summary: with no
// candidate store the path universe would be empty.
func Analyze(info *types.Info, g *cfg.Graph, acc Accesses, call func() Summary, sup map[*types.Field]bool, opts Options) ([]DeadStore, error) {
	a := newAnalysis(info, g, acc, sup, opts)
	if a == nil || !a.hasCandidate() {
		return nil, nil
	}
	return a.run(call(), opts)
}

// newAnalysis returns the map-free shell of one function's pass, or nil
// for a function without a CFG.
func newAnalysis(info *types.Info, g *cfg.Graph, acc Accesses, sup map[*types.Field]bool, opts Options) *analysis {
	if g == nil {
		return nil
	}
	max := opts.MaxDepth
	if max <= 0 {
		max = DefaultMaxDepth
	}
	return &analysis{info: info, g: g, acc: acc, sup: sup, max: max}
}

// hasCandidate reports whether any atom of the CFG is a candidate store,
// that is, whether collect would number at least one path.
func (a *analysis) hasCandidate() bool {
	for _, b := range a.g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := a.candidateStore(n); ok {
				return true
			}
		}
	}
	return false
}

// run is the full pass: number the path universe, solve, and flag.
func (a *analysis) run(call Summary, opts Options) ([]DeadStore, error) {
	a.call = call
	a.bit = map[string]int{}
	a.varID = map[*types.Var]int{}
	a.fldID = map[*types.Field]int{}
	a.byFinal = map[*types.Field][]int{}
	a.byNonFinal = map[*types.Field][]int{}
	a.byRoot = map[*types.Var][]int{}
	a.recv = map[ast.Node]bool{}
	a.collect()
	if len(a.paths) == 0 {
		return nil, nil
	}
	g := a.g
	a.all = dataflow.NewBitSet(len(a.paths))
	a.all.SetAll(len(a.paths))

	n := len(g.Blocks)
	p := dataflow.Problem{
		NumBlocks: n,
		Succs:     make([][]int, n),
		Bits:      len(a.paths),
		Gen:       make([]dataflow.BitSet, n),
		Kill:      make([]dataflow.BitSet, n),
		Boundary:  a.exitLive(),
		Budget:    opts.Budget,
		Ctx:       opts.Ctx,
		Unit:      g.Fn.QualifiedName(),
		Dir:       dataflow.Backward,
	}
	for i, b := range g.Blocks {
		p.Succs[i] = make([]int, len(b.Succs))
		for j, s := range b.Succs {
			p.Succs[i][j] = s.ID
		}
		p.Gen[i], p.Kill[i] = a.blockTransfer(b)
	}
	sol, err := dataflow.Solve(p)
	if err != nil {
		return nil, err
	}

	// Flag walk: replay each reachable block backward from its Out set; a
	// candidate store whose path is not live at the store is dead.
	var out []DeadStore
	gen := dataflow.NewBitSet(len(a.paths))
	kill := dataflow.NewBitSet(len(a.paths))
	for i, b := range g.Blocks {
		if !b.Reachable {
			continue
		}
		live := sol.Out[i].Clone()
		for j := len(b.Nodes) - 1; j >= 0; j-- {
			node := b.Nodes[j]
			if id, path, ok := a.storeAt(node); ok && !live.Has(id) {
				out = append(out, DeadStore{Node: node, Path: path, Pos: node.(*ast.Member).Pos()})
			}
			gen.Reset()
			kill.Reset()
			a.atomEffect(node, gen, kill)
			live.AndNot(kill)
			live.Union(gen)
		}
	}
	return out, nil
}

// collect builds the path universe (one bit per distinct candidate store
// path, in block/atom discovery order) and the receiver-node set that
// distinguishes maximal reads from chain steps.
func (a *analysis) collect() {
	for _, b := range a.g.Blocks {
		for _, n := range b.Nodes {
			if m, ok := n.(*ast.Member); ok && a.info.FieldRefs[m] != nil {
				a.recv[ast.Unparen(m.X)] = true
			}
		}
	}
	for _, b := range a.g.Blocks {
		for _, n := range b.Nodes {
			path, ok := a.candidateStore(n)
			if !ok {
				continue
			}
			key := a.key(path)
			if _, dup := a.bit[key]; dup {
				continue
			}
			id := len(a.paths)
			a.bit[key] = id
			a.paths = append(a.paths, path)
			fin := path.Final()
			a.byFinal[fin] = append(a.byFinal[fin], id)
			for _, f := range path.Fields[:len(path.Fields)-1] {
				a.byNonFinal[f] = append(a.byNonFinal[f], id)
			}
			a.byRoot[path.Root] = append(a.byRoot[path.Root], id)
		}
	}
}

// key canonicalizes a path for the bit map using per-function discovery
// indices (never iterated, so determinism needs only stable equality).
func (a *analysis) key(p Path) string {
	var b strings.Builder
	if p.Root == nil {
		b.WriteString("t")
	} else {
		id, ok := a.varID[p.Root]
		if !ok {
			id = len(a.varID)
			a.varID[p.Root] = id
		}
		b.WriteString("v")
		writeInt(&b, id)
	}
	for _, f := range p.Fields {
		id, ok := a.fldID[f]
		if !ok {
			id = len(a.fldID)
			a.fldID[f] = id
		}
		b.WriteString(".")
		writeInt(&b, id)
	}
	return b.String()
}

func writeInt(b *strings.Builder, n int) {
	if n >= 10 {
		writeInt(b, n/10)
	}
	b.WriteByte(byte('0' + n%10))
}

// pathOf extracts the full access path of a member expression: the
// receiver chain must bottom out at a plain variable, this, or an
// implicit-this member identifier, with every step a resolved field.
func (a *analysis) pathOf(m *ast.Member) (Path, bool) {
	var rev []*types.Field
	var node ast.Expr = m
	for {
		mm, ok := ast.Unparen(node).(*ast.Member)
		if !ok {
			break
		}
		fld := a.info.FieldRefs[mm]
		if fld == nil {
			return Path{}, false
		}
		rev = append(rev, fld)
		node = mm.X
	}
	p := Path{}
	switch base := ast.Unparen(node).(type) {
	case *ast.ThisExpr:
		p.Root = nil
	case *ast.Ident:
		if fld := a.info.FieldOf(base); fld != nil {
			rev = append(rev, fld) // implicit this->fld
			p.Root = nil
			break
		}
		v := a.info.VarOf(base)
		if v == nil {
			return Path{}, false
		}
		p.Root = v
	default:
		return Path{}, false
	}
	p.Fields = make([]*types.Field, len(rev))
	for i, f := range rev {
		p.Fields[len(rev)-1-i] = f
	}
	return p, true
}

// candidateStore recognizes eligible chained-store atoms: a direct write
// through a member chain of length 2..MaxDepth whose root is trackable
// and whose fields are all unsuppressed. Length-one stores belong to the
// flow tier; deeper chains are summarized away.
func (a *analysis) candidateStore(n ast.Node) (Path, bool) {
	m, ok := n.(*ast.Member)
	if !ok || a.acc.MemberAccess(m) != AccWrite || a.info.FieldRefs[m] == nil {
		return Path{}, false
	}
	// A chain needs a member or an implicit-this field below the stored
	// one; v.m and this->m are length one. Checked before pathOf, which
	// allocates.
	switch recv := ast.Unparen(m.X).(type) {
	case *ast.Member:
	case *ast.Ident:
		if a.info.FieldOf(recv) == nil {
			return Path{}, false
		}
	default:
		return Path{}, false
	}
	p, ok := a.pathOf(m)
	if !ok || len(p.Fields) < 2 || len(p.Fields) > a.max {
		return Path{}, false
	}
	for _, f := range p.Fields {
		if a.sup[f] {
			return Path{}, false
		}
	}
	if p.Root != nil && a.acc.Escaped(p.Root) {
		return Path{}, false
	}
	return p, true
}

// storeAt resolves a candidate-store atom to its tracked bit.
func (a *analysis) storeAt(n ast.Node) (int, Path, bool) {
	p, ok := a.candidateStore(n)
	if !ok {
		return 0, Path{}, false
	}
	id, tracked := a.bit[a.key(p)]
	if !tracked {
		return 0, Path{}, false
	}
	return id, p, true
}

// exitLive is the boundary vector: a path is observable after the
// function returns unless it is a pure value chain under a local that
// dies silently at scope exit.
func (a *analysis) exitLive() dataflow.BitSet {
	out := dataflow.NewBitSet(len(a.paths))
	for i, p := range a.paths {
		switch {
		case p.Root == nil, p.Root.Global:
			out.Set(i) // the object outlives the call
		case types.IsPointer(p.Root.Type):
			out.Set(i) // pointee may outlive the frame
		case HasUserDtor(types.IsClass(p.Root.Type)):
			out.Set(i) // a destructor may observe the members
		default:
			for _, f := range p.Fields[:len(p.Fields)-1] {
				if types.IsPointer(f.Type) {
					out.Set(i) // chain crosses into the heap
					break
				}
			}
		}
	}
	return out
}

// HasUserDtor reports whether destroying a value of class c runs any
// user-declared destructor — its own, a base's, or a member's, through
// arrays. (Shared with internal/lint's exit-liveness rule.)
func HasUserDtor(c *types.Class) bool {
	return hasUserDtor(c, map[*types.Class]bool{})
}

func hasUserDtor(c *types.Class, seen map[*types.Class]bool) bool {
	if c == nil || seen[c] {
		return false
	}
	seen[c] = true
	if c.Dtor() != nil {
		return true
	}
	for _, b := range c.Bases {
		if hasUserDtor(b.Class, seen) {
			return true
		}
	}
	for _, f := range c.Fields {
		if hasUserDtor(types.IsClass(elemType(f.Type)), seen) {
			return true
		}
	}
	return false
}

// elemType strips array layers.
func elemType(t types.Type) types.Type {
	for {
		arr, ok := t.(*types.Array)
		if !ok {
			return t
		}
		t = arr.Elem
	}
}

// blockTransfer composes the block's atoms into one gen/kill pair
// (walking atoms last-to-first with the new atom as the outer transfer).
func (a *analysis) blockTransfer(b *cfg.Block) (gen, kill dataflow.BitSet) {
	gen = dataflow.NewBitSet(len(a.paths))
	kill = dataflow.NewBitSet(len(a.paths))
	g := dataflow.NewBitSet(len(a.paths))
	k := dataflow.NewBitSet(len(a.paths))
	for j := len(b.Nodes) - 1; j >= 0; j-- {
		g.Reset()
		k.Reset()
		a.atomEffect(b.Nodes[j], g, k)
		gen.AndNot(k)
		gen.Union(g)
		kill.Union(k)
	}
	return gen, kill
}

// genReadField adds liveness for every tracked path whose final field is
// f or is contained by value in f's type: reading the cell (or copying
// the subobject under it) may observe any such path's stored value
// through an alias.
func (a *analysis) genReadField(f *types.Field, gen dataflow.BitSet) {
	a.genFieldClosure(f, gen, map[*types.Class]bool{})
}

func (a *analysis) genFieldClosure(f *types.Field, gen dataflow.BitSet, seen map[*types.Class]bool) {
	for _, id := range a.byFinal[f] {
		gen.Set(id)
	}
	a.genClassClosure(types.IsClass(elemType(f.Type)), gen, seen)
}

func (a *analysis) genClassClosure(c *types.Class, gen dataflow.BitSet, seen map[*types.Class]bool) {
	if c == nil || seen[c] {
		return
	}
	seen[c] = true
	for _, f := range c.Fields {
		for _, id := range a.byFinal[f] {
			gen.Set(id)
		}
		a.genClassClosure(types.IsClass(elemType(f.Type)), gen, seen)
	}
	for _, b := range c.Bases {
		a.genClassClosure(b.Class, gen, seen)
	}
}

// genDetach adds liveness for every tracked path that a write to field f
// could re-point: paths with f at a non-final position lose their old
// subtree, whose stored values may still be observable through aliases.
func (a *analysis) genDetach(f *types.Field, gen dataflow.BitSet) {
	for _, id := range a.byNonFinal[f] {
		gen.Set(id)
	}
}

// genCall applies the callee read/write summaries.
func (a *analysis) genCall(gen dataflow.BitSet) {
	if a.call.Universal {
		gen.Union(a.all)
		return
	}
	for f := range a.call.Reads {
		a.genReadField(f, gen)
	}
	for f := range a.call.Writes {
		a.genDetach(f, gen)
	}
}

// atomEffect computes one atom's gen/kill contribution.
func (a *analysis) atomEffect(n ast.Node, gen, kill dataflow.BitSet) {
	if id, _, ok := a.storeAt(n); ok {
		kill.Set(id)
	}

	switch x := n.(type) {
	case *ast.CtorInit:
		// Initializing a member re-points/overwrites its subtree, and a
		// class-typed member's initialization may run a constructor.
		if fld := a.info.CtorInitFields[x]; fld != nil {
			a.genDetach(fld, gen)
		}
		a.genCall(gen)

	case *ast.Member:
		fld := a.info.FieldRefs[x]
		if fld == nil {
			return
		}
		switch a.acc.MemberAccess(x) {
		case AccWrite:
			a.genDetach(fld, gen)
		case AccRead:
			if !a.recv[x] {
				a.genReadField(fld, gen)
			}
		case AccAddr:
			// Address of a member cell: reads through the pointer are
			// invisible (the field is suppressed program-wide as well).
			gen.Union(a.all)
		}

	case *ast.Ident:
		if fld := a.info.FieldOf(x); fld != nil {
			switch a.acc.MemberAccess(x) {
			case AccWrite:
				a.genDetach(fld, gen)
			case AccRead:
				if !a.recv[x] {
					a.genReadField(fld, gen)
				}
			case AccAddr:
				gen.Union(a.all)
			}
			return
		}
		if v := a.info.VarOf(x); v != nil && a.acc.VarAccess(x) == AccRead && !a.recv[x] {
			// Copying a class-typed variable reads everything under it.
			if types.IsClass(v.Type) != nil {
				for _, id := range a.byRoot[v] {
					gen.Set(id)
				}
			}
		}

	case *ast.QualifiedIdent:
		// &C::m — suppressed program-wide; no local effect.

	case *ast.Unary:
		switch x.Op {
		case token.Star:
			if types.IsClass(a.info.TypeOf(x)) != nil {
				gen.Union(a.all)
			}
		case token.Inc, token.Dec:
			if v := a.acc.MutatedVar(x); v != nil {
				for _, id := range a.byRoot[v] {
					gen.Set(id)
				}
			}
		}

	case *ast.Postfix:
		if v := a.acc.MutatedVar(x); v != nil {
			for _, id := range a.byRoot[v] {
				gen.Set(id)
			}
		}

	case *ast.Index:
		if types.IsClass(a.info.TypeOf(x)) != nil {
			gen.Union(a.all)
		}

	case *ast.Assign:
		// Re-pointing a root variable detaches every path under it.
		if v := a.acc.MutatedVar(x); v != nil {
			for _, id := range a.byRoot[v] {
				gen.Set(id)
			}
		}

	case *ast.MemberPtrDeref:
		gen.Union(a.all)

	case *ast.Call:
		a.genCall(gen)

	case *ast.New:
		a.genCall(gen)

	case *ast.Delete:
		a.genCall(gen)
		gen.Union(a.all)

	case *ast.VarDecl:
		if a.info.VarCtors[x] != nil {
			a.genCall(gen)
		}
	}
}
