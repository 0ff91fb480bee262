// Package callgraph constructs call graphs of MC++ programs at three
// precision levels:
//
//   - ALL: every function with a body is reachable (no call graph at all);
//     the weakest baseline.
//   - CHA: Class Hierarchy Analysis; a virtual call through static class X
//     reaches the overriders in all subclasses of X.
//   - RTA: Rapid Type Analysis (Bacon & Sweeney, OOPSLA'96); like CHA but
//     dispatch only considers classes instantiated in reachable code. This
//     approximates the PVG algorithm the paper's implementation used.
//
// The paper's algorithm (Figure 2, line 5) only needs the set of reachable
// functions; edges are additionally recorded for reporting and ablations.
package callgraph

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"deadmembers/internal/ast"
	"deadmembers/internal/hierarchy"
	"deadmembers/internal/types"
)

// Mode selects the construction algorithm.
type Mode int

// Construction modes, in decreasing order of precision. RTA, the
// paper's configuration, is the zero value, so the zero
// deadmember.Options (and the public deadmembers.Options, its alias)
// analyzes as the paper did.
const (
	RTA Mode = iota
	CHA
	ALL
)

// String returns the conventional acronym.
func (m Mode) String() string {
	switch m {
	case ALL:
		return "ALL"
	case CHA:
		return "CHA"
	case RTA:
		return "RTA"
	}
	return "?"
}

// ParseMode maps a CLI/wire spelling onto a mode: rta, cha or all, in
// any case.
func ParseMode(s string) (Mode, bool) {
	switch strings.ToLower(s) {
	case "rta":
		return RTA, true
	case "cha":
		return CHA, true
	case "all":
		return ALL, true
	}
	return RTA, false
}

// Graph is a constructed call graph.
type Graph struct {
	Mode Mode

	// Reachable is the set of functions transitively callable from main
	// (plus extra roots).
	Reachable map[*types.Func]bool

	// Edges records resolved call edges (caller -> callees), deduplicated.
	Edges map[*types.Func][]*types.Func

	// Instantiated is the set of classes constructed in reachable code
	// (for RTA this drives dispatch; for other modes it is informational).
	Instantiated map[*types.Class]bool

	// funcs is Reachable in ReachableFuncs' order, fixed by Build.
	funcs []*types.Func
}

// Options configures construction.
type Options struct {
	Mode Mode

	// ExtraRoots are treated as reachable in addition to main — e.g.
	// methods overriding virtual functions of library classes, which a
	// library may call back (paper Section 3.3).
	ExtraRoots []*types.Func
}

// Build constructs the call graph of prog under opts, and orders its
// reachable functions once for ReachableFuncs.
func Build(prog *types.Program, h *hierarchy.Graph, opts Options) *Graph {
	g := build(prog, h, opts).g
	g.funcs = sortedFuncs(g.Reachable)
	return g
}

func build(prog *types.Program, h *hierarchy.Graph, opts Options) *builder {
	b := &builder{
		h:    h,
		info: prog.Info,
		g: &Graph{
			Mode:         opts.Mode,
			Reachable:    map[*types.Func]bool{},
			Edges:        map[*types.Func][]*types.Func{},
			Instantiated: map[*types.Class]bool{},
		},
		edgeSet:   map[edge]bool{},
		seenSites: map[virtualSite]bool{},
		seenDtors: map[dtorSite]bool{},
		sitesAt:   map[*types.Class][]virtualSite{},
		dtorsAt:   map[*types.Class][]*types.Func{},
	}

	if opts.Mode == ALL {
		for _, f := range prog.AllFuncs() {
			if f.Body != nil {
				b.g.Reachable[f] = true
			}
		}
		for _, c := range prog.Classes {
			b.g.Instantiated[c] = true
		}
		return b
	}

	// Global class-typed variables are constructed before main and
	// destroyed after it: their constructors/destructors are roots.
	for _, gv := range prog.Globals {
		b.instantiateVarType(nil, gv.Type, b.info.VarCtors[gv.Decl], gv.Decl)
	}
	if prog.Main != nil {
		b.addReachable(prog.Main)
	}
	for _, r := range opts.ExtraRoots {
		b.addReachable(r)
	}
	b.run()
	return b
}

type edge struct{ from, to *types.Func }

// virtualSite is a dynamically dispatched call of method, through a
// pointer of static class static, in caller.
type virtualSite struct {
	caller *types.Func
	static *types.Class
	method *types.Func
}

// dtorSite is a `delete` in caller of a pointer of static class static.
type dtorSite struct {
	caller *types.Func
	static *types.Class
}

type builder struct {
	h       *hierarchy.Graph
	info    *types.Info
	g       *Graph
	work    []*types.Func
	edgeSet map[edge]bool

	// Each virtual call site and each delete site is resolved once,
	// however often it occurs in its caller. The sites that dispatch
	// (virtual calls, deletes through a virtual destructor) are indexed
	// by static class: a newly instantiated class can only add targets
	// to the sites at itself or one of its transitive bases.
	seenSites map[virtualSite]bool
	seenDtors map[dtorSite]bool
	sitesAt   map[*types.Class][]virtualSite
	dtorsAt   map[*types.Class][]*types.Func // callers
}

func (b *builder) addEdge(from, to *types.Func) {
	if to == nil {
		return
	}
	if from != nil {
		e := edge{from, to}
		if !b.edgeSet[e] {
			b.edgeSet[e] = true
			b.g.Edges[from] = append(b.g.Edges[from], to)
		}
	}
	b.addReachable(to)
}

func (b *builder) addReachable(f *types.Func) {
	if f == nil || f.Builtin || b.g.Reachable[f] {
		return
	}
	b.g.Reachable[f] = true
	if f.Body != nil || f.IsCtor || f.IsDtor {
		b.work = append(b.work, f)
	}
}

func (b *builder) run() {
	for {
		if len(b.work) == 0 {
			break
		}
		f := b.work[len(b.work)-1]
		b.work = b.work[:len(b.work)-1]
		b.scan(f)
	}
}

// instantiate marks cls as constructed. Under RTA a newly instantiated
// class is a new dispatch target for the sites recorded at its own class
// and at its transitive bases, and for no others, so only those are
// visited: the cost is proportional to the edges it can add, not to
// every site recorded so far.
func (b *builder) instantiate(caller *types.Func, cls *types.Class) {
	if cls == nil || b.g.Instantiated[cls] {
		return
	}
	b.g.Instantiated[cls] = true
	// Instantiating a class instantiates its base subobjects and
	// class-typed members for dispatch purposes.
	for _, bs := range cls.Bases {
		b.instantiate(caller, bs.Class)
	}
	for _, fld := range cls.Fields {
		b.instantiateFieldType(caller, fld.Type)
	}
	if b.g.Mode != RTA {
		return
	}
	b.dispatchTo(cls, cls)
	for _, base := range b.h.AllBases(cls) {
		b.dispatchTo(base, cls)
	}
}

// dispatchTo adds the targets a receiver of exact class cls selects at
// the sites recorded at static class at.
func (b *builder) dispatchTo(at, cls *types.Class) {
	for _, s := range b.sitesAt[at] {
		if target := b.h.Overrides(cls, s.method.Name); target != nil {
			b.addEdge(s.caller, target)
		}
	}
	for _, caller := range b.dtorsAt[at] {
		b.destroy(caller, cls)
	}
}

func (b *builder) instantiateFieldType(caller *types.Func, t types.Type) {
	if c := types.IsClass(types.ArrayElem(t)); c != nil {
		b.instantiate(caller, c)
		b.construct(caller, c, nil)
		b.destroy(caller, c)
	}
}

// construct records the constructor-call closure for creating an object of
// class cls with the given (possibly nil) selected constructor.
func (b *builder) construct(caller *types.Func, cls *types.Class, ctor *types.Func) {
	b.instantiate(caller, cls)
	if ctor == nil {
		ctor = cls.CtorByArity(0)
	}
	if ctor != nil {
		b.addEdge(caller, ctor)
		// The ctor body's init-list and implicit sub-object construction
		// edges are added when the ctor itself is scanned.
		return
	}
	// No user constructor: default construction recursively constructs
	// bases and class-typed members.
	for _, bs := range cls.Bases {
		b.construct(caller, bs.Class, nil)
	}
	for _, f := range cls.Fields {
		b.constructFieldDefault(caller, f.Type)
	}
}

func (b *builder) constructFieldDefault(caller *types.Func, t types.Type) {
	if c := types.IsClass(types.ArrayElem(t)); c != nil {
		b.construct(caller, c, nil)
	}
}

// destroy records the destructor-call closure for destroying an object of
// class cls (statically bound).
func (b *builder) destroy(caller *types.Func, cls *types.Class) {
	if d := cls.Dtor(); d != nil {
		b.addEdge(caller, d)
	}
	for _, bs := range cls.Bases {
		b.destroy(caller, bs.Class)
	}
	for _, f := range cls.Fields {
		if c := types.IsClass(types.ArrayElem(f.Type)); c != nil {
			b.destroy(caller, c)
		}
	}
}

// destroyDynamic handles `delete p` where p's static class may have
// subclasses with virtual destructors. A site is resolved once; under
// RTA, classes instantiated later reach it through dispatchTo.
func (b *builder) destroyDynamic(caller *types.Func, static *types.Class) {
	ds := dtorSite{caller, static}
	if b.seenDtors[ds] {
		return
	}
	b.seenDtors[ds] = true
	if !b.h.HasVirtualDtor(static) {
		b.destroy(caller, static)
		return
	}
	for _, sub := range b.h.SubclassesOf(static) {
		if b.g.Mode == RTA && !b.g.Instantiated[sub] {
			continue
		}
		b.destroy(caller, sub)
	}
	b.dtorsAt[static] = append(b.dtorsAt[static], caller)
}

// resolveVirtual adds edges for one virtual call site under the current
// instantiated-class set.
func (b *builder) resolveVirtual(s virtualSite) {
	for _, sub := range b.h.SubclassesOf(s.static) {
		if b.g.Mode == RTA && !b.g.Instantiated[sub] {
			continue
		}
		if target := b.h.Overrides(sub, s.method.Name); target != nil {
			b.addEdge(s.caller, target)
		}
	}
}

// scan walks the body (and constructor initializer list) of f, adding
// edges for every call, allocation, and destruction site.
func (b *builder) scan(f *types.Func) {
	if f.IsCtor && f.Owner != nil {
		b.scanCtorImplicit(f)
	}
	if f.IsDtor && f.Owner != nil {
		// A destructor implicitly destroys bases and class-typed members.
		for _, bs := range f.Owner.Bases {
			b.destroy(f, bs.Class)
		}
		for _, fld := range f.Owner.Fields {
			if c := types.IsClass(types.ArrayElem(fld.Type)); c != nil {
				b.destroy(f, c)
			}
		}
	}
	// Constructor initializer arguments contain ordinary expressions
	// (calls, allocations) that execute before the body.
	for i := range f.Inits {
		for _, a := range f.Inits[i].Args {
			b.scanNode(f, a)
		}
	}
	if f.Body == nil {
		return
	}
	b.scanNode(f, f.Body)
}

// scanNode walks any AST subtree for call, allocation, and declaration
// sites occurring in function f.
func (b *builder) scanNode(f *types.Func, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Call:
			b.scanCall(f, x)
		case *ast.New:
			if cls := types.IsClass(b.info.TypeExprOf(x.Type)); cls != nil {
				ctor := b.info.NewCtors[x]
				if x.Len != nil {
					ctor = nil // array-new default-constructs
				}
				b.construct(f, cls, ctor)
			}
		case *ast.Delete:
			t := b.info.TypeOf(x.X)
			if cls := types.PointeeClass(t); cls != nil {
				b.destroyDynamic(f, cls)
			}
		case *ast.DeclStmt:
			b.scanVarDecl(f, x.Var)
		}
		return true
	})
}

// scanCtorImplicit adds edges for the constructor's initializer list and
// the implicit default construction of bases/members not named in it.
func (b *builder) scanCtorImplicit(f *types.Func) {
	cls := f.Owner
	named := map[string]bool{}
	for i := range f.Inits {
		init := &f.Inits[i]
		named[init.Name] = true
		if base := b.info.CtorInitBases[init]; base != nil {
			b.construct(f, base, base.CtorByArity(len(init.Args)))
		} else if fld := b.info.CtorInitFields[init]; fld != nil {
			if mc := types.IsClass(fld.Type); mc != nil {
				b.construct(f, mc, mc.CtorByArity(len(init.Args)))
			}
		}
	}
	for _, bs := range cls.Bases {
		if !named[bs.Class.Name] {
			b.construct(f, bs.Class, nil)
		}
	}
	for _, fld := range cls.Fields {
		if named[fld.Name] {
			continue
		}
		b.constructFieldDefault(f, fld.Type)
	}
}

// scanVarDecl handles local declarations of class (or array-of-class)
// type: construction now, destruction at scope exit.
func (b *builder) scanVarDecl(f *types.Func, v *ast.VarDecl) {
	t := b.info.VarTypes[v]
	b.instantiateVarType(f, t, b.info.VarCtors[v], v)
}

func (b *builder) instantiateVarType(f *types.Func, t types.Type, ctor *types.Func, decl *ast.VarDecl) {
	elem := types.ArrayElem(t)
	cls := types.IsClass(elem)
	if cls == nil {
		return
	}
	if elem != t {
		ctor = nil // array elements default-construct
	}
	if decl != nil && decl.Init != nil {
		// Copy-initialization from an existing object: bitwise copy in
		// MC++; no constructor runs, but the class is instantiated and
		// its destructor will run.
		b.instantiate(f, cls)
		b.destroy(f, cls)
		return
	}
	b.construct(f, cls, ctor)
	b.destroy(f, cls)
}

// scanCall adds edges for one call expression appearing in caller.
func (b *builder) scanCall(caller *types.Func, x *ast.Call) {
	switch fun := ast.Unparen(x.Fun).(type) {
	case *ast.Ident:
		if m, ok := b.info.IdentMethods[fun]; ok {
			// Implicit this->m(): dispatch through the enclosing class.
			b.methodCall(caller, caller.Owner, m, true, "")
			return
		}
		if f, ok := b.info.IdentFuncs[fun]; ok {
			if !f.Builtin {
				b.addEdge(caller, f)
			}
			return
		}
	case *ast.Member:
		m, ok := b.info.MethodRefs[fun]
		if !ok {
			return
		}
		recvClass := b.receiverClass(fun)
		b.methodCall(caller, recvClass, m, fun.Arrow, fun.Qual)
	}
}

func (b *builder) receiverClass(fun *ast.Member) *types.Class {
	t := b.info.TypeOf(fun.X)
	if fun.Arrow {
		return types.PointeeClass(t)
	}
	return types.IsClass(t)
}

// methodCall resolves one method invocation. Dynamic dispatch applies when
// the method is virtual, the call is through a pointer (-> or implicit
// this->), and no explicit qualifier pins the target.
func (b *builder) methodCall(caller *types.Func, static *types.Class, m *types.Func, throughPointer bool, qual string) {
	if static == nil {
		b.addEdge(caller, m)
		return
	}
	if m.Virtual && throughPointer && qual == "" {
		s := virtualSite{caller: caller, static: static, method: m}
		if !b.seenSites[s] {
			b.seenSites[s] = true
			b.sitesAt[static] = append(b.sitesAt[static], s)
			b.resolveVirtual(s)
		}
		return
	}
	b.addEdge(caller, m)
}

// ReachableFuncs returns the reachable functions in a fixed order: by
// qualified name, then declaration position, then parameter count.
// Overloads share a qualified name (every constructor of C is C::C), so
// the name alone would leave their order to map iteration, and with it
// which access the liveness pass records first. Build computes the
// order once; every call returns the same slice, which callers must not
// modify.
func (g *Graph) ReachableFuncs() []*types.Func { return g.funcs }

// sortedFuncs orders reachable in ReachableFuncs' order. Each name is
// built once, not on every comparison.
func sortedFuncs(reachable map[*types.Func]bool) []*types.Func {
	type keyed struct {
		name string
		f    *types.Func
	}
	ks := make([]keyed, 0, len(reachable))
	for f := range reachable {
		ks = append(ks, keyed{f.QualifiedName(), f})
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		return cmp.Or(strings.Compare(a.name, b.name),
			cmp.Compare(a.f.Pos, b.f.Pos),
			cmp.Compare(len(a.f.Params), len(b.f.Params)))
	})
	out := make([]*types.Func, len(ks))
	for i, k := range ks {
		out[i] = k.f
	}
	return out
}

// InstantiatedClasses returns the instantiated classes sorted by name.
func (g *Graph) InstantiatedClasses() []*types.Class {
	out := make([]*types.Class, 0, len(g.Instantiated))
	for c := range g.Instantiated {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// UsedClasses returns the classes for which a constructor call occurs
// anywhere in the program text (Table 1's "used classes" column): class
// variable declarations, new-expressions, constructor initializer targets,
// and class-typed members/bases of used classes.
func UsedClasses(prog *types.Program) map[*types.Class]bool {
	used := map[*types.Class]bool{}
	// Constructing a class constructs every class it contains.
	markType := func(t types.Type) {
		types.Contained(types.IsClass(types.ArrayElem(t)), used, func(*types.Class) {})
	}
	for _, v := range prog.Globals {
		markType(v.Type)
	}
	for _, t := range prog.Info.VarTypes {
		markType(t)
	}
	for n := range prog.Info.NewCtors {
		markType(prog.Info.TypeExprOf(n.Type))
	}
	// new C[n] expressions have no NewCtors entry when C is ctor-less;
	// scan all new expressions via the types of their type nodes.
	for _, f := range prog.AllFuncs() {
		if f.Body == nil {
			continue
		}
		ast.Inspect(f.Body, func(n ast.Node) bool {
			if x, ok := n.(*ast.New); ok {
				markType(prog.Info.TypeExprOf(x.Type))
			}
			return true
		})
	}
	return used
}
