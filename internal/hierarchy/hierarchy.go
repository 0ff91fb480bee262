// Package hierarchy implements class-hierarchy algorithms for MC++: base
// class relations (including virtual inheritance), C++ member lookup with
// hiding and ambiguity detection, and the object layout model used for the
// byte-exact dynamic measurements of Table 2 of the paper.
package hierarchy

import (
	"fmt"
	"slices"
	"sort"

	"deadmembers/internal/types"
)

// Graph provides hierarchy queries over the classes of a program. Build one
// with New after semantic analysis.
type Graph struct {
	// derived maps each class to its direct subclasses.
	derived map[*types.Class][]*types.Class

	// allBases maps each class to its transitive bases (virtual and
	// non-virtual, each once, excluding itself) in depth-first
	// declaration order; isBase holds the same sets for IsBaseOf.
	allBases map[*types.Class][]*types.Class
	isBase   map[*types.Class]map[*types.Class]bool

	// virtualDtor holds the classes whose destructor is virtual: declared
	// so by the class or by one of its bases.
	virtualDtor map[*types.Class]bool

	layouts map[*types.Class]*Layout

	// Memoization caches: hierarchy queries are invoked per call site and
	// per allocated object, so they must be O(1) after first use for the
	// whole analysis to stay near-linear (paper §3.4).
	subclassesCache map[*types.Class][]*types.Class
	vbasesCache     map[*types.Class][]*types.Class
	overridesCache  map[lookupKey]*types.Func
	polyCache       map[*types.Class]int8
}

type lookupKey struct {
	class *types.Class
	name  string
}

// New builds the hierarchy graph for the given classes.
func New(classes []*types.Class) *Graph {
	g := &Graph{
		derived:         map[*types.Class][]*types.Class{},
		allBases:        map[*types.Class][]*types.Class{},
		isBase:          map[*types.Class]map[*types.Class]bool{},
		virtualDtor:     map[*types.Class]bool{},
		layouts:         map[*types.Class]*Layout{},
		subclassesCache: map[*types.Class][]*types.Class{},
		vbasesCache:     map[*types.Class][]*types.Class{},
		overridesCache:  map[lookupKey]*types.Func{},
		polyCache:       map[*types.Class]int8{},
	}
	for _, c := range classes {
		for _, b := range c.Bases {
			g.derived[b.Class] = append(g.derived[b.Class], c)
		}
	}
	for _, c := range classes {
		set := map[*types.Class]bool{}
		g.allBases[c] = collectBases(c, set, nil)
		g.isBase[c] = set
	}
	for _, c := range classes {
		if declaresVirtualDtor(c) || slices.ContainsFunc(g.allBases[c], declaresVirtualDtor) {
			g.virtualDtor[c] = true
		}
	}
	return g
}

func declaresVirtualDtor(c *types.Class) bool {
	d := c.Dtor()
	return d != nil && d.Virtual
}

func collectBases(c *types.Class, set map[*types.Class]bool, order []*types.Class) []*types.Class {
	for _, b := range c.Bases {
		if !set[b.Class] {
			set[b.Class] = true
			order = append(order, b.Class)
			order = collectBases(b.Class, set, order)
		}
	}
	return order
}

// IsBaseOf reports whether base is a (transitive, possibly virtual) base
// class of derived. A class is not its own base.
func (g *Graph) IsBaseOf(base, derived *types.Class) bool {
	return g.isBase[derived][base]
}

// AllBases returns the transitive bases of c (virtual and non-virtual,
// each once, excluding c) in depth-first declaration order. It is
// computed in New, so it never mutates the graph; callers must not
// mutate the result.
func (g *Graph) AllBases(c *types.Class) []*types.Class {
	return g.allBases[c]
}

// HasVirtualDtor reports whether c or any of its bases declares a
// virtual destructor, so that deleting through a c* destroys the
// object's dynamic class. It is decided once per class, in New.
func (g *Graph) HasVirtualDtor(c *types.Class) bool {
	return g.virtualDtor[c]
}

// Related reports whether a and b are the same class or related by
// inheritance in either direction.
func (g *Graph) Related(a, b *types.Class) bool {
	return a == b || g.IsBaseOf(a, b) || g.IsBaseOf(b, a)
}

// SubclassesOf returns c and all its transitive subclasses, in a
// deterministic order. The result is memoized; callers must not mutate it.
func (g *Graph) SubclassesOf(c *types.Class) []*types.Class {
	if cached, ok := g.subclassesCache[c]; ok {
		return cached
	}
	seen := map[*types.Class]bool{c: true}
	out := []*types.Class{c}
	for i := 0; i < len(out); i++ {
		for _, d := range g.derived[out[i]] {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	g.subclassesCache[c] = out
	return out
}

// VirtualBases returns the set of virtual base classes of c (transitively:
// a virtual base anywhere in the inheritance DAG appears once), in a
// deterministic order. The result is memoized; callers must not mutate it.
func (g *Graph) VirtualBases(c *types.Class) []*types.Class {
	if cached, ok := g.vbasesCache[c]; ok {
		return cached
	}
	seen := map[*types.Class]bool{}
	out := []*types.Class{}
	var walk func(*types.Class)
	walk = func(x *types.Class) {
		for _, b := range x.Bases {
			if b.Virtual && !seen[b.Class] {
				seen[b.Class] = true
				out = append(out, b.Class)
			}
			walk(b.Class)
		}
	}
	walk(c)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	g.vbasesCache[c] = out
	return out
}

// IsPolymorphic reports whether c has virtual methods, declared or
// inherited, or virtual bases (and therefore carries a vptr). Memoized.
func (g *Graph) IsPolymorphic(c *types.Class) bool {
	if v, ok := g.polyCache[c]; ok {
		return v == 1
	}
	poly := false
	if c.HasVirtualMethods() || len(g.VirtualBases(c)) > 0 {
		poly = true
	} else {
		for _, b := range g.allBases[c] {
			if b.HasVirtualMethods() {
				poly = true
				break
			}
		}
	}
	if poly {
		g.polyCache[c] = 1
	} else {
		g.polyCache[c] = 2
	}
	return poly
}

// AmbiguityError reports an ambiguous member lookup.
type AmbiguityError struct {
	Class *types.Class
	Name  string
	Cands []string
}

func (e *AmbiguityError) Error() string {
	return fmt.Sprintf("member %q is ambiguous in class %s (candidates: %v)",
		e.Name, e.Class.Name, e.Cands)
}

// NotFoundError reports a failed member lookup.
type NotFoundError struct {
	Class *types.Class
	Name  string
}

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("class %s has no member named %q", e.Class.Name, e.Name)
}

// LookupField implements C++ data-member lookup: find the field named name
// in class x or its bases, honoring hiding (a declaration in a derived
// class hides declarations along the same path) and detecting ambiguity
// across distinct base subobjects. Members shared through a common virtual
// base are not ambiguous.
//
// This is the Lookup function of the paper's algorithm (Figure 2): the
// returned field's Owner is the class C such that the access e.m resolves
// to C::m.
func (g *Graph) LookupField(x *types.Class, name string) (*types.Field, error) {
	if f := x.FieldByName(name); f != nil {
		return f, nil // a direct hit builds no candidate list
	}
	fields, _ := g.lookup(x, name)
	return pick(x, name, fields)
}

// LookupMethod is the method analogue of LookupField.
func (g *Graph) LookupMethod(x *types.Class, name string) (*types.Func, error) {
	// A direct hit builds no candidate list. A field of x with the same
	// name hides the method, as in lookup.
	if m := x.MethodByName(name); m != nil && x.FieldByName(name) == nil {
		return m, nil
	}
	_, methods := g.lookup(x, name)
	return pick(x, name, methods)
}

// pick resolves lookup's candidates for name in x: none is NotFound, one
// distinct member is the answer, and more are ambiguous. A member reached
// along several paths (a shared virtual base) counts once.
func pick[M interface {
	comparable
	QualifiedName() string
}](x *types.Class, name string, cands []M) (M, error) {
	distinct := cands[:0] // lookup's slices are the caller's own
	for _, m := range cands {
		if !slices.Contains(distinct, m) {
			distinct = append(distinct, m)
		}
	}
	var none M
	switch len(distinct) {
	case 0:
		return none, &NotFoundError{Class: x, Name: name}
	case 1:
		return distinct[0], nil
	}
	var names []string
	for _, m := range distinct {
		names = append(names, m.QualifiedName())
	}
	sort.Strings(names)
	return none, &AmbiguityError{Class: x, Name: name, Cands: names}
}

// lookup returns all field and method declarations named name visible in x,
// stopping descent at any class that declares the name (hiding). Results
// may contain duplicates when reached through multiple paths; callers
// deduplicate (which collapses shared virtual bases).
func (g *Graph) lookup(x *types.Class, name string) ([]*types.Field, []*types.Func) {
	if f := x.FieldByName(name); f != nil {
		return []*types.Field{f}, nil
	}
	if m := x.MethodByName(name); m != nil {
		return nil, []*types.Func{m}
	}
	var fields []*types.Field
	var methods []*types.Func
	for _, b := range x.Bases {
		fs, ms := g.lookup(b.Class, name)
		fields = append(fields, fs...)
		methods = append(methods, ms...)
	}
	return fields, methods
}

// Overrides returns the method that class c (searching c and then its
// bases) provides for the virtual method named name, or nil. Used by call
// graph construction to resolve dynamic dispatch for a receiver of exact
// class c. Memoized: dispatch resolution runs once per (class, name).
func (g *Graph) Overrides(c *types.Class, name string) *types.Func {
	key := lookupKey{c, name}
	if m, ok := g.overridesCache[key]; ok {
		return m
	}
	m, err := g.LookupMethod(c, name)
	if err != nil {
		m = nil
	}
	g.overridesCache[key] = m
	return m
}
