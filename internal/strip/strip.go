// Package strip implements the space optimization the paper motivates:
// it removes guaranteed-dead data members (and, optionally, unreachable
// functions) from an analyzed program and re-emits MC++ source.
//
// The transform preserves observable behaviour:
//
//   - a plain write `x.dead = e` keeps its side effects (`e;` remains);
//   - constructor-initializer entries for dead members are dropped, their
//     argument expressions hoisted into the constructor body;
//   - `delete`/`free` of a dead member is dropped (per the paper's
//     footnote, such calls cannot affect observable behaviour) — but only
//     for scalar memory, never when a class destructor would run;
//   - unreachable free functions and non-virtual methods are removed, so
//     that members read only from unreachable code become strippable.
//
// A dead member whose removal cannot be proven behaviour-preserving (for
// example, one written through an effectful receiver expression) is
// reported as kept rather than silently broken.
//
// Apply is a pure function of the analysis result. It writes no node,
// list or types.Func of the program it is given: the files it prints
// share every unchanged node with the compilation and copy only the
// nodes on the path to a change, so the compilation stays valid for
// every other analysis, run or strip, including concurrent ones.
package strip

import (
	"sort"

	"deadmembers/internal/ast"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/frontend"
	"deadmembers/internal/printer"
	"deadmembers/internal/token"
	"deadmembers/internal/types"
)

// Options configures the transform.
type Options struct {
	// KeepUnreachable disables removal of unreachable functions. Members
	// that are read from unreachable code then stay in place (they cannot
	// be removed without breaking compilation).
	KeepUnreachable bool
}

// Result reports what was removed.
type Result struct {
	// Sources is the transformed program.
	Sources []frontend.Source

	// RemovedMembers lists the stripped members (qualified names).
	RemovedMembers []string

	// KeptMembers lists dead members that could not be stripped safely,
	// with the reason.
	KeptMembers map[string]string

	// RemovedFunctions lists removed unreachable functions.
	RemovedFunctions []string
}

// Apply runs the transform and prints the transformed program.
func Apply(res *deadmember.Result, opts Options) *Result {
	s := &stripper{
		res:  res,
		info: res.Program.Info,
		out:  &Result{KeptMembers: map[string]string{}},
	}
	s.planFunctionRemoval(opts)
	s.planMemberRemoval()
	for _, file := range s.rewrite() {
		s.out.Sources = append(s.out.Sources, frontend.Source{
			Name: file.Name,
			Text: printer.Print(file),
		})
	}
	sort.Strings(s.out.RemovedMembers)
	sort.Strings(s.out.RemovedFunctions)
	return s.out
}

type stripper struct {
	res  *deadmember.Result
	info *types.Info
	out  *Result

	// removedFuncs is the set of functions whose declarations are dropped.
	removedFuncs map[*types.Func]bool

	// strippable is the final set of members to remove.
	strippable map[*types.Field]bool
}

// planFunctionRemoval selects unreachable free functions and non-virtual
// methods for removal. Virtual methods are kept: their declarations can
// participate in lookup for statically-typed call sites even when no
// dynamic path reaches them. Constructors, destructors, and main are
// always kept.
func (s *stripper) planFunctionRemoval(opts Options) {
	s.removedFuncs = map[*types.Func]bool{}
	if opts.KeepUnreachable {
		return
	}
	reach := s.res.CallGraph.Reachable
	for _, f := range s.res.Program.AllFuncs() {
		if reach[f] || f.Builtin || f.IsCtor || f.IsDtor || f.Virtual || f == s.res.Program.Main {
			continue
		}
		s.removedFuncs[f] = true
		s.out.RemovedFunctions = append(s.out.RemovedFunctions, f.QualifiedName())
	}
}

// planMemberRemoval decides which dead members can be removed safely: all
// surviving references to them must be rewritable (plain writes with
// effect-free receivers, droppable delete/free statements, or ctor-init
// entries). It walks each surviving function once, in AllFuncs order —
// its constructor-initializer arguments, then its body — and the first
// reference that blocks a member gives its reason. Ctor-init entries are
// always rewritable, but their arguments all survive, kept in place or
// hoisted into the body, so a reference inside one blocks like any
// other.
func (s *stripper) planMemberRemoval() {
	s.strippable = map[*types.Field]bool{}
	for _, f := range s.res.DeadMembers() {
		s.strippable[f] = true
	}
	// skip is the target of the droppable assignment being walked: the
	// rewrite takes it out, so it references nothing.
	var skip ast.Node
	visit := func(n ast.Node) bool {
		if n == skip {
			return false
		}
		switch x := n.(type) {
		case *ast.ExprStmt:
			f, operand, assign := s.droppable(x.X)
			if f == nil {
				break
			}
			if assign != nil {
				if !effectFreeReceiver(operand) {
					s.block(f, "written through an effectful receiver")
				}
				skip = operand // the right-hand side stays and is walked
				break
			}
			switch {
			case !effectFreeReceiver(operand):
				s.block(f, "freed through an effectful receiver")
			case s.runsUserDtor(f, operand):
				s.block(f, "deleting it runs a user destructor")
			}
			return false
		case *ast.Member:
			if f := s.info.FieldRefs[x]; f != nil && s.res.IsDead(f) {
				s.block(f, "referenced in an expression the transform cannot rewrite")
			}
		case *ast.Ident:
			if f := s.info.FieldOf(x); f != nil && s.res.IsDead(f) {
				s.block(f, "referenced in an expression the transform cannot rewrite")
			}
		case *ast.QualifiedIdent:
			if f := s.info.QualFieldRefs[x]; f != nil && s.res.IsDead(f) {
				s.block(f, "pointer-to-member formed over it")
			}
		}
		return true
	}
	for _, fn := range s.res.Program.AllFuncs() {
		if s.removedFuncs[fn] {
			continue
		}
		for i := range fn.Inits {
			for _, arg := range fn.Inits[i].Args {
				ast.Inspect(arg, visit)
			}
		}
		if fn.Body != nil {
			ast.Inspect(fn.Body, visit)
		}
	}
	for f, ok := range s.strippable {
		if ok {
			s.out.RemovedMembers = append(s.out.RemovedMembers, f.QualifiedName())
		}
	}
}

// block marks a dead member as non-strippable.
func (s *stripper) block(f *types.Field, why string) {
	if f == nil || !s.strippable[f] {
		return
	}
	s.strippable[f] = false
	s.out.KeptMembers[f.QualifiedName()] = why
}

// droppable recognizes the three statements the transform can take out
// for a dead member m: `m = e;`, which leaves `e;` behind unless e is
// effect-free, `delete m;` and `free(m);`. It returns m, the operand
// that denotes it (the assignment's target, or the argument of delete or
// free) and, for the first form, the assignment. m is nil for any other
// expression.
func (s *stripper) droppable(e ast.Expr) (m *types.Field, operand ast.Expr, assign *ast.Assign) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Assign:
		if x.Op == token.Assign {
			return s.deadFieldOf(x.LHS), x.LHS, x
		}
	case *ast.Delete:
		return s.deadFieldOf(x.X), x.X, nil
	case *ast.Call:
		if fn, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && len(x.Args) == 1 {
			if b := s.info.IdentFuncs[fn]; b != nil && b.Builtin && b.Name == "free" {
				return s.deadFieldOf(x.Args[0]), x.Args[0], nil
			}
		}
	}
	return nil, nil, nil
}

// runsUserDtor reports whether deleting operand, which denotes the dead
// member f, could run a user destructor: through f's declared pointee, or
// through the pointee of the operand's own type, which a cast may change
// (`delete (Foo*)raw` for a void* member).
func (s *stripper) runsUserDtor(f *types.Field, operand ast.Expr) bool {
	return types.RunsUserDtor(types.PointeeClass(f.Type)) ||
		types.RunsUserDtor(types.PointeeClass(s.info.TypeOf(operand)))
}

// access returns e without the parentheses and casts around it: the
// member access the droppable statements name (`free((void*)buf)`).
func access(e ast.Expr) ast.Expr {
	for {
		c, ok := ast.Unparen(e).(*ast.Cast)
		if !ok {
			return ast.Unparen(e)
		}
		e = c.X
	}
}

// deadFieldOf returns the dead member denoted by e (any member access
// form, looking through parens and casts), or nil.
func (s *stripper) deadFieldOf(e ast.Expr) *types.Field {
	var f *types.Field
	switch x := access(e).(type) {
	case *ast.Member:
		f = s.info.FieldRefs[x]
	case *ast.Ident:
		f = s.info.FieldOf(x)
	}
	if f != nil && s.res.IsDead(f) {
		return f
	}
	return nil
}

// effectFreeReceiver reports whether the receiver of the member access
// e, if it has one, evaluates without side effects. It sees through the
// same parentheses and casts as deadFieldOf, so `(void*)a.self()->buf`
// has the effectful receiver `a.self()`.
func effectFreeReceiver(e ast.Expr) bool {
	m, ok := access(e).(*ast.Member)
	return !ok || effectFree(m.X)
}

// effectFree reports whether evaluating e has no side effects (no calls,
// allocation, assignment, or increment).
func effectFree(e ast.Expr) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Call, *ast.New, *ast.Delete, *ast.Assign:
			pure = false
			return false
		case *ast.Unary:
			if x.Op == token.Inc || x.Op == token.Dec {
				pure = false
				return false
			}
		case *ast.Postfix:
			pure = false
			return false
		}
		return true
	})
	return pure
}
