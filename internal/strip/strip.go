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

// Apply runs the transform. The analysis result's ASTs are consumed
// (mutated); re-run the frontend on Result.Sources afterwards.
func Apply(res *deadmember.Result, opts Options) *Result {
	s := &stripper{
		res:  res,
		info: res.Program.Info,
		out:  &Result{KeptMembers: map[string]string{}},
	}
	s.planFunctionRemoval(opts)
	s.planMemberRemoval()
	s.rewrite()
	for _, file := range res.Program.Files {
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
// entries).
func (s *stripper) planMemberRemoval() {
	s.strippable = map[*types.Field]bool{}
	for _, f := range s.res.DeadMembers() {
		s.strippable[f] = true
	}
	for _, fn := range s.res.Program.AllFuncs() {
		if fn.Body == nil || s.removedFuncs[fn] {
			continue
		}
		s.scanStmt(fn.Body)
		// Ctor-init entries are always rewritable; their argument
		// expressions are hoisted.
	}
	for f := range s.strippable {
		if s.strippable[f] {
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

// deadFieldOf returns the dead member denoted by e (any member access
// form, looking through parens and casts — `free((void*)buf)`), or nil.
func (s *stripper) deadFieldOf(e ast.Expr) *types.Field {
	for {
		if c, ok := ast.Unparen(e).(*ast.Cast); ok {
			e = c.X
			continue
		}
		break
	}
	var f *types.Field
	switch x := ast.Unparen(e).(type) {
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

// receiverOf returns the receiver expression of a member access, or nil
// for implicit-this accesses.
func receiverOf(e ast.Expr) ast.Expr {
	if m, ok := ast.Unparen(e).(*ast.Member); ok {
		return m.X
	}
	return nil
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

// scanStmt validates all references to dead members inside surviving code,
// blocking members used in positions the rewrite cannot handle.
func (s *stripper) scanStmt(stmt ast.Stmt) {
	switch x := stmt.(type) {
	case *ast.BlockStmt:
		for _, st := range x.Stmts {
			s.scanStmt(st)
		}
	case *ast.ExprStmt:
		if s.scanDroppableExprStmt(x.X) {
			return
		}
		s.scanExpr(x.X)
	case *ast.DeclStmt:
		if x.Var.Init != nil {
			s.scanExpr(x.Var.Init)
		}
		for _, a := range x.Var.CtorArgs {
			s.scanExpr(a)
		}
	case *ast.IfStmt:
		s.scanExpr(x.Cond)
		s.scanStmt(x.Then)
		if x.Else != nil {
			s.scanStmt(x.Else)
		}
	case *ast.WhileStmt:
		s.scanExpr(x.Cond)
		s.scanStmt(x.Body)
	case *ast.DoWhileStmt:
		s.scanStmt(x.Body)
		s.scanExpr(x.Cond)
	case *ast.ForStmt:
		if x.Init != nil {
			s.scanStmt(x.Init)
		}
		if x.Cond != nil {
			s.scanExpr(x.Cond)
		}
		if x.Post != nil {
			s.scanExpr(x.Post)
		}
		s.scanStmt(x.Body)
	case *ast.SwitchStmt:
		s.scanExpr(x.X)
		for i := range x.Cases {
			for _, v := range x.Cases[i].Values {
				s.scanExpr(v)
			}
			for _, st := range x.Cases[i].Body {
				s.scanStmt(st)
			}
		}
	case *ast.ReturnStmt:
		if x.X != nil {
			s.scanExpr(x.X)
		}
	}
}

// scanDroppableExprStmt handles the statement forms the rewrite knows how
// to transform; returns true when fully handled.
func (s *stripper) scanDroppableExprStmt(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Assign:
		if x.Op != token.Assign {
			return false
		}
		f := s.deadFieldOf(x.LHS)
		if f == nil {
			return false
		}
		if recv := receiverOf(x.LHS); recv != nil && !effectFree(recv) {
			s.block(f, "written through an effectful receiver")
		}
		s.scanExpr(x.RHS) // RHS survives as an expression statement
		return true
	case *ast.Delete:
		f := s.deadFieldOf(x.X)
		if f == nil {
			return false
		}
		s.checkDeleteStrippable(f, x.X)
		return true
	case *ast.Call:
		if fn, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if b := s.info.IdentFuncs[fn]; b != nil && b.Builtin && b.Name == "free" && len(x.Args) == 1 {
				if f := s.deadFieldOf(x.Args[0]); f != nil {
					s.checkDeleteStrippable(f, x.Args[0])
					return true
				}
			}
		}
		return false
	}
	return false
}

// checkDeleteStrippable blocks dead members whose delete would run a
// user destructor (dropping it could change observable behaviour).
func (s *stripper) checkDeleteStrippable(f *types.Field, arg ast.Expr) {
	if recv := receiverOf(arg); recv != nil && !effectFree(recv) {
		s.block(f, "freed through an effectful receiver")
		return
	}
	if types.RunsUserDtor(types.PointeeClass(f.Type)) {
		s.block(f, "deleting it runs a user destructor")
	}
}

// scanExpr blocks any dead member referenced inside a surviving
// expression in a position the rewrite cannot remove.
func (s *stripper) scanExpr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
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
	})
}
