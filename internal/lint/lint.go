// Package lint implements flow-sensitive diagnostics on top of the
// flow-insensitive dead-member analysis: per-function CFGs
// (internal/cfg), backward may-liveness of candidate stores
// (internal/dataflow), and two checks —
//
//   - dead-store: a write to a member no execution path can observe
//     before another write or function exit. The flow tier checks
//     stores of one field (o.m); the heap tier adds stores through
//     chains of two to four fields (o.in.val). One store-liveness core
//     serves both tiers (deadstore.go), each with its own candidate
//     set and atom rules (heap.go holds the heap tier's);
//   - write-only-member: corroborates the flow-insensitive dead set by
//     listing the orphaned store sites of each dead member.
//
// Both checks read one per-function classification of accesses
// (classify.go), a visitor of deadmember's access walk, the walk the
// liveness pass marks members from. It keeps a fact table over the
// function's node range (types.Func.NodeLo..NodeHi).
//
// The pass allocates, per function, only what the function holds. A
// function that stores to no member holds no candidate store at either
// tier, so it gets no CFG and no store pass. Any other function gets
// one CFG, whose atoms share one slab; a store pass that finds a
// candidate indexes its paths in slices and solves over one slab of
// vectors. The callee summaries are sorted field-ID sets, nil when
// empty.
//
// The paper's special cases carry over as suppressions: volatile,
// address-taken (incl. pointer-to-member), union-contained,
// unsafe-cast-exposed, and library-class members never produce
// dead-store findings. Findings are sorted by (file, line, col, check,
// message), and every per-function pass runs inside a failure.Catch
// boundary with a dataflow step budget, so one pathological function
// degrades the result instead of wedging or crashing the run. A
// failure is named after its function only once it happens.
package lint

import (
	"context"
	"errors"
	"slices"
	"sort"
	"sync"

	"deadmembers/internal/cfg"
	"deadmembers/internal/dataflow"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/failure"
	"deadmembers/internal/heaplive"
	"deadmembers/internal/parallel"
	"deadmembers/internal/types"
)

// Checks emitted by this package.
const (
	CheckDeadStore = "dead-store"
	CheckWriteOnly = "write-only-member"
)

// Options configures what the lint pass computes.
type Options struct {
	// Budget caps dataflow solver steps per function; 0 selects the
	// automatic budget (dataflow.DefaultBudget), which no well-formed
	// function exceeds. The budget applies to each solver pass
	// independently (the heap tier runs two per function).
	Budget int

	// Precision selects the liveness tier: paper (flow-insensitive
	// write-only corroboration only), flow (the default, zero value:
	// length-one access paths), or heap (flow plus the access-graph
	// chained-path pass). Findings are monotone: paper ⊆ flow ⊆ heap.
	// Flow and heap come from one shared pass (RunTiers), so asking
	// for either costs what asking for both does.
	Precision heaplive.Precision
}

// Exec configures how — not what — Run computes; any Workers value
// yields byte-identical findings.
type Exec struct {
	// Workers bounds the per-function pass goroutines (≤1 = sequential).
	Workers int

	// Ctx, when non-nil, is polled between functions; cancellation stops
	// the pass and sets Result.Interrupted.
	Ctx context.Context

	// FuncFault, when non-nil, runs inside each function's containment
	// boundary before the function is linted (fault-injection tests).
	FuncFault func(*types.Func)
}

// Finding is one diagnostic, positioned at the offending store site.
type Finding struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Member  string `json:"member"`
	Func    string `json:"func,omitempty"`
	Message string `json:"message"`
}

// Result is the outcome of a lint run.
type Result struct {
	// Findings, sorted by (File, Line, Col, Check, Message).
	Findings []Finding

	// Failures records functions whose lint pass panicked or exhausted
	// the dataflow budget; their findings are missing, so the result is
	// degraded (incomplete, never wrong).
	Failures []*failure.Failure

	// Interrupted reports that Exec.Ctx was cancelled mid-pass.
	Interrupted bool

	// Funcs counts the reachable functions the pass covered.
	Funcs int
}

// Degraded reports whether any per-function pass was contained after a
// fault or budget overrun, so findings may be missing.
func (r *Result) Degraded() bool { return len(r.Failures) > 0 }

// Run lints the analyzed program with default execution.
func Run(ar *deadmember.Result, opts Options) *Result {
	return RunWith(ar, opts, Exec{})
}

// RunWith is Run under an explicit execution configuration. The
// deadmember.Result supplies the program, the call graph (reachable set
// and edges for callee read summaries), and the flow-insensitive dead
// set the write-only check corroborates. The flow and heap tiers are
// served by RunTiers' shared pass; the paper tier skips its dataflow
// phase.
func RunWith(ar *deadmember.Result, opts Options, exec Exec) *Result {
	if opts.Precision == heaplive.PrecisionPaper {
		return classifyAll(ar, exec).assemble(nil, false, false)
	}
	flow, heap := RunTiers(ar, opts, exec)
	if opts.Precision == heaplive.PrecisionHeap {
		return heap
	}
	return flow
}

// RunTiers produces the flow and heap results from one per-function
// pass; opts.Precision is ignored. Each reachable function that stores
// to a member gets one CFG and the flow tier's dead-store solve, then
// the heap tier's over the same CFG; a function that stores to none
// holds no candidate at either tier, so it gets neither. The flow
// result is the dead stores plus the write-only corroboration; the heap
// result adds the chained dead stores and any failure of that second
// pass. When it adds nothing, both results are the same *Result, which
// callers must treat as read-only.
func RunTiers(ar *deadmember.Result, opts Options, exec Exec) (flow, heap *Result) {
	p := classifyAll(ar, exec)
	if p.interrupted {
		r := p.assemble(nil, false, false)
		return r, r
	}

	// Phase 2 (parallel): per-function CFG + backward liveness. Results
	// land in per-index slots and merge in index order, so findings are
	// byte-identical at any worker count.
	sup := suppressedFields(ar, p.cls)
	reads := p.summaries(func(cl *classification) []int32 { return cl.reads })

	// The heap tier additionally needs what a call may *write*: a callee
	// store to a chain-interior field can re-point a tracked path's
	// prefix. Few functions store through a chain, so the first one the
	// heap pass meets builds the write summaries for every worker.
	writes := sync.OnceValue(func() []fieldSet {
		return p.summaries(func(cl *classification) []int32 {
			for _, w := range cl.writes {
				p.marks.add(w.field.ID)
			}
			return p.marks.take()
		})
	})

	outs := make([]funcOut, len(p.funcs))
	lintOne := func(i int) {
		f, o, cl := p.funcs[i], &outs[i], p.cls[i]
		var fp *funcPass
		o.flowFail = catch(f, func() {
			if exec.FuncFault != nil {
				exec.FuncFault(f)
			}
			if len(cl.writes) == 0 {
				return
			}
			g := cfg.Build(f)
			if g == nil {
				return
			}
			fp = &funcPass{ar: ar, f: f, g: g, cl: cl, sup: sup, budget: opts.Budget, ctx: p.ctx,
				reads: func() *calleeSet { return p.callees(i, reads) }}
			o.stores, o.flowErr = fp.deadStores(nil)
		})
		if fp == nil || o.flowFail != nil || o.flowErr != nil {
			return
		}
		o.heapFail = catch(f, func() {
			o.chained, o.heapErr = fp.deadStores(func() *calleeSet { return p.callees(i, writes()) })
		})
	}
	interrupted := !parallel.For(p.ctx, exec.Workers, len(p.funcs), lintOne)
	flow = p.assemble(outs, false, interrupted)
	for i := range outs {
		if o := &outs[i]; len(o.chained) > 0 || o.heapFail != nil || o.heapErr != nil {
			return flow, p.assemble(outs, true, interrupted)
		}
	}
	// Usually no function stores through a chain: the heap result is the
	// flow result, and one *Result serves both tiers.
	return flow, flow
}

// catch runs fn inside f's containment boundary. The failure, if any,
// is named after f only then.
func catch(f *types.Func, fn func()) *failure.Failure {
	fl := failure.Catch("lint", "", fn)
	if fl != nil {
		fl.Unit = f.QualifiedName()
	}
	return fl
}

// funcOut is one function's share of the flow and heap results. The
// heap half runs only after the flow half succeeded.
type funcOut struct {
	stores, chained    []Finding
	flowFail, heapFail *failure.Failure
	flowErr, heapErr   error
}

// pass is one lint run's phase-1 state, shared by every tier it serves.
type pass struct {
	ar          *deadmember.Result
	ctx         context.Context
	funcs       []*types.Func
	index       map[*types.Func]int
	cls         []*classification
	fields      int                // the program's field count: types.Field.ID < fields
	marks       *fieldMarks        // the field set being built, used by one phase at a time
	fails       []*failure.Failure // classification faults, in function order
	interrupted bool               // ctx was cancelled during classification

	// writeOnly is phase 3's corroboration, which every tier reports.
	writeOnly []Finding
}

// classifyAll is phase 1 (sequential): classify every reachable
// function's accesses once; the classifications feed suppression,
// callee summaries, and the per-function dataflow passes alike.
func classifyAll(ar *deadmember.Result, exec Exec) *pass {
	p := &pass{ar: ar, ctx: exec.Ctx, fields: fieldCount(ar.Program)}
	p.marks = newFieldMarks(p.fields)
	if p.ctx == nil {
		p.ctx = context.Background()
	}
	p.funcs = ar.CallGraph.ReachableFuncs()
	p.cls = make([]*classification, len(p.funcs))
	p.index = make(map[*types.Func]int, len(p.funcs))
	for i, f := range p.funcs {
		if p.ctx.Err() != nil {
			p.interrupted = true
			return p
		}
		p.index[f] = i
		if pf := catch(f, func() {
			p.cls[i] = classify(ar.Program.Info, f, p.marks)
		}); pf != nil {
			p.fails = append(p.fails, pf)
			p.cls[i] = &classification{} // empty: function contributes nothing
		}
	}

	// Phase 3: write-only corroboration over the flow-insensitive dead
	// set — every store site of a dead member is by construction
	// orphaned; list them as the explanation.
	p.writeOnly = writeOnly(ar, p.funcs, p.cls)
	return p
}

// fieldCount returns one more than the largest types.Field.ID of prog.
func fieldCount(prog *types.Program) int {
	n := 0
	for _, c := range prog.Classes {
		for _, f := range c.Fields {
			n = max(n, f.ID+1)
		}
	}
	return n
}

// assemble builds one tier's Result: per function, in order, the dead
// stores (and, for heap, the chained ones) and any fault or budget
// overrun; then the write-only corroboration. outs is nil at the paper
// tier. sortFindings is not stable, so this pre-sort order is part of
// the output contract. A pass cancelled during classification reports
// no findings.
func (p *pass) assemble(outs []funcOut, heap, interrupted bool) *Result {
	res := &Result{Funcs: len(p.funcs), Interrupted: interrupted || p.interrupted}
	res.Failures = append(res.Failures, p.fails...)
	if p.interrupted {
		return res
	}
	for i := range outs {
		o := &outs[i]
		res.Findings = append(res.Findings, o.stores...)
		fail, err := o.flowFail, o.flowErr
		if heap {
			res.Findings = append(res.Findings, o.chained...)
			if fail == nil {
				fail = o.heapFail
			}
			if err == nil {
				err = o.heapErr
			}
		}
		if fail != nil {
			res.Failures = append(res.Failures, fail)
		}
		var budget *dataflow.BudgetError
		switch {
		case err == nil:
		case errors.As(err, &budget):
			// A budget overrun is an ordinary internal diagnostic, not a
			// crash: surface it through the same Failures/Degraded path,
			// named after the function only now.
			named := *budget
			named.Unit = p.funcs[i].QualifiedName()
			res.Failures = append(res.Failures, &failure.Failure{
				Stage: "lint",
				Unit:  named.Unit,
				Value: named.Error(),
				Stack: "budget",
			})
		default:
			// Context cancellation mid-solve.
			res.Interrupted = true
		}
	}
	res.Findings = append(res.Findings, p.writeOnly...)
	sortFindings(res.Findings)
	sortFailures(res.Failures)
	return res
}

// sortFindings orders findings by (file, line, col, check, message) —
// the deterministic contract of the CLI output.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

func sortFailures(fs []*failure.Failure) {
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].Unit < fs[j].Unit })
}

// suppressedFields computes the program-wide set of fields that never
// produce dead-store findings, one bit per types.Field.ID: the paper's
// special cases, applied as suppressions. The address-taken scan covers
// reachable functions only — sound, because an access in unreachable
// code cannot execute.
func suppressedFields(ar *deadmember.Result, cls []*classification) dataflow.BitSet {
	sup := dataflow.NewBitSet(fieldCount(ar.Program))
	seen := map[*types.Class]bool{}
	supClass := func(c *types.Class) {
		types.Contained(c, seen, func(k *types.Class) {
			for _, f := range k.Fields {
				sup.Set(f.ID)
			}
		})
	}

	for _, c := range ar.Program.Classes {
		// Volatile members: every write is observable.
		for _, f := range c.Fields {
			if f.Volatile {
				sup.Set(f.ID)
			}
		}
		// Union-contained members: stores alias across the union.
		if c.IsUnion() {
			supClass(c)
		}
		// Library classes: unclassifiable (paper §3.3).
		if c.Library || ar.IsLibraryClass(c) {
			for _, f := range c.Fields {
				sup.Set(f.ID)
			}
		}
	}

	// Address-taken members (incl. &C::m): reads through the pointer
	// are invisible to the tracker.
	for _, cl := range cls {
		for _, f := range cl.addr {
			sup.Set(f.ID)
		}
	}

	// Unsafe casts expose the source class's representation unless the
	// user vouched for every downcast.
	if !ar.Options.TrustDowncasts {
		for _, src := range ar.Program.Info.UnsafeCasts {
			supClass(src)
		}
	}
	return sup
}

// fieldSet is a callee summary: the fields a call may read or store to,
// as sorted, distinct types.Field.IDs (nil when there are none), or
// everything (pointer-to-member deref somewhere below).
type fieldSet struct {
	ids       []int32
	universal bool
}

// has reports whether the set holds f.
func (s *fieldSet) has(f *types.Field) bool {
	if s.universal {
		return true
	}
	_, ok := slices.BinarySearch(s.ids, int32(f.ID))
	return ok
}

// calleeSet is what a call out of one function may touch: the union of
// its callees' transitive summaries (not the function's own accesses —
// those gen at their own atoms), kept as the list of those summaries.
type calleeSet struct {
	sums      []*fieldSet
	universal bool
}

// has reports whether a call may touch f.
func (c *calleeSet) has(f *types.Field) bool {
	if c.universal {
		return true
	}
	for _, s := range c.sums {
		if s.has(f) {
			return true
		}
	}
	return false
}

// callees returns what a call out of function i may touch, given every
// function's transitive summary.
func (p *pass) callees(i int, sums []fieldSet) *calleeSet {
	c := &calleeSet{}
	for _, callee := range p.ar.CallGraph.Edges[p.funcs[i]] {
		j, ok := p.index[callee]
		switch {
		case !ok, sums[j].universal:
			// An edge to a function outside the reachable scan
			// (defensive) may touch anything.
			c.universal = true
		case sums[j].ids != nil:
			c.sums = append(c.sums, &sums[j])
		}
	}
	return c
}

// summaries computes, for each reachable function, the fields it and
// its callees may touch: the function's own, as seed returns them
// (sorted and distinct), closed over the call graph's edges. Each
// function absorbs its callees' sets until quiescence; monotone, so
// iteration terminates. A function that reads a statically unknown
// member touches everything, and so does one that calls it.
func (p *pass) summaries(seed func(*classification) []int32) []fieldSet {
	m := p.marks
	sums := make([]fieldSet, len(p.funcs))
	for i, cl := range p.cls {
		sums[i] = fieldSet{ids: seed(cl), universal: cl.universal}
	}
	for {
		changed := false
		for i, f := range p.funcs {
			edges := p.ar.CallGraph.Edges[f]
			if len(edges) == 0 {
				continue
			}
			s := &sums[i]
			m.hold(s.ids)
			for _, callee := range edges {
				j, ok := p.index[callee]
				if !ok || sums[j].universal {
					// An edge to a function outside the reachable scan
					// (defensive): assume it may touch anything.
					if !s.universal {
						s.universal = true
						changed = true
					}
					if !ok {
						continue
					}
				}
				for _, id := range sums[j].ids {
					m.add(int(id))
				}
			}
			if m.grew() {
				changed = true
			}
			s.ids = m.take()
		}
		if !changed {
			return sums
		}
	}
}

// fieldMarks accumulates a set of fields: one bit per types.Field.ID,
// program-wide and reused, plus the list of the IDs it holds, so that
// taking the set sorts and clears only what it holds.
type fieldMarks struct {
	bits  dataflow.BitSet
	held  []int32 // a sorted set marked by hold
	added []int32 // IDs marked by add, in marking order
}

func newFieldMarks(fields int) *fieldMarks {
	return &fieldMarks{bits: dataflow.NewBitSet(fields)}
}

// hold marks the sorted set ids.
func (m *fieldMarks) hold(ids []int32) {
	for _, id := range ids {
		m.bits.Set(int(id))
	}
	m.held = ids
}

// add marks id.
func (m *fieldMarks) add(id int) {
	if !m.bits.Has(id) {
		m.bits.Set(id)
		m.added = append(m.added, int32(id))
	}
}

// grew reports whether add marked anything since the last take.
func (m *fieldMarks) grew() bool { return len(m.added) > 0 }

// take returns the marked IDs, sorted and distinct — the held slice
// itself when add marked nothing, nil when nothing is marked — and
// clears every mark.
func (m *fieldMarks) take() []int32 {
	out := m.held
	if len(m.added) > 0 {
		out = append(append(make([]int32, 0, len(m.held)+len(m.added)), m.held...), m.added...)
		slices.Sort(out)
	}
	for _, id := range out {
		m.bits[id/64] = 0
	}
	m.held, m.added = nil, m.added[:0]
	return out
}
