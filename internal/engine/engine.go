// Package engine is the staged analysis pipeline behind the public API:
//
//	Lex/Parse → Sema → CallGraph → Liveness → Profile/Strip
//
// It exists so callers compile once and analyze many times. The frontend
// stages (internal/frontend's Parse, then sema) produce an explicit
// Compilation artifact; the analysis stages run against it under any
// number of deadmember.Options without re-lexing, re-parsing, or
// re-typechecking. Every later stage, the strip transform included, leaves
// the compiled program as it found it, so one Compilation serves any
// number of calls, concurrent ones included. On top of that the engine
// provides:
//
//   - liveness and lint passes spread over GOMAXPROCS workers, whose
//     results are byte-identical at any worker count (see
//     internal/deadmember/parallel.go);
//   - a per-Compilation call-graph cache keyed by the options that affect
//     graph construction (mode + library classes), so ablation sweeps that
//     vary only marking rules share one graph;
//   - per-Compilation caches of the clean liveness result per analysis
//     options and of the lint result per tier, so Analyze, Lint, Strip
//     and Profile share one liveness pass, and one lint pass serves both
//     the flow and the heap tier;
//   - a content-hash-keyed Session cache (see session.go) so repeated
//     compilations of identical sources skip the frontend entirely;
//   - wall-clock timings for every stage, so speedups are observable
//     without a profiler.
//
// Each stage has at most two entry points: a plain method (Analyze,
// Lint, Strip, Profile, Run) and one Context method that takes a
// context and returns the result, the stage's Timings where it reports
// them (Analyze and Lint), and an error. The run and profile Context
// methods also take the step budget. The public deadmembers package
// aliases Compilation, so these methods are its API too; it adds no
// second layer.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"deadmembers/internal/ast"
	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/dynprof"
	"deadmembers/internal/failure"
	"deadmembers/internal/frontend"
	"deadmembers/internal/heaplive"
	"deadmembers/internal/hierarchy"
	"deadmembers/internal/interp"
	"deadmembers/internal/lint"
	"deadmembers/internal/sema"
	"deadmembers/internal/source"
	"deadmembers/internal/strip"
	"deadmembers/internal/types"
	"deadmembers/internal/vm"
)

// Source is one named MC++ source file (re-exported from the frontend so
// engine callers need only this package).
type Source = frontend.Source

// Config holds the pipeline's fault hooks: tests use them to inject a
// panic into one unit of a stage. The zero Config injects nothing.
type Config struct {
	// ParseFault, when non-nil, runs inside each file's parse
	// containment boundary just before the named file is parsed (see
	// frontend.Parse).
	ParseFault func(fileName string)

	// FuncFault, when non-nil, is passed to the liveness pass as
	// deadmember.Exec.FuncFault (fault injection into one function's
	// liveness processing).
	FuncFault func(*types.Func)

	// LintFault, when non-nil, is passed to the lint pass as
	// lint.Exec.FuncFault (fault injection into a lint worker).
	LintFault func(*types.Func)
}

// Timings records per-stage wall-clock durations. Parse and Sema are
// properties of the Compilation; CallGraph and Liveness of one Analyze
// call (each is zero when its result came from the per-compilation
// cache, flagged by CallGraphCached and LivenessCached).
type Timings struct {
	Parse     time.Duration // lexing + type prescan + parsing
	Sema      time.Duration
	CallGraph time.Duration
	Liveness  time.Duration
	Lint      time.Duration // flow-sensitive pass; zero unless Lint ran

	CallGraphCached bool
	// LivenessCached reports that the analysis result came from the
	// per-compilation cache (Liveness and CallGraph are zero then, and
	// CallGraphCached is set).
	LivenessCached bool
	// LintCached reports that the lint result came from the
	// per-compilation cache (Lint is zero then); the cache key includes
	// the precision tier, so tiers never collide.
	LintCached bool
}

// Add accumulates other into t (for corpus-wide summaries).
func (t *Timings) Add(other Timings) {
	t.Parse += other.Parse
	t.Sema += other.Sema
	t.CallGraph += other.CallGraph
	t.Liveness += other.Liveness
	t.Lint += other.Lint
}

// Total sums the stage durations.
func (t Timings) Total() time.Duration {
	return t.Parse + t.Sema + t.CallGraph + t.Liveness + t.Lint
}

// Compilation is the immutable artifact of the frontend stages: a typed
// program plus everything needed to analyze it repeatedly.
type Compilation struct {
	Program   *types.Program
	Hierarchy *hierarchy.Graph
	FileSet   *source.FileSet
	Diags     *source.DiagnosticList

	// Sources are the inputs the compilation was built from. No stage
	// reads them: strip rewrites from the ASTs and recompiles nothing.
	Sources []Source

	// Fingerprint is the content hash keying the session cache.
	Fingerprint string

	// Failures records panics contained during the frontend stages (one
	// per faulted file parse, or one for a faulted sema pass). The
	// faulted unit's results are replaced by an empty salvage value and
	// every other unit's results are kept, so the artifact is usable but
	// Degraded: treat its analysis output as incomplete.
	Failures []*failure.Failure

	cfg       Config
	timings   Timings // Parse + Sema only
	retained  int64   // RetainedBytes, fixed at compile time
	cancelErr error   // context error that aborted Compile, if any

	// The caches hold results only: clean analyses per options and
	// clean lint results per options and tier. Nothing a pass builds
	// on the way (classifications, CFGs, summaries) is kept.
	mu       sync.Mutex
	graphs   map[string]*callgraph.Graph
	analyses map[string]*deadmember.Result
	lints    map[string]*lint.Result
}

// Err returns an error if the compile was cancelled or any frontend phase
// reported errors. Contained panics are NOT errors — they mark the
// artifact Degraded while the diagnostics stay about the source program.
func (c *Compilation) Err() error {
	if c.cancelErr != nil {
		return c.cancelErr
	}
	return c.Diags.Err()
}

// CancelErr returns the context error that aborted Compile, or nil.
func (c *Compilation) CancelErr() error { return c.cancelErr }

// Degraded reports whether a frontend stage faulted and was contained.
func (c *Compilation) Degraded() bool { return len(c.Failures) > 0 }

// Timings returns the frontend stage durations of this compilation.
func (c *Compilation) Timings() Timings { return c.timings }

// bytesPerNode is the heap a compiled program retains per expression or
// syntactic type the parser built (ast.File.Nodes), beyond its source
// text: the tree with its statements and declarations, the typed
// program, the type tables and the class hierarchy. It is calibrated on
// generated programs of 25 to 400 classes, which retain 124-128 bytes
// per such node after a full GC (see TestRetainedEstimate).
const bytesPerNode = 126

// RetainedBytes estimates the heap this compilation retains once
// compiled: bytesPerNode per node the parser counted, plus the source
// names and texts. It is computed once, at compile time, and is what a
// Session charges the entry against Limits.MaxBytes. What the
// compilation caches later is not counted: the call graphs, liveness
// results and lint results that Analyze and Lint store, about 6% of a
// 400-class entry once all are asked for.
func (c *Compilation) RetainedBytes() int64 { return c.retained }

// retainedEstimate computes RetainedBytes for a compilation of sources
// whose files the parser counted into files.
func retainedEstimate(sources []Source, files []*ast.File) int64 {
	var n int64
	for _, s := range sources {
		n += int64(len(s.Name)) + int64(len(s.Text))
	}
	for _, f := range files {
		n += bytesPerNode * int64(f.Nodes)
	}
	return n
}

// Compile runs the frontend stages over sources: frontend.Parse (every
// file lexed, then every file parsed, with diagnostics in file order),
// then semantic analysis. The result always carries a (possibly partial)
// program; check Err before trusting it.
func Compile(cfg Config, sources ...Source) *Compilation {
	return CompileContext(context.Background(), cfg, sources...)
}

// CompileContext is Compile under a context. Cancellation is checked
// between files and before sema; a cancelled compile returns early with
// CancelErr set (and Err returning it). Each file's parse and the sema
// stage run inside a recover boundary: a panic is converted into a
// structured Failure, the faulted file salvaged as an empty AST (or the
// program as an empty program for sema), and every other file's results
// kept.
func CompileContext(ctx context.Context, cfg Config, sources ...Source) *Compilation {
	c := &Compilation{
		Sources:     sources,
		Fingerprint: fingerprint(sources),
		cfg:         cfg,
		graphs:      map[string]*callgraph.Graph{},
		analyses:    map[string]*deadmember.Result{},
		lints:       map[string]*lint.Result{},
	}
	parseStart := time.Now()
	fset := source.NewFileSet()
	diags := source.NewDiagnosticList(fset)
	c.FileSet = fset
	c.Diags = diags
	files, fails, err := frontend.Parse(ctx, fset, diags, sources, cfg.ParseFault)
	c.Failures = fails
	c.timings.Parse = time.Since(parseStart)
	if err != nil {
		return c.cancelled(ctx)
	}
	c.retained = retainedEstimate(sources, files)

	// Semantic analysis (whole-program, sequential). A panic degrades
	// the compilation to an empty program; the parse diagnostics are kept.
	semaStart := time.Now()
	var prog *types.Program
	var graph *hierarchy.Graph
	if f := failure.Catch("sema", "program", func() {
		prog, graph = sema.Check(fset, files, diags)
	}); f != nil {
		c.Failures = append(c.Failures, f)
		prog, graph = sema.Check(fset, nil, diags)
	}
	c.timings.Sema = time.Since(semaStart)

	c.Program = prog
	c.Hierarchy = graph
	return c
}

// cancelled finalizes a compilation aborted by ctx: a well-formed but
// empty artifact whose Err and CancelErr report the context error.
func (c *Compilation) cancelled(ctx context.Context) *Compilation {
	c.cancelErr = ctx.Err()
	prog, graph := sema.Check(c.FileSet, nil, source.NewDiagnosticList(c.FileSet))
	c.Program = prog
	c.Hierarchy = graph
	return c
}

// graphKey identifies the options that affect call-graph construction:
// the mode and the library-class designation (whose virtual overriders
// become extra roots). Marking rules (sizeof, delete, writes-are-uses,
// downcasts) do not change the graph and share cache entries.
func graphKey(opts deadmember.Options) string {
	return opts.CallGraph.String() + "\x00" + strings.Join(opts.LibraryClasses, "\x00")
}

// graphFor returns the call graph for opts, building and caching it on
// first use. The build runs under the compilation lock: hierarchy lookup
// caches are lazily populated during construction, so concurrent builds
// must be serialized.
func (c *Compilation) graphFor(opts deadmember.Options) (g *callgraph.Graph, cached bool, took time.Duration) {
	key := graphKey(opts)
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.graphs[key]; ok {
		return g, true, 0
	}
	start := time.Now()
	g = deadmember.BuildGraph(c.Program, c.Hierarchy, opts)
	took = time.Since(start)
	c.graphs[key] = g
	return g, false, took
}

// Analyze runs the dead-data-member analysis against the compilation.
// Repeated calls under different Options reuse the frontend artifact (and
// the call graph, when only marking rules differ); a repeated call under
// the same Options returns the cached *Result without a liveness pass.
// The Result is shared and must be treated as read-only.
func (c *Compilation) Analyze(opts deadmember.Options) *deadmember.Result {
	res, _, _ := c.AnalyzeContext(context.Background(), opts)
	return res
}

// analysisKey identifies everything that can change an analysis result.
func analysisKey(opts deadmember.Options) string {
	return fmt.Sprintf("%+v", opts)
}

// AnalyzeContext is Analyze under a context, returning the per-stage
// wall-clock timings of this call (Parse/Sema are the compilation's,
// CallGraph/Liveness this run's). Cancellation is polled between
// functions of the liveness pass, and an interrupted run returns the
// context's error and a nil result.
func (c *Compilation) AnalyzeContext(ctx context.Context, opts deadmember.Options) (*deadmember.Result, Timings, error) {
	t := c.timings
	if err := ctx.Err(); err != nil {
		return nil, t, err
	}
	key := analysisKey(opts)
	c.mu.Lock()
	res, ok := c.analyses[key]
	c.mu.Unlock()
	if ok {
		t.CallGraphCached = true
		t.LivenessCached = true
		return res, t, nil
	}

	g, cached, graphTime := c.graphFor(opts)
	t.CallGraph = graphTime
	t.CallGraphCached = cached

	liveStart := time.Now()
	res = deadmember.AnalyzeWith(c.Program, c.Hierarchy, opts, deadmember.Exec{
		Workers:   runtime.GOMAXPROCS(0),
		Graph:     g,
		Ctx:       ctx,
		FuncFault: c.cfg.FuncFault,
	})
	t.Liveness = time.Since(liveStart)
	if res.Interrupted {
		return nil, t, ctx.Err()
	}
	// Cache only clean results, as the lint cache does: a degraded one
	// may reflect an injected fault. A concurrent run that stored first
	// wins, so every caller sees one *Result per options.
	if !res.Degraded() {
		c.mu.Lock()
		if prev, ok := c.analyses[key]; ok {
			res = prev
		} else {
			c.analyses[key] = res
		}
		c.mu.Unlock()
	}
	return res, t, nil
}

// Lint runs the flow-sensitive diagnostics (dead-store and
// write-only-member checks) on top of the (cached) analysis.
func (c *Compilation) Lint(opts deadmember.Options, lopts lint.Options) *lint.Result {
	res, _, _ := c.LintContext(context.Background(), opts, lopts)
	return res
}

// LintContext is Lint under a context, returning the per-stage timings
// of this call (Lint is the flow-sensitive pass's wall clock; a call
// whose result is already cached is served from the per-compilation
// cache and flagged LintCached). One pass computes the flow and heap
// tiers together and caches both, so after a flow run the heap request
// is a hit, and the reverse. An interrupted run returns the context's
// error and a nil result.
func (c *Compilation) LintContext(ctx context.Context, opts deadmember.Options, lopts lint.Options) (*lint.Result, Timings, error) {
	ar, t, err := c.AnalyzeContext(ctx, opts)
	if err != nil {
		return nil, t, err
	}
	lres, took, cached, err := c.lintAnalyzed(ctx, ar, lopts)
	t.Lint = took
	t.LintCached = cached
	return lres, t, err
}

// lintKey identifies everything that can change a lint result: the
// analysis options (call graph, marking rules, libraries) and the lint
// options — budget and, crucially, the precision tier, so tier results
// never collide in the cache.
func lintKey(opts deadmember.Options, lopts lint.Options) string {
	return fmt.Sprintf("%s\x00%d\x00%s", analysisKey(opts), lopts.Budget, lopts.Precision)
}

func (c *Compilation) lintAnalyzed(ctx context.Context, ar *deadmember.Result, lopts lint.Options) (*lint.Result, time.Duration, bool, error) {
	key := lintKey(ar.Options, lopts)
	c.mu.Lock()
	res, ok := c.lints[key]
	c.mu.Unlock()
	if ok {
		return res, 0, true, nil
	}

	// The flow and heap tiers come from one pass; both results are
	// cached, whichever was asked for. The paper tier runs alone.
	exec := lint.Exec{Workers: runtime.GOMAXPROCS(0), Ctx: ctx, FuncFault: c.cfg.LintFault}
	var tiers [3]*lint.Result // indexed by heaplive.Precision
	start := time.Now()
	if lopts.Precision == heaplive.PrecisionPaper {
		tiers[heaplive.PrecisionPaper] = lint.RunWith(ar, lopts, exec)
	} else {
		tiers[heaplive.PrecisionFlow], tiers[heaplive.PrecisionHeap] = lint.RunTiers(ar, lopts, exec)
	}
	took := time.Since(start)
	res = tiers[lopts.Precision]
	if res.Interrupted {
		return nil, took, false, ctx.Err()
	}
	// Cache only clean results: degraded ones may reflect injected
	// faults, and interrupted ones are partial.
	c.mu.Lock()
	for p, r := range tiers {
		if r != nil && !r.Interrupted && !r.Degraded() {
			lopts.Precision = heaplive.Precision(p)
			c.lints[lintKey(ar.Options, lopts)] = r
		}
	}
	c.mu.Unlock()
	return res, took, false, nil
}

// Profile analyzes and then executes the program with an instrumented
// heap, attributing bytes to the dead members found.
func (c *Compilation) Profile(opts deadmember.Options) (*dynprof.Profile, error) {
	return c.ProfileContext(context.Background(), opts, 0)
}

// ProfileContext is Profile under a context and a step budget (maxSteps
// statements; 0 = the interpreter's default). The analysis polls ctx
// between liveness functions and the instrumented execution polls it at
// the interpreter's step boundary, so a deadline bounds the whole run.
// The execution runs on a fresh NewExecutor, with runtime diagnostics
// positioned through the compilation's FileSet.
func (c *Compilation) ProfileContext(ctx context.Context, opts deadmember.Options, maxSteps int64) (*dynprof.Profile, error) {
	res, _, err := c.AnalyzeContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	return dynprof.Run(res, dynprof.Options{
		MaxSteps: maxSteps,
		Context:  ctx,
		Executor: c.NewExecutor(),
		FileSet:  c.FileSet,
	})
}

// Run executes the program without instrumentation.
func (c *Compilation) Run() (*interp.Result, error) {
	return c.RunContext(context.Background(), 0)
}

// RunContext is Run under a context, polled at the interpreter's step
// boundary, and a step budget (maxSteps statements; 0 = the
// interpreter's default).
func (c *Compilation) RunContext(ctx context.Context, maxSteps int64) (*interp.Result, error) {
	return interp.Run(c.Program, c.Hierarchy, interp.Options{
		MaxSteps: maxSteps,
		Context:  ctx,
		FileSet:  c.FileSet,
		Executor: c.NewExecutor(),
	})
}

// NewExecutor builds the bytecode VM that every execution of this
// program runs on. It is fresh per call because its inline caches bind
// one run's Machine cells, so executors are never shared across runs.
// Running with a nil interp.Options.Executor (the tree-walker) is left
// to tests, which use it as the VM's reference oracle.
func (c *Compilation) NewExecutor() *vm.Executor {
	return vm.NewExecutor(c.Program, c.Hierarchy)
}

// Strip analyzes and applies the dead-member elimination transform. The
// transform writes nothing of the compilation (see strip.Apply), so the
// compilation serves later and concurrent calls unchanged.
func (c *Compilation) Strip(opts deadmember.Options, sopts strip.Options) *strip.Result {
	res, _ := c.StripContext(context.Background(), opts, sopts)
	return res
}

// StripContext is Strip under a context. The analysis polls ctx; a panic
// inside the transform itself is contained and returned as an error.
func (c *Compilation) StripContext(ctx context.Context, opts deadmember.Options, sopts strip.Options) (*strip.Result, error) {
	res, _, err := c.AnalyzeContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	var out *strip.Result
	if f := failure.Catch("strip", "program", func() {
		out = strip.Apply(res, sopts)
	}); f != nil {
		return nil, f
	}
	return out, nil
}

// Fingerprint returns the content hash that keys the session cache (and
// the server's persistent artifact store) for sources, without
// compiling them.
func Fingerprint(sources ...Source) string { return fingerprint(sources) }

// fingerprint hashes the source names and texts (length-prefixed, so
// concatenation ambiguities cannot collide) into a stable hex key.
func fingerprint(sources []Source) string {
	h := sha256.New()
	var lenBuf [8]byte
	writePart := func(s string) {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(s)))
		h.Write(lenBuf[:])
		h.Write([]byte(s))
	}
	for _, s := range sources {
		writePart(s.Name)
		writePart(s.Text)
	}
	return hex.EncodeToString(h.Sum(nil))
}
