// Package deadmembers is the public API of this repository: a from-scratch
// reproduction of Sweeney & Tip, "A Study of Dead Data Members in C++
// Applications" (PLDI 1998).
//
// The library compiles MC++ (a substantial C++ subset), detects data
// members that are guaranteed dead — removable without changing observable
// behaviour — and measures, by executing the program on a built-in
// interpreter with an instrumented heap, how much object space those dead
// members occupy at run time.
//
// The pipeline is staged: Compile runs the frontend once and returns a
// Compilation that can be analyzed, profiled, or stripped many times under
// different Options without re-lexing, re-parsing, or re-typechecking:
//
//	comp, err := deadmembers.Compile(deadmembers.Source{Name: "app.mcc", Text: src})
//	result := comp.Analyze(deadmembers.Options{})
//	for _, f := range result.DeadMembers() {
//	    fmt.Println(f.QualifiedName())
//	}
//	ablated := comp.Analyze(deadmembers.Options{WritesAreUses: true})
//	profile, err := comp.Profile(deadmembers.Options{})
//	fmt.Println(profile.Ledger.DeadPercent())
//
// There is one API layer: Compilation, Options, CallGraphMode and the
// other types here are aliases of the engine's (internal/engine,
// internal/deadmember, internal/callgraph, internal/lint), so a value
// passes between this package and the engine unconverted. Each stage has
// a plain method and one Context method, which takes a context and
// returns the stage's error (and, for Analyze and Lint, its Timings);
// the run and profile Context methods also take the step budget. This
// package adds only the error-returning Compile and CompileContext and
// the one-shot helpers (Analyze, AnalyzeSource, ProfileProgram,
// ProfileSource, Strip, Run), thin wrappers that compile and run a
// single stage.
//
// The internal packages implement the full pipeline: lexer, parser, type
// checker, class hierarchy (member lookup + object layout), call graphs
// (RTA/CHA/ALL), the paper's detection algorithm, the interpreter's
// runtime core with the bytecode VM that executes every program on it,
// and the staged engine (internal/engine) with its compile-once session
// cache. The liveness and lint passes spread over GOMAXPROCS workers and
// give byte-identical results at any setting; GOMAXPROCS is the way to
// cap the cores a run uses.
package deadmembers

import (
	"context"

	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/dynprof"
	"deadmembers/internal/engine"
	"deadmembers/internal/failure"
	"deadmembers/internal/frontend"
	"deadmembers/internal/heaplive"
	"deadmembers/internal/interp"
	"deadmembers/internal/lint"
	"deadmembers/internal/strip"
)

// Source is one named MC++ source file.
type Source = frontend.Source

// CallGraphMode selects call-graph precision. The zero value is RTA, the
// paper's configuration.
type CallGraphMode = callgraph.Mode

// Call graph modes, in decreasing order of precision.
const (
	CallGraphRTA = callgraph.RTA
	CallGraphCHA = callgraph.CHA
	CallGraphALL = callgraph.ALL
)

// SizeofPolicy controls how sizeof expressions are treated (paper §3.2).
type SizeofPolicy = deadmember.SizeofPolicy

// Sizeof policies. SizeofIgnore is the paper's benchmark setting.
const (
	SizeofIgnore       = deadmember.SizeofIgnore
	SizeofConservative = deadmember.SizeofConservative
)

// Options configures the analysis, and the analysis that profiling and
// stripping run first. The zero value reproduces the paper's
// configuration: RTA call graph, sizeof ignored, delete/free special
// case enabled, downcasts treated conservatively. Its fields are
// CallGraph, Sizeof, NoDeleteSpecialCase, TrustDowncasts, WritesAreUses
// (the ablation of the paper's §2 write/read distinction) and
// LibraryClasses (see internal/deadmember for each).
type Options = deadmember.Options

// Result is a completed static analysis (see internal/deadmember for the
// full accessor set).
type Result = deadmember.Result

// Failure is a structured record of a panic contained by the pipeline:
// the stage and unit that crashed, the recovered value, and a stable
// stack digest. Failures never abort a run — the artifact is salvaged
// and marked degraded instead.
type Failure = failure.Failure

// LintOptions configures the flow-sensitive lint pass: Budget caps
// dataflow solver steps per function (0 = automatic), and Precision
// selects the liveness tier — PrecisionPaper, PrecisionFlow (the
// zero-value default), or PrecisionHeap.
type LintOptions = lint.Options

// Precision selects the lint liveness tier (see internal/heaplive):
// paper ⊆ flow ⊆ heap.
type Precision = heaplive.Precision

// Precision tiers, re-exported for LintOptions.
const (
	PrecisionPaper = heaplive.PrecisionPaper
	PrecisionFlow  = heaplive.PrecisionFlow
	PrecisionHeap  = heaplive.PrecisionHeap
)

// LintFinding is one flow-sensitive diagnostic.
type LintFinding = lint.Finding

// LintResult is a completed lint run: position-sorted findings plus the
// degradation record (contained panics and budget overruns).
type LintResult = lint.Result

// Profile is a completed dynamic measurement.
type Profile = dynprof.Profile

// ExecResult reports a plain (unprofiled) execution.
type ExecResult = interp.Result

// Timings records per-stage wall-clock durations of the pipeline.
type Timings = engine.Timings

// StripOptions configures the dead-member elimination transform.
type StripOptions = strip.Options

// StripResult reports what the transform removed (and what it refused to
// remove, with reasons).
type StripResult = strip.Result

// Compilation is a compiled program: the reusable artifact of the
// frontend stages. Analyze/Lint/Profile/Strip/Run execute the later
// pipeline stages against it; compiling once and analyzing many times is
// the intended idiom for sweeps and services. A repeat analysis under
// the same Options returns the same cached *Result, which Lint, Profile
// and Strip share too; treat it as read-only.
type Compilation = engine.Compilation

// Compile runs the frontend (lex and parse each file, then semantic
// analysis) over the sources once, returning the reusable Compilation.
func Compile(sources ...Source) (*Compilation, error) {
	return CompileContext(context.Background(), sources...)
}

// CompileContext is Compile under a context: cancellation or deadline
// expiry aborts the frontend between files and is reported as the
// returned error.
func CompileContext(ctx context.Context, sources ...Source) (*Compilation, error) {
	c := engine.CompileContext(ctx, engine.Config{}, sources...)
	if err := c.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// Analyze compiles the sources and runs the dead-data-member analysis.
func Analyze(opts Options, sources ...Source) (*Result, error) {
	c, err := Compile(sources...)
	if err != nil {
		return nil, err
	}
	return c.Analyze(opts), nil
}

// AnalyzeSource analyzes a single source file.
func AnalyzeSource(name, text string, opts Options) (*Result, error) {
	return Analyze(opts, Source{Name: name, Text: text})
}

// ProfileProgram analyzes the sources and then executes the program with
// an instrumented heap, attributing bytes to the dead members found.
func ProfileProgram(opts Options, sources ...Source) (*Profile, error) {
	c, err := Compile(sources...)
	if err != nil {
		return nil, err
	}
	return c.Profile(opts)
}

// ProfileSource profiles a single source file.
func ProfileSource(name, text string, opts Options) (*Profile, error) {
	return ProfileProgram(opts, Source{Name: name, Text: text})
}

// Strip analyzes the sources and removes the dead data members (and
// unreachable functions) whose elimination is provably behaviour
// preserving, returning the transformed program — the space optimization
// the paper proposes for "any optimizing compiler".
func Strip(opts Options, stripOpts StripOptions, sources ...Source) (*StripResult, error) {
	c, err := Compile(sources...)
	if err != nil {
		return nil, err
	}
	return c.Strip(opts, stripOpts), nil
}

// Run compiles and executes the sources without instrumentation,
// returning the program's exit code and captured output.
func Run(sources ...Source) (*ExecResult, error) {
	c, err := Compile(sources...)
	if err != nil {
		return nil, err
	}
	return c.Run()
}
