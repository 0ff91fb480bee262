package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strconv"

	"deadmembers"
	"deadmembers/internal/ast"
	"deadmembers/internal/bench"
	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/heaplive"
	"deadmembers/internal/hierarchy"
	"deadmembers/internal/lexer"
	"deadmembers/internal/lint"
	"deadmembers/internal/parser"
	"deadmembers/internal/sema"
	"deadmembers/internal/source"
	"deadmembers/internal/strip"
	"deadmembers/internal/textreport"
	"deadmembers/internal/types"
)

// analyze-scaled: a developer running the analysis CLIs on codebases of
// growing size. One op is one pass over a source-scaled series (the
// paper's §3.4 curve, trimmed to sizes worth timing). Every program is
// compiled fresh, because a CLI pays the frontend on every run, and then
// goes through what deadmem, deadlint at flow and heap, and deadstrip do.
// Nothing executes, so the frontend, call graph, lint tiers and strip do
// all the work; the 3,200-class program, where the call graph grows
// superlinearly, is about 60% of a pass.
var scaledSizes = []int{200, 400, 800, 1600, 3200}

// scalingSizes are the series' largest sizes, over which
// callgraph.scaling_exp is fitted.
var scalingSizes = scaledSizes[len(scaledSizes)-3:]

// programSpec is the generator shape shared by analyze-scaled and
// serve-mixed: a program of the given class count drawn from seed.
func programSpec(name string, classes int, seed uint64) bench.Spec {
	return bench.Spec{
		Name: name, Description: "generated program",
		Classes: classes, UsedClasses: classes * 3 / 4, Members: classes * 4,
		DeadPercent: 10, Allocations: 10, RetainMod: 1, DeadHeavyClasses: 3,
		Seed: seed,
	}
}

// mix derives an independent 64-bit seed from a and b (splitmix64).
func mix(a, b uint64) uint64 {
	z := a*0x9e3779b97f4a7c15 + b + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

type scaledProgram struct {
	classes int
	src     deadmembers.Source
	ground  map[string]bool // the generator's planted dead members
	digest  [32]byte        // the warm-up op's rendered outputs
}

// scaledSeries draws the series for seed.
func scaledSeries(seed uint64) []*scaledProgram {
	var ps []*scaledProgram
	for _, n := range scaledSizes {
		name := fmt.Sprintf("scaled%d", n)
		text, ground := bench.Generate(programSpec(name, n, mix(seed, uint64(n))))
		ps = append(ps, &scaledProgram{classes: n, src: deadmembers.Source{Name: name + ".mcc", Text: text}, ground: ground})
	}
	return ps
}

// cliOutput is what one program's run through the CLIs' pipeline left to
// check.
type cliOutput struct {
	res        *deadmembers.Result
	flow, heap *deadmembers.LintResult
	stripped   []deadmembers.Source
	rendered   bytes.Buffer // text report, both SARIF logs, stripped sources
	degraded   bool
	err        error
}

// runCLIs compiles p and renders what deadmem, deadlint -format sarif at
// flow and heap, and deadstrip print for it.
func runCLIs(o *opTrace, p *scaledProgram) *cliOutput {
	out := &cliOutput{}
	label := strconv.Itoa(p.classes)
	o.begin("program", label)
	defer o.end()
	if o != nil {
		prog, h := splitFrontend(o, p.src)
		splitAnalysis(o, prog, h, label, true)
	}
	comp, err := compile(o, p.src)
	if err != nil {
		out.err = err
		return out
	}
	opts := deadmembers.Options{}
	o.begin("analyze", "")
	out.res = comp.Analyze(opts)
	o.end()
	o.begin("textreport", "")
	err = textreport.Write(&out.rendered, out.res, textreport.Options{})
	o.end()
	keep(&out.err, err)
	out.flow = lintSARIF(o, comp, deadmembers.PrecisionFlow, &out.rendered, &out.err)
	out.heap = lintSARIF(o, comp, deadmembers.PrecisionHeap, &out.rendered, &out.err)
	// Strip consumes the compilation, so it comes last.
	o.begin("api.strip", "")
	st := comp.Strip(opts, deadmembers.StripOptions{})
	o.end()
	o.begin("printer", "")
	keep(&out.err, strip.WriteSources(&out.rendered, st.Sources))
	o.end()
	out.stripped = st.Sources
	out.degraded = comp.Degraded() || out.res.Degraded() || out.flow.Degraded() || out.heap.Degraded()
	return out
}

func compile(o *opTrace, srcs ...deadmembers.Source) (*deadmembers.Compilation, error) {
	o.begin("compile", "")
	comp, err := deadmembers.Compile(srcs...)
	o.count(1)
	o.end()
	return comp, err
}

func lintSARIF(o *opTrace, comp *deadmembers.Compilation, p deadmembers.Precision, w *bytes.Buffer, errp *error) *deadmembers.LintResult {
	o.begin("api.lint", p.String())
	res := comp.Lint(deadmembers.Options{}, deadmembers.LintOptions{Precision: p})
	o.end()
	o.begin("lint.write", p.String())
	keep(errp, lint.WriteSARIF(w, res))
	o.end()
	return res
}

// keep records err in *dst unless an earlier error is there.
func keep(dst *error, err error) {
	if *dst == nil {
		*dst = err
	}
}

// check verifies out against references from outside the code under
// test: the generator's planted dead set, the monotonicity of the lint
// tiers (heap ⊇ flow), and byte identity with the warm-up op, whose
// stripped output was recompiled.
func (p *scaledProgram) check(out *cliOutput) error {
	if out.err != nil {
		return out.err
	}
	if out.degraded {
		return fmt.Errorf("degraded result")
	}
	got := map[string]bool{}
	for _, f := range out.res.DeadMembers() {
		got[f.QualifiedName()] = true
	}
	if len(got) != len(p.ground) {
		return fmt.Errorf("%d dead members, the generator planted %d", len(got), len(p.ground))
	}
	for qn := range p.ground {
		if !got[qn] {
			return fmt.Errorf("planted dead member %s reported live", qn)
		}
	}
	heap := map[lint.Finding]bool{}
	for _, f := range out.heap.Findings {
		heap[f] = true
	}
	for _, f := range out.flow.Findings {
		if !heap[f] {
			return fmt.Errorf("flow finding %s:%d %s missing at heap precision", f.File, f.Line, f.Member)
		}
	}
	if sha256.Sum256(out.rendered.Bytes()) != p.digest {
		return fmt.Errorf("rendered output differs from the warm-up op's")
	}
	return nil
}

// warmUp runs p once, checks the output that later ops are compared
// against, and recompiles the stripped program.
func (p *scaledProgram) warmUp(o *opTrace) error {
	out := runCLIs(o, p)
	p.digest = sha256.Sum256(out.rendered.Bytes())
	if err := p.check(out); err != nil {
		return err
	}
	comp, err := deadmembers.Compile(out.stripped...)
	if err != nil {
		return fmt.Errorf("stripped program does not recompile: %w", err)
	}
	if comp.Degraded() {
		return fmt.Errorf("stripped program recompiles degraded")
	}
	return nil
}

func runAnalyzeScaled(cfg config) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	out := &outcome{}
	series, took, err := setUp(setupRuns, func(id int) ([]*scaledProgram, error) {
		o := tr.op(id)
		o.begin("setup", "")
		defer o.end()
		ps := scaledSeries(cfg.seed)
		for _, p := range ps {
			if err := p.warmUp(o); err != nil {
				return nil, fmt.Errorf("warm-up, %d classes: %w", p.classes, err)
			}
		}
		return ps, nil
	}, func([]*scaledProgram) {})
	out.setups = took
	if err != nil {
		return nil, err
	}
	timedLoop(cfg, tr, out, func(o *opTrace) func() error {
		outs := make([]*cliOutput, len(series))
		for i, p := range series {
			outs[i] = runCLIs(o, p)
		}
		return func() error {
			for i, p := range series {
				if err := p.check(outs[i]); err != nil {
					return fmt.Errorf("%d classes: %w", p.classes, err)
				}
			}
			return nil
		}
	})
	if err := finishTrace(cfg, tr, out); err != nil {
		return nil, err
	}
	if tr != nil {
		var xs, ys []float64
		for _, n := range scalingSizes {
			xs = append(xs, float64(n))
			ys = append(ys, layer(out.spans, "callgraph", strconv.Itoa(n)).ms)
		}
		out.layers["callgraph.scaling_exp"] = logLogSlope(xs, ys)
	}
	return out, nil
}

// splitFrontend times the frontend modules' entry points on srcs, which
// Compile runs as one call: lexer.ScanAll, parser.ParseFileWithTypes and
// sema.Check (with the class hierarchy).
func splitFrontend(o *opTrace, srcs ...deadmembers.Source) (*types.Program, *hierarchy.Graph) {
	o.beginSplit("split.frontend", "")
	defer o.end()
	fset := source.NewFileSet()
	diags := source.NewDiagnosticList(fset)
	var files []*source.File
	typeNames := map[string]bool{}
	for _, s := range srcs {
		f := fset.AddFile(s.Name, s.Text)
		files = append(files, f)
		for n := range parser.CollectTypeNames(f) {
			typeNames[n] = true
		}
	}
	var asts []*ast.File
	for _, f := range files {
		o.begin("lexer", "")
		toks := lexer.ScanAll(f, source.NewDiagnosticList(fset))
		o.count(int64(len(toks)))
		o.end()
		o.begin("parser", "")
		asts = append(asts, parser.ParseFileWithTypes(f, diags, typeNames))
		o.end()
	}
	o.begin("sema", "")
	prog, h := sema.Check(fset, asts, diags)
	o.end()
	return prog, h
}

// splitAnalysis times the analysis modules' entry points on a split
// frontend's program, which Analyze, Lint and Strip each run inside one
// call: deadmember.BuildGraph (the RTA call graph, labelled with label),
// deadmember.AnalyzeWith (liveness) and, when full is set, lint.RunWith
// at flow and heap precision and strip.Apply, under the options the
// public API's zero Options select.
func splitAnalysis(o *opTrace, prog *types.Program, h *hierarchy.Graph, label string, full bool) {
	o.beginSplit("split.analysis", "")
	defer o.end()
	opts := deadmember.Options{CallGraph: callgraph.RTA}
	workers := runtime.GOMAXPROCS(0)
	o.begin("callgraph", label)
	g := deadmember.BuildGraph(prog, h, opts)
	o.end()
	o.begin("deadmember", "")
	res := deadmember.AnalyzeWith(prog, h, opts, deadmember.Exec{Workers: workers, Graph: g})
	o.end()
	if !full {
		return
	}
	for _, p := range []heaplive.Precision{heaplive.PrecisionFlow, heaplive.PrecisionHeap} {
		o.begin("lint", p.String())
		lr := lint.RunWith(res, lint.Options{Precision: p}, lint.Exec{Workers: workers})
		o.count(int64(len(lr.Findings)))
		o.end()
	}
	o.begin("strip", "")
	sr := strip.Apply(res, strip.Options{})
	o.count(int64(len(sr.RemovedMembers)))
	o.end()
}
