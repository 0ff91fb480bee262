// Benchmarks regenerating each exhibit of the paper's evaluation, plus
// micro-benchmarks for the pipeline stages. Run with:
//
//	go test -bench=. -benchmem
package deadmembers_test

import (
	"context"
	"fmt"
	"testing"

	"deadmembers/internal/ast"
	"deadmembers/internal/bench"
	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/dynprof"
	"deadmembers/internal/engine"
	"deadmembers/internal/frontend"
	"deadmembers/internal/heaplive"
	"deadmembers/internal/lexer"
	"deadmembers/internal/lint"
	"deadmembers/internal/parser"
	"deadmembers/internal/report"
	"deadmembers/internal/sema"
	"deadmembers/internal/source"
	"deadmembers/internal/vm"
)

// BenchmarkTable1 measures producing the benchmark-characteristics table:
// compiling every corpus program and counting classes/members.
func BenchmarkTable1(b *testing.B) {
	corpus := bench.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bm := range corpus {
			r := frontend.Compile(bm.Sources...)
			if err := r.Err(); err != nil {
				b.Fatal(err)
			}
			res := deadmember.Analyze(r.Program, r.Graph, deadmember.Options{CallGraph: callgraph.RTA})
			if s := res.Stats(); s.Members == 0 {
				b.Fatal("no members")
			}
		}
	}
}

// BenchmarkFigure3 measures the static analysis (the paper's algorithm
// proper) per corpus benchmark, excluding frontend time.
func BenchmarkFigure3(b *testing.B) {
	for _, bm := range bench.All() {
		r := frontend.Compile(bm.Sources...)
		if err := r.Err(); err != nil {
			b.Fatal(err)
		}
		b.Run(bm.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := deadmember.Analyze(r.Program, r.Graph, deadmember.Options{CallGraph: callgraph.RTA})
				_ = res.Stats()
			}
		})
	}
}

// BenchmarkTable2 measures the instrumented execution behind one Table 2
// row per corpus benchmark, on the bytecode VM that paperbench runs (a
// fresh Executor per run, as every production run gets).
func BenchmarkTable2(b *testing.B) {
	for _, bm := range bench.All() {
		r := frontend.Compile(bm.Sources...)
		if err := r.Err(); err != nil {
			b.Fatal(err)
		}
		res := deadmember.Analyze(r.Program, r.Graph, deadmember.Options{CallGraph: callgraph.RTA})
		b.Run(bm.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ex := vm.NewExecutor(r.Program, r.Graph)
				if _, err := dynprof.Run(res, dynprof.Options{Executor: ex}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure4 measures deriving the Figure 4 percentages, including
// the rendering, for the whole corpus.
func BenchmarkFigure4(b *testing.B) {
	results, err := report.CollectAll(context.Background(), engine.NewSession(engine.Config{}, engine.Limits{}))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := report.Figure4(results); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkAblationCallGraph measures the call-graph ablation (ALL vs CHA
// vs RTA) on the largest corpus benchmark.
func BenchmarkAblationCallGraph(b *testing.B) {
	bm, err := bench.ByName("jikes")
	if err != nil {
		b.Fatal(err)
	}
	r := frontend.Compile(bm.Sources...)
	if err := r.Err(); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []callgraph.Mode{callgraph.ALL, callgraph.CHA, callgraph.RTA} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := deadmember.Analyze(r.Program, r.Graph, deadmember.Options{CallGraph: mode})
				_ = res.Stats()
			}
		})
	}
}

// BenchmarkAblationCompileOnceVsRecompile measures the tentpole win: the
// six-variant ablation sweep over the corpus, either recompiling every
// benchmark per variant (the seed's behaviour) or compiling once per
// benchmark and reusing the Compilation — with the RTA variants also
// sharing one cached call graph.
func BenchmarkAblationCompileOnceVsRecompile(b *testing.B) {
	variants := []deadmember.Options{
		{CallGraph: callgraph.RTA},
		{CallGraph: callgraph.CHA},
		{CallGraph: callgraph.ALL},
		{CallGraph: callgraph.RTA, WritesAreUses: true},
		{CallGraph: callgraph.RTA, Sizeof: deadmember.SizeofConservative},
		{CallGraph: callgraph.RTA, NoDeleteSpecialCase: true},
	}
	b.Run("recompile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, bm := range bench.All() {
				for _, opts := range variants {
					r := frontend.Compile(bm.Sources...)
					if err := r.Err(); err != nil {
						b.Fatal(err)
					}
					_ = deadmember.Analyze(r.Program, r.Graph, opts).Stats()
				}
			}
		}
	})
	b.Run("compile-once", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			session := engine.NewSession(engine.Config{}, engine.Limits{})
			for _, bm := range bench.All() {
				c := session.Compile(bm.Sources...)
				if err := c.Err(); err != nil {
					b.Fatal(err)
				}
				for _, opts := range variants {
					_ = c.Analyze(opts).Stats()
				}
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Pipeline-stage micro-benchmarks

func jikesSource(b *testing.B) frontend.Source {
	b.Helper()
	bm, err := bench.ByName("jikes")
	if err != nil {
		b.Fatal(err)
	}
	return bm.Sources[0]
}

// BenchmarkLexer times lexing alone: the jikes corpus program, then the
// scaling probes of 400 and 3,200 classes. Each iteration registers the
// file anew, as a compilation does.
func BenchmarkLexer(b *testing.B) {
	cases := []struct {
		name string
		src  frontend.Source
	}{
		{"jikes", jikesSource(b)},
		{"classes=400", scalingSource(400)},
		{"classes=3200", scalingSource(3200)},
	}
	for _, c := range cases {
		src := c.src
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src.Text)))
			for i := 0; i < b.N; i++ {
				fset := source.NewFileSet()
				f := fset.AddFile(src.Name, src.Text)
				diags := source.NewDiagnosticList(fset)
				toks := lexer.ScanAll(f, diags)
				if len(toks) == 0 || diags.HasErrors() {
					b.Fatal("lex failed")
				}
			}
		})
	}
}

func BenchmarkParser(b *testing.B) {
	src := jikesSource(b)
	b.SetBytes(int64(len(src.Text)))
	for i := 0; i < b.N; i++ {
		fset := source.NewFileSet()
		f := fset.AddFile(src.Name, src.Text)
		diags := source.NewDiagnosticList(fset)
		file := parser.ParseFile(f, diags)
		if file == nil || diags.HasErrors() {
			b.Fatal("parse failed")
		}
	}
}

func BenchmarkFrontend(b *testing.B) {
	src := jikesSource(b)
	b.SetBytes(int64(len(src.Text)))
	for i := 0; i < b.N; i++ {
		r := frontend.Compile(src)
		if err := r.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCallGraphRTA(b *testing.B) {
	r := frontend.Compile(jikesSource(b))
	if err := r.Err(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := callgraph.Build(r.Program, r.Graph, callgraph.Options{Mode: callgraph.RTA})
		if len(g.Reachable) == 0 {
			b.Fatal("empty call graph")
		}
	}
}

// BenchmarkInterpRichards measures one instrumented richards run on the
// bytecode VM: the compute-bound end of the corpus.
func BenchmarkInterpRichards(b *testing.B) {
	bm, err := bench.ByName("richards")
	if err != nil {
		b.Fatal(err)
	}
	r := frontend.Compile(bm.Sources...)
	if err := r.Err(); err != nil {
		b.Fatal(err)
	}
	res := deadmember.Analyze(r.Program, r.Graph, deadmember.Options{CallGraph: callgraph.RTA})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof, err := dynprof.Run(res, dynprof.Options{Executor: vm.NewExecutor(r.Program, r.Graph)})
		if err != nil {
			b.Fatal(err)
		}
		if prof.Exec.ExitCode != 0 {
			b.Fatal("richards failed")
		}
	}
}

// scalingSizes are the class counts of the generated programs the
// scaling benchmarks sweep: the paper corpus's range and beyond, to the
// 3,200 classes of the largest analyze-scaled program.
var scalingSizes = []int{25, 50, 100, 200, 400, 800, 1600, 3200}

// scalingSource generates the scaling probe of the given size.
func scalingSource(classes int) frontend.Source {
	spec := bench.Spec{
		Name: "scale", Description: "scaling probe",
		Classes: classes, UsedClasses: classes * 3 / 4,
		Members: classes * 4, DeadPercent: 10,
		Allocations: 10, RetainMod: 1, DeadHeavyClasses: 3,
		Seed: uint64(classes),
	}
	src, _ := bench.Generate(spec)
	return frontend.Source{Name: "scale.mcc", Text: src}
}

// scalingProgram compiles the generated scaling probe of the given size.
func scalingProgram(b *testing.B, classes int) *frontend.Result {
	b.Helper()
	r := frontend.Compile(scalingSource(classes))
	if err := r.Err(); err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkSema times semantic analysis alone over the scaling probes of
// 400 and 3,200 classes. Each iteration checks a freshly parsed file
// (the parse runs with the timer stopped), so sema numbers every node it
// records, as in a compilation. Run it with -benchmem: sema's
// allocations are most of a compilation's.
func BenchmarkSema(b *testing.B) {
	for _, classes := range []int{400, 3200} {
		src := scalingSource(classes)
		b.Run(fmt.Sprintf("classes=%d", classes), func(b *testing.B) {
			b.SetBytes(int64(len(src.Text)))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fset := source.NewFileSet()
				diags := source.NewDiagnosticList(fset)
				file := parser.ParseFile(fset.AddFile(src.Name, src.Text), diags)
				b.StartTimer()
				sema.Check(fset, []*ast.File{file}, diags)
				if diags.HasErrors() {
					b.Fatal(diags.Err())
				}
			}
		})
	}
}

// BenchmarkAnalysisScaling measures how analysis time grows with program
// size. The paper's §3.4 argues the algorithm is effectively linear:
// O(N + C×M) for N expressions, C classes, M distinct member names.
// Compare ns/op across the sub-benchmarks: time per class should stay
// near-constant.
func BenchmarkAnalysisScaling(b *testing.B) {
	for _, classes := range scalingSizes {
		r := scalingProgram(b, classes)
		b.Run(fmt.Sprintf("classes=%d", classes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := deadmember.Analyze(r.Program, r.Graph, deadmember.Options{CallGraph: callgraph.RTA})
				_ = res.Stats()
			}
		})
	}
}

// BenchmarkCallGraphScaling isolates RTA construction on the same
// programs: its cost should grow with the graph it builds, not with
// classes × call-site occurrences.
func BenchmarkCallGraphScaling(b *testing.B) {
	for _, classes := range scalingSizes {
		r := scalingProgram(b, classes)
		b.Run(fmt.Sprintf("classes=%d", classes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := callgraph.Build(r.Program, r.Graph, callgraph.Options{Mode: callgraph.RTA})
				if len(g.Reachable) == 0 {
					b.Fatal("empty call graph")
				}
			}
		})
	}
}

// BenchmarkLintTiers times lint.Run at each precision tier over the
// whole corpus and over the 3,200-class scaling probe, against one
// analysis each, and reports its allocations. The flow and heap tiers
// run the same pass, so their figures sit together, and a flow-only run
// pays only the heap tier's cheap early exits.
func BenchmarkLintTiers(b *testing.B) {
	analyze := func(r *frontend.Result) *deadmember.Result {
		return deadmember.Analyze(r.Program, r.Graph, deadmember.Options{CallGraph: callgraph.RTA})
	}
	var corpus []*deadmember.Result
	for _, bm := range bench.All() {
		r := frontend.Compile(bm.Sources...)
		if err := r.Err(); err != nil {
			b.Fatal(err)
		}
		corpus = append(corpus, analyze(r))
	}
	programs := []struct {
		name string
		ars  []*deadmember.Result
	}{
		{"corpus", corpus},
		{"classes=3200", []*deadmember.Result{analyze(scalingProgram(b, 3200))}},
	}
	for _, p := range programs {
		for _, tier := range heaplive.Tiers() {
			b.Run(p.name+"/"+tier.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, ar := range p.ars {
						if res := lint.Run(ar, lint.Options{Precision: tier}); res.Degraded() {
							b.Fatal(res.Failures[0])
						}
					}
				}
			})
		}
	}
}

func BenchmarkCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		all := bench.All()
		if len(all) != 11 {
			b.Fatal("bad corpus")
		}
	}
}
